#!/usr/bin/env python3
"""Run one benchmark workload from a seed and print its metrics.

    python3 bench/run.py --workload equivalence --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with ``--trace 1``.
The line before it describes the run environment.  A fuller record,
with every round and, when traced, the spans of one round, goes to
``.bench_runs/``.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy is first imported: a second OpenBLAS
# thread spins on a 2-core machine without shortening the wall time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402  (standard library only; wassmdp is imported later)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
IMPORT_PROBE = "import numpy, wassmdp"


def import_program():
    """Put ./src first on the path and import wassmdp from there, or exit non-zero."""
    package = SRC / "wassmdp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {package}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import wassmdp

    if Path(wassmdp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported wassmdp from {wassmdp.__file__}, not {package}")


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports numpy and wassmdp."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy

    sha = None  # an exported checkout has no .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wassmdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy": numpy.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "scipy_for_highs_check": importlib.util.find_spec("scipy") is not None,
    }


@dataclass
class Round:
    """One pass over a workload's steps."""

    traced: bool
    wall: float = 0.0
    item_times: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)  # shared by the steps of the round
    spans: list | None = None
    failed: int = 0
    errors: list = field(default_factory=list)


def run_round(steps, traced) -> Round:
    rnd = Round(traced)
    probe = tracer.Tracer() if traced else nullcontext()
    with probe:
        start = time.perf_counter()
        for step in steps:
            began = time.perf_counter()
            try:
                rnd.outputs[step.label] = step.fn(rnd.state)
            except Exception:  # a failed item is counted and the round goes on
                rnd.failed += step.item
                rnd.errors.append(f"{step.label}: {traceback.format_exc()}")
                continue
            if step.item:
                rnd.item_times.append(time.perf_counter() - began)
        rnd.wall = time.perf_counter() - start
    if traced:
        rnd.spans = probe.spans
    return rnd


def measure(steps, seconds, trace) -> list[Round]:
    """Whole rounds until ``seconds`` are used up.

    A traced run repeats pairs of one plain and one traced round.  Another
    round (or pair) starts only while at least half of an average one
    still fits, so a run lasts about ``seconds`` whatever the round length.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(steps, traced=False))
        if trace:
            rounds.append(run_round(steps, traced=True))
        elapsed = time.perf_counter() - start
        units = len(rounds) // (2 if trace else 1)
        if elapsed + 0.5 * elapsed / units >= seconds:
            return rounds


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.prepare()
        workload.warmup()
        setup_times.append(time.perf_counter() - began)
    import_s = import_seconds()

    steps = workload.steps()
    rounds = measure(steps, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks and reference computations, all after the timed rounds.
    first = rounds[0]
    problems = workload.check(first.outputs, first.state)
    expected = {label: workload.fingerprint(out) for label, out in first.outputs.items()}
    for k, rnd in enumerate(rounds[1:], start=2):
        for label, out in rnd.outputs.items():
            if workload.fingerprint(out) != expected.get(label):
                problems.append(f"round {k}: {label} differs from round 1")

    plain = [rnd for rnd in rounds if not rnd.traced]
    traced = [rnd for rnd in rounds if rnd.traced]
    if traced:
        layers = []
        for rnd in traced:
            # A missed name shows as a count below the one the inputs imply.
            mismatches = workload.check_counts(rnd.spans) if not rnd.failed else []
            if mismatches:
                sys.exit("bench: traced span counts disagree with the inputs:\n  " + "\n  ".join(mismatches))
            layers.append(tracer.layer_metrics(rnd.spans))
        units = dict(tracer.PER_LAYER)
        values = {}
        for name, value in layers[0].items():
            if units[name] == "count":
                if any(lay[name] != value for lay in layers):
                    sys.exit(f"bench: traced count {name} changed between rounds")
                values[name] = value
            else:
                values[name] = statistics.median(lay[name] for lay in layers)
        values["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
            r.wall for r in plain
        )
        metrics = {name: metric(values[name], unit) for name, unit in tracer.PER_LAYER}
    else:
        metrics = {
            "setup_s": metric(import_s + statistics.median(setup_times), "s"),
            "wall_s": metric(statistics.median(r.wall for r in plain), "s"),
            "item_p50_ms": metric(1000.0 * statistics.median(t for r in plain for t in r.item_times), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    n_items = sum(step.item for step in steps)
    result = {
        "correct": not problems,
        "attempted": n_items * len(rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "result": result,
        "setup": {"import_s": import_s, "prepare_and_warmup_s": setup_times},
        "rounds": [
            {"traced": rnd.traced, "wall_s": rnd.wall, "item_s": rnd.item_times} for rnd in rounds
        ],
        "problems": problems,
        "errors": [err for rnd in rounds for err in rnd.errors],
    }
    if traced:
        spans = traced[0].spans
        record["layers"] = {
            name: {key: row[key] for key in ("calls", "total_s", "self_s", "extra")}
            for name, row in tracer.layer_table(spans).items()
        }
        origin = spans[0][1] if spans else 0.0
        record["spans"] = [[s[0], s[1] - origin, s[2] - origin, s[3]] for s in spans]
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    for err in record["errors"][:5]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
