"""Command-line front end.

Subcommands run verification suites and experiments from JSON config
files (flags override config keys) and write machine-readable reports.
Report bodies are byte-identical for identical config and seed;
timestamps and the LP memo's counts (``lp.memo_counts()``) live in a
sidecar file next to each report.

Exit codes: 0 pass, 1 suite failure or runtime error, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import inspect
import json
import os
import sys

import numpy as np

from . import learner, lp, suites
from .mdp import MdpFormatError, generate_lipschitz_mdp, load_mdp, save_mdp
from .planner import GviConvergenceError, gvi, parse_operator
from .vaml import ContractionPreconditionError


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


_GENERATOR_KEYS = ("states", "actions", "gamma", "smoothing", "seed", "space_kind", "base")

# Each fit setting with its default; FitConfig owns the names, types and checks.
_FIT_DEFAULTS = {field.name: field.default for field in dataclasses.fields(learner.FitConfig)}

_RUN_KEYS = {
    "gvi": ("mdp", "generator", "operator", "delta", "max_iter", "in_place", "out"),
    "learn": ("mdp", "generator", "kind", "out", *_FIT_DEFAULTS),
    "compare": ("mdp", "generator", "kinds", "out", *_FIT_DEFAULTS),
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _check_keys(config, allowed, where):
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {', '.join(unknown)}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_report(out_dir, name, body) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(_jsonable(body), fh, sort_keys=True, indent=2)
        fh.write("\n")
    meta = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "lp_memo": lp.memo_counts(),
    }
    with open(path.replace(".json", ".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return path


def _generate(gen):
    """generate_lipschitz_mdp from a generator block; absent keys take the defaults."""
    return generate_lipschitz_mdp(
        int(gen.get("states", 6)),
        int(gen.get("actions", 2)),
        float(gen.get("gamma", 0.9)),
        float(gen.get("smoothing", 0.5)),
        int(gen.get("seed", 0)),
        **{key: gen[key] for key in ("space_kind", "base") if key in gen},
    )


def _resolve_mdp(config):
    if "mdp" in config and "generator" in config:
        raise ConfigError("give either 'mdp' or 'generator', not both")
    if "mdp" in config:
        path = config["mdp"]
        if not os.path.exists(path):
            raise ConfigError(f"mdp file not found: {path}")
        return load_mdp(path), {"mdp": path}
    if "generator" in config:
        gen = dict(config["generator"])
        _check_keys(gen, _GENERATOR_KEYS, "generator")
        try:
            mdp = _generate(gen)
        except ValueError as exc:
            raise ConfigError(f"generator: {exc}") from exc
        return mdp, {"generator": gen}
    raise ConfigError("config needs an 'mdp' path or a 'generator' block")


def _suite_defaults(suite):
    """The suite's keyword settings that default to a number, with those defaults."""
    params = inspect.signature(suites.SUITES[suite]).parameters.values()
    return {p.name: p.default for p in params if isinstance(p.default, (int, float))}


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    defaults = _suite_defaults(args.suite)
    _check_keys(config, (*defaults, "out"), f"verify {args.suite}")
    flags = {"seed": args.seed, "trials": args.trials, "tol": args.tol, "out": args.out}
    config.update((key, value) for key, value in flags.items() if value is not None)
    out_dir = config.pop("out", ".")
    kwargs = {key: _cast(key, defaults[key], value) for key, value in config.items()}
    try:
        suites.check_settings(args.suite, kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = suites.SUITES[args.suite](**kwargs)
    path = _write_report(out_dir, f"verify_{args.suite}.json", report.to_json_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"verify {args.suite}: {status} max_violation={report.max_violation:.3e} "
        f"trials={report.trials} report={path}"
    )
    return 0 if report.passed else 1


def _setting(key, parse, *args):
    """parse(*args) for one config setting, with a bad value as a ConfigError."""
    try:
        return parse(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _cast(key, default, value):
    """value cast to the type of its owner's default; a None default takes it as given."""
    return value if default is None else _setting(key, type(default), value)


def _cmd_run_gvi(config, out_dir) -> int:
    op = _setting("operator", parse_operator, config.get("operator", "max"))
    delta = _setting("delta", float, config.get("delta", 1e-10))
    if not (delta > 0.0):
        raise ConfigError(f"delta: must be positive, got {delta!r}")
    max_iter = _setting("max_iter", int, config.get("max_iter", 1_000_000))
    if max_iter < 1:
        raise ConfigError(f"max_iter: must be at least 1, got {max_iter}")
    mdp, source = _resolve_mdp(config)
    result = gvi(mdp, op, delta=delta, max_iter=max_iter, in_place=bool(config.get("in_place", False)))
    body = {
        "source": source,
        "operator": config.get("operator", "max"),
        "delta": delta,
        "iterations": result.iterations,
        "final_diff": result.final_diff,
        "q": result.q.q,
        "v": result.v.values,
    }
    path = _write_report(out_dir, "gvi_result.json", body)
    print(
        f"run gvi: converged in {result.iterations} sweeps, "
        f"final_diff={result.final_diff:.3e} report={path}"
    )
    return 0


def _fit_setup(config):
    """The FitConfig from the keys the config gives, the others at their defaults,
    and the MDP it fits; every setting is checked before any fitting starts."""
    kwargs = {key: _cast(key, default, config[key]) for key, default in _FIT_DEFAULTS.items() if key in config}
    fit = _setting("fit settings", lambda: learner.FitConfig(**kwargs))
    mdp, source = _resolve_mdp(config)
    if fit.model_rank is not None:
        rank = _setting("model_rank", int, fit.model_rank)
        if not (1 <= rank <= mdp.n_states):
            raise ConfigError(f"model_rank: must lie in [1, {mdp.n_states}], got {rank}")
    return fit, mdp, source


def _cmd_run_learn(config, out_dir) -> int:
    kind = _setting("kind", learner.parse_loss_kind, config.get("kind", "kl"))
    fit, mdp, source = _fit_setup(config)
    report = learner.fit_model(mdp, kind, fit)
    body = {"source": source, **report.to_json_dict()}
    path = _write_report(out_dir, "train_report.json", body)
    report.write_loss_csv(os.path.join(out_dir, "loss_curve.csv"))
    print(
        f"run learn [{learner.loss_kind_spec(kind)}]: final_loss={report.loss_curve[-1]:.3e} "
        f"planning_gap={report.planning_gap:.3e} report={path}"
    )
    return 0


def _cmd_run_compare(config, out_dir) -> int:
    kind_specs = config.get("kinds", ["kl", "wasserstein", "vaml"])
    if not isinstance(kind_specs, list) or not kind_specs:
        raise ConfigError("'kinds' must be a nonempty list of loss kind strings")
    kinds = [_setting("kinds", learner.parse_loss_kind, text) for text in kind_specs]
    fit, mdp, source = _fit_setup(config)
    comparison = learner.compare_losses(mdp, kinds, fit)
    body = {"source": source, **comparison.to_json_dict()}
    path = _write_report(out_dir, "comparison.json", body)
    comparison.write_csv(os.path.join(out_dir, "comparison.csv"))
    comparison.write_cross_csv(os.path.join(out_dir, "cross_eval.csv"))
    for report in comparison.rows:
        print(
            f"run compare [{learner.loss_kind_spec(report.kind)}]: "
            f"final_loss={report.loss_curve[-1]:.3e} planning_gap={report.planning_gap:.3e}"
        )
    print(f"run compare: report={path}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, _RUN_KEYS[args.what], f"run {args.what}")
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = args.out if args.out is not None else config.get("out", ".")
    if args.what == "gvi":
        return _cmd_run_gvi(config, out_dir)
    if args.what == "learn":
        return _cmd_run_learn(config, out_dir)
    return _cmd_run_compare(config, out_dir)


def _cmd_gen_mdp(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, _GENERATOR_KEYS + ("out",), "gen-mdp")
    gen = dict(config)
    for key in ("states", "actions", "gamma", "smoothing", "seed"):
        if getattr(args, key) is not None:
            gen[key] = getattr(args, key)
    try:
        mdp = _generate(gen)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = args.out if args.out is not None else config.get("out", "mdp.json")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_mdp(mdp, out)
    print(
        f"gen-mdp: wrote {out} "
        f"(K_W={mdp.measured_kernel_constant:.4f}, K_R={mdp.measured_reward_constant:.4f})"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassmdp",
        description="Verification suites and experiments for transport-aware model analysis on finite MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a property suite over a seeded random grid")
    p_verify.add_argument("suite", choices=sorted(suites.SUITES))
    _common_flags(p_verify)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)

    p_run = sub.add_parser("run", help="run a planning or learning pipeline")
    p_run.add_argument("what", choices=("gvi", "learn", "compare"))
    _common_flags(p_run)

    p_gen = sub.add_parser("gen-mdp", help="generate and save a random Lipschitz MDP")
    _common_flags(p_gen)
    p_gen.add_argument("--states", type=int, default=None)
    p_gen.add_argument("--actions", type=int, default=None)
    p_gen.add_argument("--gamma", type=float, default=None)
    p_gen.add_argument("--smoothing", type=float, default=None)
    return parser


def _common_flags(parser):
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # The sidecar's memo counts cover this command alone; no bit depends on it.
    lp.clear_memo()
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gen_mdp(args)
    except (ConfigError, MdpFormatError, ContractionPreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        GviConvergenceError,
        learner.TrainingDivergedError,
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
