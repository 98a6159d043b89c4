"""Command-line front end.

Subcommands run verification suites and experiments from JSON config
files (flags override config keys) and write machine-readable reports.
Report bodies are byte-identical for identical config and seed;
timestamps and the LP memo's counts (``lp.memo_counts()``) live in a
sidecar file next to each report.

Exit codes: 0 pass, 1 suite failure or runtime error, 2 usage or config
error.  Every rejected input exits 2 with one ``error:`` line on stderr
and writes no report.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import os
import sys

import numpy as np

from . import learner, lp, suites
from .mdp import FiniteMdp, MdpFormatError, generate_lipschitz_mdp, load_mdp, save_mdp
from .planner import GviConvergenceError, check_gvi_settings, gvi, parse_operator
from .vaml import ContractionPreconditionError


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


# A keyword parameter annotated with one of these types is a setting configs may give.
_SETTING_TYPES = (int, float, bool, str, int | None)


def _settings(owner) -> dict:
    """{name: type} of the settings of ``owner``, a function or a dataclass."""
    params = inspect.signature(owner, eval_str=True).parameters.values()
    return {p.name: p.annotation for p in params if p.annotation in _SETTING_TYPES}


def _cast(key, kind, value):
    """value as a ``kind`` setting, unchanged, or a ConfigError: a bool or str setting takes
    only a JSON bool or string, a number setting no bool, and an int setting only an
    integral value.  Numbers may be spelled as strings; ``int | None`` also takes null."""
    if kind == int | None:
        if value is None:
            return None
        kind = int
    if kind is bool or kind is str:
        if not isinstance(value, kind):
            raise ConfigError(f"{key}: must be {'true or false' if kind is bool else 'a string'}, got {value!r}")
        return value
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key}: must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _read(config, types) -> dict:
    """The config's values for the keys of ``types``, each cast to its type."""
    return {key: _cast(key, kind, config[key]) for key, kind in types.items() if key in config}


def _generate(
    states: int = 6, actions: int = 2, gamma: float = 0.9, smoothing: float = 0.5, seed: int = 0,
    space_kind: str = "line", base: str = "walk",
) -> FiniteMdp:
    """generate_lipschitz_mdp under the keys and defaults of a generator block."""
    return generate_lipschitz_mdp(states, actions, gamma, smoothing, seed, space_kind=space_kind, base=base)


_GENERATOR_SETTINGS = _settings(_generate)
_GVI_SETTINGS = _settings(gvi)
_GVI_DELTA = inspect.signature(gvi).parameters["delta"].default
_FIT_SETTINGS = _settings(learner.FitConfig)

_RUN_KEYS = {
    "gvi": ("mdp", "generator", "operator", "out", *_GVI_SETTINGS),
    "learn": ("mdp", "generator", "kind", "out", *_FIT_SETTINGS),
    "compare": ("mdp", "generator", "kinds", "out", *_FIT_SETTINGS),
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path} as JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _apply_flags(config, args, names):
    """Lay the flags among ``names`` that were given over the config's keys."""
    config.update((name, getattr(args, name)) for name in names if getattr(args, name) is not None)


def _check_keys(config, allowed, where):
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {', '.join(unknown)}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # Python lists, bools, ints and floats
    return obj


def _out_dir(value) -> str:
    """The ``out`` setting as a directory the report can go to, checked before any
    work: a nonempty path that is, or whose nearest existing parent is, a directory."""
    out = _cast("out", str, value)
    if not out:
        raise ConfigError("out: must not be empty")
    head = out
    while head and not os.path.lexists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(f"out: {head} exists and is not a directory")
    return out


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
    with open(os.path.join(out_dir, name.replace(".json", ".meta.json")), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return path


def _resolve_mdp(config):
    if "mdp" in config and "generator" in config:
        raise ConfigError("give either 'mdp' or 'generator', not both")
    if "mdp" in config:
        path = _cast("mdp", str, config["mdp"])
        try:
            return load_mdp(path), {"mdp": path}
        except OSError as exc:
            raise ConfigError(f"cannot read mdp file {path}: {exc.strerror}") from exc
    if "generator" in config:
        gen = config["generator"]
        if not isinstance(gen, dict):
            raise ConfigError(f"generator: must be a JSON object, got {gen!r}")
        _check_keys(gen, _GENERATOR_SETTINGS, "generator")
        try:
            mdp = _generate(**_read(gen, _GENERATOR_SETTINGS))
        except ValueError as exc:
            raise ConfigError(f"generator: {exc}") from exc
        return mdp, {"generator": gen}
    raise ConfigError("config needs an 'mdp' path or a 'generator' block")


def _setting(key, parse, *args):
    """parse(*args), a bad value as a ConfigError naming ``key`` (None: the message does)."""
    try:
        return parse(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    _apply_flags(config, args, ("seed", "trials", "tol", "out"))
    types = _settings(suites.SUITES[args.suite])
    _check_keys(config, (*types, "out"), f"verify {args.suite}")
    out_dir = _out_dir(config.pop("out", "."))
    kwargs = _read(config, types)
    _setting(None, suites.check_settings, args.suite, kwargs)
    report = suites.SUITES[args.suite](**kwargs)
    path = _write_report(out_dir, f"verify_{args.suite}.json", report.to_json_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"verify {args.suite}: {status} max_violation={report.max_violation:.3e} "
        f"trials={report.trials} report={path}"
    )
    return 0 if report.passed else 1


def _cmd_run_gvi(config, out_dir) -> int:
    spec = _cast("operator", str, config.get("operator", "max"))
    op = _setting("operator", parse_operator, spec)
    kwargs = _read(config, _GVI_SETTINGS)
    _setting(None, check_gvi_settings, kwargs)
    mdp, source = _resolve_mdp(config)
    result = gvi(mdp, op, **kwargs)
    body = {
        "source": source,
        "operator": spec,
        "delta": kwargs.get("delta", _GVI_DELTA),
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
    kwargs = _read(config, _FIT_SETTINGS)
    fit = _setting("fit settings", lambda: learner.FitConfig(**kwargs))
    mdp, source = _resolve_mdp(config)
    _setting(None, learner.check_fit_settings, mdp, fit)
    return fit, mdp, source


def _cmd_run_learn(config, out_dir) -> int:
    kind = _setting("kind", learner.parse_loss_kind, _cast("kind", str, config.get("kind", "kl")))
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
    kinds = [_setting("kinds", learner.parse_loss_kind, _cast("kinds", str, text)) for text in kind_specs]
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
    _apply_flags(config, args, ("seed", "out"))
    _check_keys(config, _RUN_KEYS[args.what], f"run {args.what}")
    out_dir = _out_dir(config.get("out", "."))
    if args.what == "gvi":
        return _cmd_run_gvi(config, out_dir)
    if args.what == "learn":
        return _cmd_run_learn(config, out_dir)
    return _cmd_run_compare(config, out_dir)


def _cmd_gen_mdp(args) -> int:
    config = _load_config(args.config)
    _apply_flags(config, args, ("states", "actions", "gamma", "smoothing", "seed", "out"))
    _check_keys(config, (*_GENERATOR_SETTINGS, "out"), "gen-mdp")
    out = _cast("out", str, config.pop("out", "mdp.json"))
    # A bare file name goes to the working directory; an empty ``out`` is refused.
    parent = _out_dir(os.path.dirname(out) or (out and "."))
    if os.path.isdir(out) or not os.path.basename(out):
        raise ConfigError(f"out: {out} is a directory, not a file")
    try:
        mdp = _generate(**_read(config, _GENERATOR_SETTINGS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
