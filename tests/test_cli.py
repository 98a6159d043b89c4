import functools
import json
import warnings

import numpy as np
import pytest

from wassmdp import cli, learner, lp, planner, suites
from wassmdp.cli import main
from wassmdp.mdp import FiniteMdp, load_mdp, save_mdp
from wassmdp.metric import MetricSpace
from wassmdp.transport import Coupling, Distribution


def run_cli(*argv):
    return main(list(argv))


class TestGenMdp:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(
            "gen-mdp", "--states", "5", "--actions", "2", "--gamma", "0.9",
            "--smoothing", "0.5", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        mdp = load_mdp(out)
        assert mdp.n_states == 5
        assert mdp.n_actions == 2

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        code = run_cli("gen-mdp", "--states", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_operators_suite_passes(self, tmp_path, capsys):
        code = run_cli(
            "verify", "operators", "--trials", "50", "--seed", "4", "--out", str(tmp_path)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify operators: PASS" in out
        report = json.loads((tmp_path / "verify_operators.json").read_text())
        assert report["pass"] is True
        assert report["suite"] == "operators"
        assert report["trials"] == 50
        assert report["max_violation"] <= 1e-12
        assert (tmp_path / "verify_operators.meta.json").exists()

    def test_duality_small_grid(self, tmp_path):
        code = run_cli(
            "verify", "duality", "--trials", "5", "--seed", "1", "--out", str(tmp_path),
            "--config", str(_write(tmp_path, "cfg.json", {"max_states": 8})),
        )
        assert code == 0
        report = json.loads((tmp_path / "verify_duality.json").read_text())
        assert report["pass"] is True

    def test_impossible_tolerance_fails_but_writes_report(self, tmp_path, capsys):
        code = run_cli(
            "verify", "duality", "--trials", "4", "--seed", "2", "--tol", "0",
            "--out", str(tmp_path), "--config", str(_write(tmp_path, "c.json", {"max_states": 6})),
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_duality.json").read_text())
        assert report["pass"] is False
        assert report["worst"]["cell"] >= 0

    def test_reports_byte_identical_for_same_seed(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("verify", "lemmas", "--trials", "10", "--seed", "9",
                           "--out", str(d), "--config",
                           str(_write(tmp_path, "lc.json", {"chain_trials": 10}))) == 0
        assert (d1 / "verify_lemmas.json").read_bytes() == (d2 / "verify_lemmas.json").read_bytes()

    def test_equivalence_suite_wiring(self, tmp_path):
        cfg = _write(tmp_path, "eq.json", {"max_states": 5, "max_actions": 1})
        code = run_cli(
            "verify", "equivalence", "--trials", "2", "--seed", "3",
            "--out", str(tmp_path), "--config", str(cfg),
        )
        assert code == 0
        report = json.loads((tmp_path / "verify_equivalence.json").read_text())
        assert report["pass"] is True

    def test_theorem_suite_wiring(self, tmp_path):
        code = run_cli("verify", "theorem", "--trials", "2", "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "verify_theorem.json").read_text())
        assert report["pass"] is True
        assert "recursion_max_excess" in report["details"]

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.json", {"trails": 3})
        code = run_cli("verify", "duality", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert "trails" in capsys.readouterr().err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{oops")
        code = run_cli("verify", "duality", "--config", str(cfg))
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_unknown_suite_exit_2(self):
        assert run_cli("verify", "spectral") == 2

    @pytest.mark.parametrize(
        "suite, flags, settings, named",
        [
            ("operators", ("--trials", "-3"), {}, "trials: must be at least 1, got -3"),
            ("lemmas", (), {"trials": 0}, "trials: must be at least 1, got 0"),
            ("theorem", (), {"delta": 0}, "delta: must be positive and finite, got 0.0"),
            ("theorem", (), {"delta": float("inf")}, "delta: must be positive and finite, got inf"),
            ("duality", (), {"max_states": 1}, "max_states: must be at least 2, got 1"),
            ("equivalence", (), {"max_states": 3}, "max_states: must be at least 4, got 3"),
            ("equivalence", (), {"max_actions": 0}, "max_actions: must be at least 1, got 0"),
            ("lemmas", (), {"chain_trials": 0}, "chain_trials: must be at least 1, got 0"),
            ("duality", (), {"tol": "tight"}, "tol: could not convert string to float: 'tight'"),
            ("duality", (), {"seed": "x"}, "seed: invalid literal for int() with base 10: 'x'"),
            ("theorem", (), {"recursion_tol": "x"}, "recursion_tol: could not convert string to float: 'x'"),
        ],
        ids=["trials_flag", "trials", "delta", "delta_inf", "max_states_duality",
             "max_states_equivalence", "max_actions", "chain_trials", "tol", "seed", "recursion_tol"],
    )
    def test_bad_suite_setting_exit_2_before_any_work(self, tmp_path, capsys, suite, flags, settings, named):
        out = tmp_path / "out"
        cfg = _write(tmp_path, "bad.json", settings)
        code = run_cli("verify", suite, *flags, "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()


class TestRun:
    def test_gvi_with_mellowmax(self, tmp_path, capsys):
        mdp_path = tmp_path / "m.json"
        assert run_cli("gen-mdp", "--states", "5", "--seed", "7", "--out", str(mdp_path)) == 0
        cfg = _write(tmp_path, "gvi.json", {
            "mdp": str(mdp_path), "operator": "mellowmax:5.0", "delta": 1e-10,
        })
        code = run_cli("run", "gvi", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        result = json.loads((tmp_path / "gvi_result.json").read_text())
        assert result["final_diff"] < 1e-10
        assert len(result["v"]) == 5
        assert "converged" in capsys.readouterr().out

    def test_gvi_from_generator_block(self, tmp_path):
        cfg = _write(tmp_path, "gen.json", {
            "generator": {"states": 4, "actions": 2, "gamma": 0.8, "smoothing": 0.6, "seed": 2},
            "operator": "eps-greedy:0.2",
        })
        assert run_cli("run", "gvi", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def test_learn_writes_report_and_curve(self, tmp_path):
        cfg = _write(tmp_path, "learn.json", {
            "generator": {"states": 4, "actions": 1, "seed": 5},
            "kind": "kl", "iters": 40, "step_size": 1.0,
        })
        code = run_cli("run", "learn", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["kind"] == "kl"
        assert report["final_loss"] <= report["loss_curve"][0]
        lines = (tmp_path / "loss_curve.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss"

    def test_learn_with_vaml_kind_resolves_radius(self, tmp_path):
        cfg = _write(tmp_path, "vaml.json", {
            "generator": {"states": 4, "actions": 1, "seed": 8},
            "kind": "vaml", "iters": 6, "step_size": 0.5,
        })
        code = run_cli("run", "learn", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["kind"] == "vaml"
        assert report["c_used"] > 0.0

    def test_compare_writes_tables(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cmp.json", {
            "generator": {"states": 4, "actions": 1, "seed": 6},
            "kinds": ["kl", "wasserstein", "vaml"],
            "iters": 8, "step_size": 0.5,
        })
        code = run_cli("run", "compare", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        table = (tmp_path / "comparison.csv").read_text().splitlines()
        assert len(table) == 4  # header + one row per kind
        cross = (tmp_path / "cross_eval.csv").read_text().splitlines()
        assert cross[0].startswith("model,")
        out = capsys.readouterr().out
        assert out.count("run compare [") == 3

    def test_sidecar_counts_memo_hits_and_body_stays_identical(self, tmp_path, monkeypatch):
        # A rank-2 Wasserstein fit re-solves every cell a bumped weight
        # leaves unchanged, so answers come from the memo; the report body
        # must be the bytes of a run that solves every LP afresh.
        cfg = _write(tmp_path, "learn.json", {
            "generator": {"states": 4, "actions": 2, "seed": 5},
            "kind": "wasserstein", "iters": 1, "step_size": 0.5, "model_rank": 2,
        })
        solve = lp.solve_lp
        flags = []

        def recording(problem):
            sol = solve(problem)
            flags.append((sol.phase1_reused, sol.answer_reused))
            return sol

        def fresh(problem):
            lp.clear_memo()
            return solve(problem)

        bodies = {}
        for name, wrapper in (("memo", recording), ("fresh", fresh)):
            monkeypatch.setattr(lp, "solve_lp", wrapper)
            assert run_cli("run", "learn", "--config", str(cfg), "--out", str(tmp_path / name)) == 0
            bodies[name] = (tmp_path / name / "train_report.json").read_bytes()
        assert bodies["memo"] == bodies["fresh"]
        meta = json.loads((tmp_path / "memo" / "train_report.meta.json").read_text())
        assert set(meta) == {"created", "lp_memo"}
        assert meta["lp_memo"] == {
            "solves": len(flags),
            "phase1_reused": sum(p1 for p1, _ in flags),
            "answer_reused": sum(hit for _, hit in flags),
        }
        assert 0 < meta["lp_memo"]["answer_reused"] <= meta["lp_memo"]["phase1_reused"] < len(flags)
        assert b"lp_memo" not in bodies["memo"]

    def test_missing_mdp_file_exit_2_names_path(self, tmp_path, capsys):
        cfg = _write(tmp_path, "gone.json", {"mdp": str(tmp_path / "nope.json")})
        code = run_cli("run", "gvi", "--config", str(cfg))
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_mdp_and_generator_conflict(self, tmp_path, capsys):
        cfg = _write(tmp_path, "both.json", {"mdp": "x.json", "generator": {}})
        assert run_cli("run", "gvi", "--config", str(cfg)) == 2

    @pytest.mark.parametrize(
        "what, settings",
        [
            ("gvi", {"operator": "bogus"}),
            ("gvi", {"delta": -1}),
            ("gvi", {"max_iter": 0}),
            ("learn", {"kind": "bogus"}),
            ("learn", {"iters": 0}),
            ("learn", {"step_size": -1}),
            ("learn", {"kind": "vaml", "model_rank": 9}),
            ("compare", {"kinds": ["kl", "nope"]}),
            ("compare", {"model_rank": 9}),
        ],
        ids=["operator", "delta", "max_iter", "kind", "iters", "step_size", "model_rank", "kinds", "compare_model_rank"],
    )
    def test_bad_run_setting_exit_2_before_any_work(self, tmp_path, capsys, what, settings):
        out = tmp_path / "out"
        cfg = _write(tmp_path, "bad.json", {"generator": {"states": 5, "seed": 1}, **settings})
        code = run_cli("run", what, "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestSettingKeys:
    """The keys each command accepts and the type each value is cast to come
    from the owners of the settings; these pins make a change to a suite's
    signature or to FitConfig's fields a visible decision."""

    @pytest.mark.parametrize(
        "suite, types",
        [
            ("duality", {"seed": int, "trials": int, "max_states": int, "tol": float}),
            ("equivalence", {"seed": int, "trials": int, "max_states": int, "max_actions": int, "tol": float}),
            ("theorem", {"seed": int, "trials": int, "delta": float, "tol": float, "recursion_tol": float}),
            ("operators", {"seed": int, "trials": int, "tol": float}),
            ("lemmas", {"seed": int, "trials": int, "chain_trials": int, "tol": float}),
        ],
    )
    def test_verify_settings(self, suite, types):
        assert cli._settings(suites.SUITES[suite]) == types

    def test_run_and_generator_setting_types(self):
        assert cli._settings(planner.gvi) == {"delta": float, "max_iter": int, "in_place": bool}
        assert set(cli._RUN_KEYS["gvi"]) == {"mdp", "generator", "operator", "out", "delta", "max_iter", "in_place"}
        assert cli._settings(learner.FitConfig) == {
            "iters": int, "step_size": float, "seed": int, "log_every": int, "model_rank": int | None,
        }
        assert cli._settings(cli._generate) == {
            "states": int, "actions": int, "gamma": float, "smoothing": float, "seed": int,
            "space_kind": str, "base": str,
        }

    def test_run_learn_and_compare_keys(self):
        fit = {"iters", "step_size", "seed", "log_every", "model_rank"}
        assert set(cli._RUN_KEYS["learn"]) == fit | {"mdp", "generator", "kind", "out"}
        assert set(cli._RUN_KEYS["compare"]) == fit | {"mdp", "generator", "kinds", "out"}
        assert len(cli._RUN_KEYS["learn"]) == len(cli._RUN_KEYS["compare"]) == len(fit) + 4


_LINE = {"embedding": {"kind": "line", "coords": [0.0, 1.0]}}


def _mdp_doc(**fields):
    """A valid two-state, one-action MDP file body with ``fields`` replaced."""
    doc = {
        "space": _LINE,
        "actions": 1,
        "gamma": 0.9,
        "reward": [[0.0], [1.0]],
        "transition": [[[0.5, 0.5]], [[0.5, 0.5]]],
    }
    return {**doc, **fields}


def _file(directory, name, doc):
    """A config or MDP file: a dict is written as JSON, bytes as they are, and a
    None makes a directory of that name."""
    path = directory / name
    if doc is None:
        path.mkdir()
    elif isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


# Inputs that once ended in a traceback or were silently changed: (argv after
# the command, the files it names, a piece of the one error line).
_REJECTED = {
    "mdp_actions_text": (("run", "gvi"), {"m.json": _mdp_doc(actions="two")}, "actions: must equal"),
    "mdp_actions_null": (("run", "gvi"), {"m.json": _mdp_doc(actions=None)}, "got None"),
    "mdp_gamma_null": (("run", "gvi"), {"m.json": _mdp_doc(gamma=None)}, "gamma: float() argument"),
    "mdp_reward_text": (("run", "gvi"), {"m.json": _mdp_doc(reward=[[0.0], ["x"]])}, "reward: could not convert"),
    "mdp_gamma_text": (("run", "gvi"), {"m.json": _mdp_doc(gamma="0.5")}, "gamma: could not convert '0.5' to float"),
    "mdp_space_bool": (
        ("run", "gvi"), {"m.json": _mdp_doc(space={"embedding": {"kind": "line", "coords": [0, True]}})},
        "space: could not convert True to float",
    ),
    "mdp_transition_ragged": (
        ("run", "gvi"), {"m.json": _mdp_doc(transition=[[[0.5, 0.5]], [[1.0]]])}, "transition: setting an array",
    ),
    "mdp_not_utf8": (("run", "gvi"), {"m.json": b'{"actions": "\xff"}'}, "'utf-8' codec can't decode"),
    "mdp_directory": (("run", "gvi"), {"m.json": None}, "Is a directory"),
    "config_directory": (("verify", "duality"), {"cfg": None}, "Is a directory"),
    "config_not_utf8": (("verify", "duality"), {"cfg": b'{"trials": "\xff"}'}, "'utf-8' codec can't decode"),
    "verify_seed_flag": (("verify", "duality", "--seed", "-1"), {}, "seed: must be at least 0, got -1"),
    "trials_fraction": (("verify", "duality"), {"cfg": {"trials": 2.7}}, "trials: must be an integer, got 2.7"),
    "trials_bool": (("verify", "duality"), {"cfg": {"trials": True}}, "trials: must be an integer, got True"),
    "in_place_text": (
        ("run", "gvi"), {"cfg": {"generator": {}, "in_place": "false"}}, "in_place: must be true or false",
    ),
    "states_fraction": (
        ("run", "gvi"), {"cfg": {"generator": {"states": 4.9}}}, "generator: states: must be an integer, got 4.9",
    ),
    "gvi_seed_flag": (("run", "gvi", "--seed", "-1"), {"cfg": {"generator": {}}}, "unknown run gvi config keys: seed"),
    "learn_seed_flag": (("run", "learn", "--seed", "-1"), {"cfg": {"generator": {}}}, "seed must be at least 0"),
    "model_rank_fraction": (
        ("run", "learn"), {"cfg": {"generator": {}, "model_rank": 2.5}}, "model_rank: must be an integer, got 2.5",
    ),
    "delta_bool": (("run", "gvi"), {"cfg": {"generator": {}, "delta": True}}, "delta: must be a number, got True"),
    "operator_number": (("run", "gvi"), {"cfg": {"generator": {}, "operator": 5}}, "operator: must be a string"),
    "mdp_path_number": (("run", "gvi"), {"cfg": {"mdp": 5}}, "mdp: must be a string, got 5"),
    "generator_text": (("run", "gvi"), {"cfg": {"generator": "states"}}, "generator: must be a JSON object"),
    "labels_string": (
        ("run", "gvi"), {"m.json": _mdp_doc(space={**_LINE, "labels": "ab"})},
        "space: labels must be a list of 2 strings, got str",
    ),
    "labels_number": (
        ("run", "gvi"), {"m.json": _mdp_doc(space={**_LINE, "labels": ["a", 1]})},
        "space: labels[1] must be a string, got 1",
    ),
    "labels_repeated": (
        ("run", "gvi"), {"m.json": _mdp_doc(space={**_LINE, "labels": ["a", "a"]})},
        "space: labels must be distinct, 'a' repeats",
    ),
    "labels_object": (
        ("run", "gvi"), {"m.json": _mdp_doc(space={**_LINE, "labels": {"a": 0, "b": 1}})},
        "space: labels must be a list of 2 strings, got dict",
    ),
}


class TestRejectedInputs:
    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_exit_2_with_one_error_line_and_no_report(self, tmp_path, capsys, case):
        argv, files, named = _REJECTED[case]
        paths = {name: _file(tmp_path, name, doc) for name, doc in files.items()}
        if "m.json" in paths:
            paths["cfg"] = _file(tmp_path, "cfg.json", {"mdp": paths["m.json"]})
        config = ("--config", paths["cfg"]) if "cfg" in paths else ()
        out = tmp_path / "out"
        assert run_cli(*argv, *config, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert named in err
        assert not out.exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("the command started its work")


class TestOutPath:
    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_file_in_the_way_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, under, given):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if under else afile
        suite = suites.SUITES["operators"]
        monkeypatch.setitem(suites.SUITES, "operators", functools.wraps(suite)(_forbidden))
        monkeypatch.setattr(cli, "gvi", _forbidden)
        argv = ("verify", "operators", "--trials", "1") if command == "verify" else ("run", "gvi")
        config = {} if command == "verify" else {"generator": {}}
        if given == "flag":
            argv += ("--out", str(out))
        else:
            config["out"] = str(out)
        code = run_cli(*argv, "--config", str(_write(tmp_path, "c.json", config)))
        assert code == 2
        assert capsys.readouterr().err == f"error: out: {afile} exists and is not a directory\n"
        assert afile.read_text() == "kept"

    def test_gen_mdp_out_under_a_file_or_a_directory_exit_2(self, tmp_path, capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        monkeypatch.setattr(cli, "generate_lipschitz_mdp", _forbidden)
        assert run_cli("gen-mdp", "--out", str(afile / "m.json")) == 2
        assert capsys.readouterr().err == f"error: out: {afile} exists and is not a directory\n"
        assert run_cli("gen-mdp", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: out: {tmp_path} is a directory, not a file\n"
        assert afile.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_empty_out_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        suite = suites.SUITES["duality"]
        monkeypatch.setitem(suites.SUITES, "duality", functools.wraps(suite)(_forbidden))
        monkeypatch.setattr(cli, "generate_lipschitz_mdp", _forbidden)
        for argv in (("verify", "duality", "--trials", "1"), ("gen-mdp",)):
            assert run_cli(*argv, "--out", "") == 2
            assert capsys.readouterr().err == "error: out: must not be empty\n"
        assert run_cli("gen-mdp", "--out", "sub/") == 2  # names a directory, even one not made yet
        assert capsys.readouterr().err == "error: out: sub/ is a directory, not a file\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_mdp_bare_file_name_goes_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-mdp", "--states", "3", "--out", "m.json") == 0
        assert load_mdp(tmp_path / "m.json").n_states == 3

    def test_sidecar_named_from_the_report_file_alone(self, tmp_path):
        out = tmp_path / "res.json"
        assert run_cli("verify", "duality", "--trials", "1", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["verify_duality.json", "verify_duality.meta.json"]

    def test_missing_directories_are_made(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert run_cli("verify", "operators", "--trials", "1", "--out", str(out)) == 0
        assert (out / "verify_operators.json").is_file()


def stretch_mdp_file(directory):
    """A 4-state line MDP whose kernel triples distances: gamma * K_W = 2.7."""
    t = np.zeros((4, 1, 4))
    t[[0, 2], 0, 0] = 1.0
    t[[1, 3], 0, 3] = 1.0
    path = directory / "stretch.json"
    save_mdp(FiniteMdp(MetricSpace.unit_line(4), np.arange(4.0).reshape(4, 1), t, 0.9), path)
    return path


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "what, settings",
        [("compare", {"kinds": ["kl"]}), ("learn", {"kind": "vaml"})],
        ids=["compare_kl", "learn_vaml"],
    )
    def test_contraction_precondition_exit_2_without_report(self, tmp_path, capsys, what, settings):
        out = tmp_path / "out"
        cfg = _write(tmp_path, "c.json", {"mdp": str(stretch_mdp_file(tmp_path)), "iters": 2, **settings})
        code = run_cli("run", what, "--config", str(cfg), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma * K_W = 2.7")
        assert err.endswith(">= 1; no finite value class bound\n")
        assert not out.exists()

    @pytest.mark.parametrize("in_place", [False, True])
    def test_overflowing_gvi_exit_1_at_the_first_non_finite_sweep(self, tmp_path, capsys, in_place):
        reward = [[1e308], [1e308], [0.0]]
        transition = [[[0.5, 0.5, 0.0]], [[0.0, 0.5, 0.5]], [[0.5, 0.0, 0.5]]]
        space = {"embedding": {"kind": "line", "coords": [0.0, 1.0, 2.0]}}
        mdp = _file(tmp_path, "m.json", _mdp_doc(space=space, reward=reward, transition=transition))
        out = tmp_path / "out"
        cfg = _write(tmp_path, "c.json", {"mdp": mdp, "in_place": in_place})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "gvi", "--config", str(cfg), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep 2 diverged: its max change is ")
        assert err.endswith(", the values overflow\n") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_lp_exit_1(self, tmp_path, capsys):
        # Distances near the largest float load, but the transport LPs of a
        # fit overflow on them.
        reward = [[0.0], [1.0], [0.5]]
        transition = [[[0.5, 0.5, 0.0]], [[0.0, 0.5, 0.5]], [[0.5, 0.0, 0.5]]]
        mdp = _file(tmp_path, "m.json", _mdp_doc(space={"dist": _HUGE}, reward=reward, transition=transition))
        out = tmp_path / "out"
        cfg = _write(tmp_path, "c.json", {"mdp": mdp, "kinds": ["kl", "wasserstein", "vaml"], "iters": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "compare", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {lp._OVERFLOW}\n"
        assert "overflowed" in lp._OVERFLOW
        assert not out.exists()

    def test_singular_basis_exit_1(self, tmp_path, capsys, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        out = tmp_path / "out"
        code = run_cli("verify", "duality", "--trials", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: final basis matrix is singular: Singular matrix\n"
        assert not out.exists()


def _load(directory, **fields):
    return load_mdp(_file(directory, "m.json", _mdp_doc(**fields)))


_HUGE = [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]]

# What a rejected object says, or None for an input that loads: (build, message).
_MESSAGES = {
    "duplicate_point": (lambda d: MetricSpace.from_matrix([[0.0, 0.0], [0.0, 0.0]]),
                        "points 0 and 1 are distinct but at distance 0.0"),
    "diagonal": (lambda d: MetricSpace.from_matrix([[0.5, 1.0], [1.0, 0.0]]), "dist[0][0] = 0.5, diagonal must be zero"),
    "asymmetric": (lambda d: MetricSpace.from_matrix([[0.0, 1.0], [2.0, 0.0]]),
                   "asymmetric distances for pair (0, 1): 1.0 vs 2.0"),
    "asymmetric_past_the_largest_float": (lambda d: MetricSpace.from_matrix([[0.0, 1e308], [-1e308, 0.0]]),
                                          "asymmetric distances for pair (0, 1): 1e+308 vs -1e+308"),
    "negative_probability": (lambda d: Distribution([1.1, -0.1]), "negative probability -0.1 at index 1"),
    "probability_sum": (lambda d: Distribution([0.6, 0.5]), "probabilities sum to 1.1, expected 1"),
    "coupling_entry": (lambda d: Coupling([[-0.1, 0.6], [0.6, -0.1]], [0.5, 0.5], [0.5, 0.5]),
                       "coupling entry -0.1 below zero"),
    "mdp_row_sum": (lambda d: FiniteMdp(MetricSpace.unit_line(2), [[0.0], [0.0]], [[[0.6, 0.5]], [[0.5, 0.5]]], 0.9),
                    "transition row for state 0, action 0 sums to 1.1"),
    "file_row_sum": (lambda d: _load(d, transition=[[[0.6, 0.5]], [[0.5, 0.5]]]),
                     "transition[0][0]: probabilities sum to 1.1"),
    "huge_distances": (lambda d: _load(d, space={"dist": _HUGE}, reward=[[0.0]] * 3, transition=[[[1.0, 0.0, 0.0]]] * 3),
                       None),
}


class TestMessages:
    @pytest.mark.parametrize("case", sorted(_MESSAGES))
    def test_no_numpy_text_and_no_warnings(self, tmp_path, case):
        build, message = _MESSAGES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                build(tmp_path)
                return
            with pytest.raises(ValueError) as info:
                build(tmp_path)
        assert "np." not in str(info.value)
        assert str(info.value) == message


def _write(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc))
    return path
