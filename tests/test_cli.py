import json

import numpy as np
import pytest

from wassmdp import cli, lp
from wassmdp.cli import main
from wassmdp.mdp import FiniteMdp, load_mdp, save_mdp
from wassmdp.metric import MetricSpace


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
        ],
        ids=["operator", "delta", "max_iter", "kind", "iters", "step_size", "model_rank", "kinds"],
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
        defaults = cli._suite_defaults(suite)
        assert {key: type(value) for key, value in defaults.items()} == types

    def test_run_learn_and_compare_keys(self):
        fit = {"iters", "step_size", "seed", "fd_epsilon", "log_every", "model_rank"}
        assert set(cli._RUN_KEYS["learn"]) == fit | {"mdp", "generator", "kind", "out"}
        assert set(cli._RUN_KEYS["compare"]) == fit | {"mdp", "generator", "kinds", "out"}
        assert len(cli._RUN_KEYS["learn"]) == len(cli._RUN_KEYS["compare"]) == len(fit) + 4


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

    def test_singular_basis_exit_1(self, tmp_path, capsys, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        out = tmp_path / "out"
        code = run_cli("verify", "duality", "--trials", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: final basis matrix is singular: Singular matrix\n"
        assert not out.exists()


def _write(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc))
    return path
