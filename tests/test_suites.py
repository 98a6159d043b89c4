import numpy as np
import pytest

from wassmdp import suites

from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp, load_mdp, save_mdp
from wassmdp.metric import MetricSpace
from wassmdp.planner import gvi
from wassmdp.suites import (
    _default_operator_grid,
    cell_rng,
    duality_suite,
    equivalence_suite,
    lemmas_suite,
    operators_suite,
    random_distribution,
    random_metric_space,
    theorem_suite,
)


def stretch_mdp(gamma=0.9):
    """Deterministic kernel that triples distances, so gamma * K_W >= 1."""
    n = 4
    space = MetricSpace.unit_line(n)
    t = np.zeros((n, 1, n))
    t[0, 0, 0] = 1.0
    t[1, 0, 3] = 1.0
    t[2, 0, 0] = 1.0
    t[3, 0, 3] = 1.0
    return FiniteMdp(space, np.arange(float(n)).reshape(n, 1), t, gamma)


# On this draw, multiplying by 1/dist in place of dividing by dist moves the
# suite's recursion excess; most draws are blind to a one-ulp change.
SWEEP_CHECK_SEED = 24


def stay_mdp(seed):
    """One action that keeps every state in place, on random planar points.

    K_W = 1 and K(Q) grows exactly as fast as the recursion allows, so
    the per-sweep excess is pure rounding error.
    """
    rng = np.random.default_rng(seed)
    n = 7
    t = np.zeros((n, 1, n))
    t[np.arange(n), 0, np.arange(n)] = 1.0
    space = MetricSpace.grid2d(rng.uniform(0.0, 3.0, (n, 2)))
    return FiniteMdp(space, rng.uniform(-1.0, 1.0, (n, 1)), t, 0.9)


def triu_scan_constant(q, dist):
    """Uniform Lipschitz constant of the columns of q, by a double loop over i < j."""
    n = q.shape[0]
    return max(
        abs(q[i, a] - q[j, a]) / dist[i, j]
        for a in range(q.shape[1])
        for i in range(n)
        for j in range(i + 1, n)
    )


class TestSeeding:
    def test_cell_rng_order_independent(self):
        a = cell_rng(7, 3).standard_normal(4)
        cell_rng(7, 0).standard_normal(100)
        b = cell_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_cells_differ(self):
        a = cell_rng(7, 1).standard_normal(4)
        b = cell_rng(7, 2).standard_normal(4)
        assert not np.array_equal(a, b)


class TestGenerators:
    def test_random_spaces_valid(self):
        for t in range(12):
            rng = cell_rng(1, t)
            sp = random_metric_space(rng, int(rng.integers(2, 12)))
            assert np.all(np.isfinite(sp.dist))

    def test_random_distributions_valid(self):
        saw_zero = False
        for t in range(30):
            rng = cell_rng(2, t)
            d = random_distribution(rng, 8)
            saw_zero |= (d.p == 0.0).any()
        assert saw_zero  # sparse support must actually occur in the mix


class TestTheoremSuite:
    def test_precondition_excluded_cell_is_skipped_and_suite_passes(self):
        rep = theorem_suite(seed=0, trials=5, mdps=[stretch_mdp()])
        assert rep.passed
        assert len(rep.skipped) == 1
        assert rep.skipped[0]["reason"] == "gamma * K_W >= 1"
        assert rep.skipped[0]["gamma_kw"] >= 1.0

    def test_mixed_grid_runs_eligible_cells(self):
        from wassmdp.mdp import generate_lipschitz_mdp

        good = generate_lipschitz_mdp(4, 1, 0.9, 0.5, seed=1)
        rep = theorem_suite(seed=0, trials=5, mdps=[stretch_mdp(), good])
        assert rep.passed
        assert len(rep.skipped) == 1
        assert rep.worst is not None

    def test_sweep_check_equals_double_loop_recursion_exactly(self):
        mdps = [generate_lipschitz_mdp(6, 3, 0.9, 0.5, seed=7), stay_mdp(SWEEP_CHECK_SEED)]
        excess = []
        for mdp in mdps:
            kr, kw = mdp.measured_reward_constant, mdp.measured_kernel_constant
            for op in _default_operator_grid():
                prev = [0.0]

                def on_sweep(_it, q, _diff, mdp=mdp, kr=kr, kw=kw, prev=prev):
                    kq = triu_scan_constant(q, mdp.space.dist)
                    excess.append(kq - (kr + mdp.gamma * kw * prev[0]))
                    prev[0] = kq

                gvi(mdp, op, delta=1e-10, on_sweep=on_sweep)
        rep = theorem_suite(seed=0, trials=2, mdps=mdps)
        assert max(excess) > 0.0  # rounding error, so every bit of K(Q) counts
        assert rep.details["recursion_max_excess"] == max(excess)

    def test_sweep_count_and_later_sweep_slack_equal_double_loop(self):
        # On generator MDPs sweep 1 meets the recursion with equality, so
        # the excess reads 0.0; the slack of sweeps 2, 3, ... must not.
        mdps = [generate_lipschitz_mdp(6, 2, 0.9, 0.5, seed=7), generate_lipschitz_mdp(5, 3, 0.7, 0.3, seed=2)]
        sweeps, slacks = 0, []
        for mdp in mdps:
            kr, kw = mdp.measured_reward_constant, mdp.measured_kernel_constant
            for op in _default_operator_grid():
                prev = [0.0]

                def on_sweep(it, q, _diff, mdp=mdp, kr=kr, kw=kw, prev=prev):
                    nonlocal sweeps
                    kq = triu_scan_constant(q, mdp.space.dist)
                    sweeps += 1
                    if it >= 2:
                        slacks.append((kr + mdp.gamma * kw * prev[0]) - kq)
                    prev[0] = kq

                gvi(mdp, op, delta=1e-10, on_sweep=on_sweep)
        rep = theorem_suite(seed=0, trials=2, mdps=mdps)
        assert rep.details["recursion_max_excess"] == 0.0
        assert rep.details["recursion_sweeps"] == sweeps > 2 * len(_default_operator_grid())
        assert rep.details["recursion_min_slack"] == min(slacks) > 0.0

    def test_loaded_mdp_gives_the_generated_mdps_report(self, tmp_path):
        # A file carries no constants; the loaded MDP measures its own.
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.4, seed=3)
        save_mdp(mdp, tmp_path / "mdp.json")
        loaded = load_mdp(tmp_path / "mdp.json")
        rep = theorem_suite(seed=0, trials=1, mdps=[loaded]).to_json_dict()
        assert rep == theorem_suite(seed=0, trials=1, mdps=[mdp]).to_json_dict()
        assert rep["worst"]["provided"] and rep["pass"]

    def test_given_mdps_draw_no_cell_generator(self, monkeypatch):
        # A cell's generator only draws the MDP the suite generates.
        mdps = [generate_lipschitz_mdp(5, 2, 0.9, 0.4, seed=3), stretch_mdp()]
        expected = theorem_suite(seed=0, trials=2, mdps=mdps).to_json_dict()
        monkeypatch.setattr(suites, "cell_rng", None)
        assert theorem_suite(seed=0, trials=2, mdps=mdps).to_json_dict() == expected

    def test_empty_mdp_list_rejected(self, monkeypatch):
        # No MDP would mean no trial, and a pass that checked nothing.
        monkeypatch.setattr(suites, "cell_rng", None)
        with pytest.raises(ValueError, match="^mdps: must hold at least one MDP"):
            theorem_suite(seed=0, trials=5, mdps=[])

    def test_one_lipschitz_call_per_member_per_sweep(self, monkeypatch):
        # The benchmark's traced theorem run checks these two counts; the
        # calls must go through the module globals, where a tracer sees them.
        from wassmdp import metric, suites, vaml

        mdps = [generate_lipschitz_mdp(6, 3, 0.9, 0.5, seed=7), stay_mdp(SWEEP_CHECK_SEED)]
        for mdp in mdps:  # measured before counting, as generation measures
            assert mdp.measured_kernel_constant >= 0.0 and mdp.measured_reward_constant >= 0.0
        calls = {"all": 0, "in_gvi": 0}
        runs = []  # (sweeps, m) per gvi call
        measure, plan = metric.lipschitz_constant, vaml.gvi

        def counted(f, space):
            calls["all"] += 1
            if runs and runs[-1] is None:  # a gvi call is running
                calls["in_gvi"] += 1
            return measure(f, space)

        def counted_gvi(mdp, *args, **kwargs):
            runs.append(None)
            result = plan(mdp, *args, **kwargs)
            runs[-1] = (result.iterations, mdp.n_actions)
            return result

        monkeypatch.setattr(metric, "lipschitz_constant", counted)
        monkeypatch.setattr(suites, "lipschitz_constant", counted)
        monkeypatch.setattr(vaml, "lipschitz_constant", counted)
        monkeypatch.setattr(vaml, "gvi", counted_gvi)
        theorem_suite(seed=0, trials=2, mdps=mdps)
        assert len(runs) == 2 * len(_default_operator_grid())
        assert calls["in_gvi"] == sum(sweeps * m for sweeps, m in runs)
        assert calls["all"] == sum(sweeps * m + m + 1 for sweeps, m in runs)


class TestSettings:
    @pytest.mark.parametrize(
        "suite, settings, message",
        [
            ("duality", {"trials": 0}, "trials: must be at least 1, got 0"),
            ("duality", {"max_states": 1}, "max_states: must be at least 2, got 1"),
            ("equivalence", {"trials": -2}, "trials: must be at least 1, got -2"),
            ("equivalence", {"max_states": 3}, "max_states: must be at least 4, got 3"),
            ("equivalence", {"max_actions": 0}, "max_actions: must be at least 1, got 0"),
            ("theorem", {"trials": 0}, "trials: must be at least 1, got 0"),
            ("theorem", {"delta": 0.0}, "delta: must be positive and finite, got 0.0"),
            ("theorem", {"delta": -1e-10}, "delta: must be positive and finite, got -1e-10"),
            ("theorem", {"delta": float("inf")}, "delta: must be positive and finite, got inf"),
            ("theorem", {"delta": float("nan")}, "delta: must be positive and finite, got nan"),
            ("operators", {"trials": -3}, "trials: must be at least 1, got -3"),
            ("lemmas", {"trials": 0}, "trials: must be at least 1, got 0"),
            ("lemmas", {"chain_trials": 0}, "chain_trials: must be at least 1, got 0"),
            *((suite, {"seed": -1}, "seed: must be at least 0, got -1") for suite in suites.SUITES),
            ("theorem", {"recursion_tol": float("nan")}, "recursion_tol: must be finite and at least 0, got nan"),
            ("theorem", {"recursion_tol": -1e-9}, "recursion_tol: must be finite and at least 0, got -1e-09"),
            *(
                (suite, {"tol": tol}, f"tol: must be finite and at least 0, got {tol!r}")
                for suite in suites.SUITES
                for tol in (float("nan"), -1.0, float("inf"))
            ),
            # A bool is no number, though Python compares it as 0 or 1.
            *(
                (suite, {key: value}, f"{key}: must be a number, not a bool, got {value!r}")
                for suite, keys in (
                    ("duality", ("seed", "trials", "max_states", "tol")),
                    ("equivalence", ("trials", "max_states", "max_actions", "tol")),
                    ("theorem", ("trials", "delta", "tol", "recursion_tol")),
                    ("operators", ("tol",)),
                    ("lemmas", ("trials", "chain_trials", "tol")),
                )
                for key in keys
                for value in (True, np.False_)
            ),
        ],
    )
    def test_bad_setting_raises_before_any_draw(self, monkeypatch, suite, settings, message):
        def no_draws(*args):
            raise AssertionError("the suite drew a cell before checking its settings")

        monkeypatch.setattr(suites, "cell_rng", no_draws)
        with pytest.raises(ValueError) as info:
            suites.SUITES[suite](**settings)
        assert str(info.value) == message

    def test_least_settings_run(self):
        assert duality_suite(trials=1, max_states=2, tol=0.0).trials == 1
        assert equivalence_suite(trials=1, max_states=4, max_actions=1).passed
        assert lemmas_suite(trials=1, chain_trials=1).passed


class TestReports:
    def test_worst_cell_reproducible(self):
        rep = duality_suite(seed=3, trials=8, max_states=8)
        cell = rep.worst["cell"]
        rng = cell_rng(3, cell)
        n = int(rng.integers(2, 9))
        assert n == rep.worst["n"]

    def test_json_dict_has_contract_keys(self):
        rep = operators_suite(seed=1, trials=20)
        doc = rep.to_json_dict()
        for key in ("suite", "trials", "max_violation", "pass"):
            assert key in doc

    def test_lemmas_details_split_by_check(self):
        rep = lemmas_suite(seed=2, trials=15, chain_trials=15)
        for key in (
            "composition_max_excess",
            "summation_max_excess",
            "holder_pinsker_max_excess",
        ):
            assert key in rep.details

    def test_equivalence_worst_records_cell(self):
        rep = equivalence_suite(seed=4, trials=2, max_states=6)
        assert rep.passed
        assert {"cell", "n", "m", "s", "a"} <= set(rep.worst)
