"""Tests of the benchmark's own reference computations and tracer.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import tracer  # noqa: E402
from wassmdp import mdp as mdp_mod, suites, transport, vaml  # noqa: E402


def test_w1_line_closed_form_on_unsorted_points():
    # Mass 1 moves from x = 0 to x = 3, through an unsorted coordinate list.
    assert ref.w1_line([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]) == 3.0
    assert ref.w1_line([0.5, 0.5], [0.5, 0.5], [2.0, 0.0]) == 0.0
    assert ref.w1_line([0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 1.0, 2.0]) == pytest.approx(1.0)


def test_w1_line_agrees_with_highs():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 5.0, size=7))
    d = np.abs(x[:, None] - x[None, :])
    for _ in range(5):
        p, q = rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(7))
        highs = ref.highs_w1(p, q, d)
        if highs is None:
            pytest.skip("scipy is not installed")
        assert ref.w1_line(p, q, x) == pytest.approx(highs, abs=1e-9)


def test_line_coords_rejects_a_mismatched_matrix():
    x = np.array([0.0, 1.0, 3.0])
    d = np.abs(x[:, None] - x[None, :])
    assert np.array_equal(ref.line_coords(x, d), x)
    with pytest.raises(ValueError):
        ref.line_coords([0.0, 1.0, 2.0], d)


def test_lipschitz_brute_and_all_pairs_agree():
    x = np.array([0.0, 1.0, 3.0])
    d = np.abs(x[:, None] - x[None, :])
    assert ref.lipschitz_brute([0.0, 1.0, 5.0], d) == 2.0
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(6, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    v = rng.normal(size=(6, 3))
    assert ref.lipschitz_brute(v, d) == ref.lipschitz_all_pairs(v, d)


def test_backups_lie_between_mean_and_max():
    q = np.array([[0.0, 1.0, 4.0], [2.0, 2.0, 2.0]])
    assert np.array_equal(ref.backup("max", None, q), [4.0, 2.0])
    assert np.array_equal(ref.backup("mean", None, q), [5.0 / 3.0, 2.0])
    assert np.array_equal(ref.backup("eps-greedy", 0.0, q), [4.0, 2.0])
    mm = ref.backup("mellowmax", 2.0, q)
    assert 5.0 / 3.0 < mm[0] < 4.0 and mm[1] == pytest.approx(2.0)


def test_value_iteration_and_policy_evaluation():
    # Two states, two actions: action 1 moves to state 1, which pays 1 forever.
    t = np.zeros((2, 2, 2))
    t[:, 0, 0] = 1.0
    t[:, 1, 1] = 1.0
    r = np.array([[0.0, 0.0], [1.0, 1.0]])
    q = ref.value_iteration(t, r, 0.5)
    assert q == pytest.approx(np.array([[0.5, 1.0], [1.5, 2.0]]), abs=1e-11)
    assert ref.policy_evaluation(t, r, 0.5, [1, 1]) == pytest.approx([1.0, 2.0])
    assert ref.policy_evaluation(t, r, 0.5, [0, 0]) == pytest.approx([0.0, 1.0])
    assert ref.planning_gaps(t, t, r, 0.5) == [pytest.approx(0.0)]
    # A model that swaps the actions makes the greedy policy stay put.
    assert max(ref.planning_gaps(t, t[:, ::-1], r, 0.5)) == pytest.approx(1.0)


def test_kl_and_softmax():
    assert ref.kl([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == 0.0
    assert ref.kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))
    assert ref.softmax(np.zeros((2, 4)), axis=1) == pytest.approx(np.full((2, 4), 0.25))


def _wassmdp_modules():
    return [m for k, m in sys.modules.items() if k == "wassmdp" or k.startswith("wassmdp.")]


def test_tracer_replaces_every_imported_name_and_restores_it():
    originals = {
        (module, attr): getattr(sys.modules[module], attr) for module, attr, *_ in tracer.TARGETS
    }
    with tracer.Tracer():
        for (module, attr), original in originals.items():
            holders = [m.__name__ for m in _wassmdp_modules() if original in vars(m).values()]
            assert holders == [], f"{module}.{attr} still reachable from {holders}"
        # vaml holds gvi and wasserstein_dual under its own names.
        assert vaml.gvi is not originals[("wassmdp.planner", "gvi")]
        assert vaml.wasserstein_dual is not originals[("wassmdp.transport", "wasserstein_dual")]
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original


def test_spans_nest_and_self_time_excludes_children():
    rng = suites.cell_rng(0, 0)
    space = suites.random_metric_space(rng, 5, "plane")
    mu1, mu2 = suites.random_distribution(rng, 5), suites.random_distribution(rng, 5)
    with tracer.Tracer() as probe:
        transport.wasserstein_dual(mu1, mu2, space, 1.0)
        mdp_mod.kernel_lipschitz(mdp_mod.generate_lipschitz_mdp(4, 1, 0.9, 0.5, 3, measure=False))
    spans = probe.spans
    names = [s[0] for s in spans]
    assert names[:4] == ["transport.dual", "lp.build", "lp.solve", "metric.lipschitz"]
    assert all(s[3] == 0 for s in spans[1:4])
    dual = tracer.layer_table(spans)["transport.dual"]
    children = sum(s[2] - s[1] for s in spans[1:4])
    assert dual["self_s"] == pytest.approx(dual["total_s"] - children)
    metrics = tracer.layer_metrics(spans)
    assert metrics["mdp.kernel_lipschitz.row_pairs"] == 6
    assert metrics["mdp.kernel_lipschitz.primal_solves"] == tracer.count_under(
        spans, "transport.primal", "mdp.kernel_lipschitz"
    )
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _ in tracer.PER_LAYER}
