import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wassmdp import lp, transport
from wassmdp.metric import MetricSpace, lipschitz_constant
from wassmdp.suites import cell_rng, random_distribution, random_metric_space
from wassmdp.transport import (
    CertificateError,
    Coupling,
    Distribution,
    DualPotential,
    SinkhornConvergenceError,
    SupportViolationError,
    kl_divergence,
    sinkhorn,
    wasserstein_dual,
    wasserstein_primal,
)


def line_w1_oracle(mu1, mu2, coords):
    """W1 on the line is the integral of |CDF1 - CDF2|."""
    order = np.argsort(coords)
    x = np.asarray(coords, dtype=float)[order]
    cdf_gap = np.cumsum(mu1.p[order] - mu2.p[order])
    return float(np.sum(np.abs(cdf_gap[:-1]) * np.diff(x)))


class TestDistribution:
    def test_valid(self):
        d = Distribution([0.25, 0.75])
        assert d.n == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution([-0.1, 1.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution([0.5, 0.4])

    def test_point_mass_uniform_weights(self):
        assert Distribution.point_mass(3, 1).p[1] == 1.0
        assert Distribution.uniform(4).p[0] == 0.25


class TestCoupling:
    def test_marginals_enforced(self):
        with pytest.raises(ValueError, match="marginals"):
            Coupling(np.eye(2) * 0.5, np.array([0.9, 0.1]), np.array([0.5, 0.5]))

    def test_negative_entry_rejected(self):
        plan = np.array([[0.6, -0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="zero"):
            Coupling(plan, np.array([0.5, 0.5]), np.array([0.6, 0.4]))


class TestPrimal:
    def test_identical_distributions_cost_zero_diagonal_plan(self):
        sp = MetricSpace.unit_line(4)
        mu = Distribution([0.4, 0.1, 0.3, 0.2])
        cost, plan = wasserstein_primal(mu, mu, sp)
        assert cost == 0.0
        assert np.allclose(plan.plan, np.diag(mu.p), atol=1e-12)

    def test_point_masses_cost_is_distance(self):
        sp = MetricSpace.line([0.0, 1.3, 2.9])
        cost, plan = wasserstein_primal(
            Distribution.point_mass(3, 0), Distribution.point_mass(3, 2), sp
        )
        assert cost == pytest.approx(2.9, abs=1e-12)
        assert plan.plan[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_shift_on_line(self):
        sp = MetricSpace.unit_line(3)
        cost, _ = wasserstein_primal(
            Distribution([0.5, 0.5, 0.0]), Distribution([0.0, 0.5, 0.5]), sp
        )
        assert cost == pytest.approx(1.0, abs=1e-9)

    def test_matches_line_cdf_oracle(self):
        for t in range(25):
            rng = cell_rng(314, t)
            n = int(rng.integers(2, 12))
            coords = np.cumsum(rng.uniform(0.05, 1.0, n))
            sp = MetricSpace.line(coords)
            mu1 = random_distribution(rng, n)
            mu2 = random_distribution(rng, n)
            cost, _ = wasserstein_primal(mu1, mu2, sp)
            assert cost == pytest.approx(line_w1_oracle(mu1, mu2, coords), abs=1e-9)

    def test_symmetry(self):
        for t in range(10):
            rng = cell_rng(99, t)
            n = int(rng.integers(2, 10))
            sp = random_metric_space(rng, n)
            mu1 = random_distribution(rng, n)
            mu2 = random_distribution(rng, n)
            ab, _ = wasserstein_primal(mu1, mu2, sp)
            ba, _ = wasserstein_primal(mu2, mu1, sp)
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_triangle_inequality(self):
        for t in range(10):
            rng = cell_rng(271, t)
            n = int(rng.integers(2, 9))
            sp = random_metric_space(rng, n)
            mus = [random_distribution(rng, n) for _ in range(3)]
            w01, _ = wasserstein_primal(mus[0], mus[1], sp)
            w12, _ = wasserstein_primal(mus[1], mus[2], sp)
            w02, _ = wasserstein_primal(mus[0], mus[2], sp)
            assert w02 <= w01 + w12 + 1e-8

    def test_dimension_mismatch(self):
        sp = MetricSpace.unit_line(3)
        with pytest.raises(ValueError, match="points"):
            wasserstein_primal(Distribution([0.5, 0.5]), Distribution.uniform(3), sp)


class TestDual:
    def test_lp_answer_failing_its_check_is_a_certificate_error(self):
        # Planar points scaled by 2**-25: the dual LP's own potential comes
        # back steeper than the bound allows, and the check says so.
        rng = cell_rng(5, 20)
        n = int(rng.integers(4, 12))
        space = MetricSpace.grid2d(rng.uniform(0.0, 3.0, (n, 2)) * 2.0**-25)
        draws = cell_rng(5, 1020)
        mu1, mu2 = random_distribution(draws, n), random_distribution(draws, n)
        with pytest.raises(CertificateError, match="potential has Lipschitz constant 1.00000838") as info:
            wasserstein_dual(mu1, mu2, space, 1.0)
        assert isinstance(info.value, ArithmeticError)
        assert str(info.value).startswith("transport dual LP answer: ")

    def test_identical_distributions_value_zero(self):
        sp = MetricSpace.unit_line(3)
        mu = Distribution([0.2, 0.5, 0.3])
        value, _ = wasserstein_dual(mu, mu, sp, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_forced_potential(self):
        sp = MetricSpace.line([0.0, 2.5])
        value, pot = wasserstein_dual(
            Distribution.point_mass(2, 0), Distribution.point_mass(2, 1), sp, 1.0
        )
        assert value == pytest.approx(2.5, abs=1e-9)
        f = pot.f.values
        assert abs(f[0] - f[1]) == pytest.approx(2.5, abs=1e-9)

    def test_scaling_in_bound(self):
        rng = cell_rng(55, 0)
        sp = random_metric_space(rng, 7)
        mu1 = random_distribution(rng, 7)
        mu2 = random_distribution(rng, 7)
        base, _ = wasserstein_dual(mu1, mu2, sp, 1.0)
        for c in (0.5, 2.0, 10.0):
            scaled, _ = wasserstein_dual(mu1, mu2, sp, c)
            assert scaled == pytest.approx(c * base, abs=1e-6 * (1.0 + c))

    def test_power_of_two_scaling_is_exact(self):
        # Scaling every distance by 2^k scales each cost, bound and value of
        # both LPs without rounding, so all three results scale exactly.
        for t in range(30):
            rng = cell_rng(56, t)
            n = 3 + t % 8
            sp = random_metric_space(rng, n, "plane")
            mu1, mu2 = random_distribution(rng, n), random_distribution(rng, n)
            primal, _ = wasserstein_primal(mu1, mu2, sp)
            dual, pot = wasserstein_dual(mu1, mu2, sp, 1.0)
            pts = np.array(sp.embedding["coords"])
            for k in (-10, -3, 1, 3, 10, 20):
                scale = 2.0**k
                scaled = MetricSpace.grid2d(pts * scale)
                assert wasserstein_primal(mu1, mu2, scaled)[0] == scale * primal, (t, k)
                value, potential = wasserstein_dual(mu1, mu2, scaled, 1.0)
                assert value == scale * dual, (t, k)
                assert np.array_equal(potential.f.values, scale * pot.f.values), (t, k)

    def test_nonpositive_bound_rejected(self):
        sp = MetricSpace.unit_line(2)
        mu = Distribution.uniform(2)
        with pytest.raises(ValueError, match="c_bound"):
            wasserstein_dual(mu, mu, sp, 0.0)

    def test_potential_respects_its_bound(self):
        for t in range(15):
            rng = cell_rng(1234, t)
            n = int(rng.integers(2, 12))
            sp = random_metric_space(rng, n)
            mu1 = random_distribution(rng, n)
            mu2 = random_distribution(rng, n)
            c = float(rng.uniform(0.3, 4.0))
            _, pot = wasserstein_dual(mu1, mu2, sp, c)
            assert lipschitz_constant(pot.f, sp).constant <= c + 1e-9

    def test_duality_gap(self):
        for t in range(30):
            rng = cell_rng(2024, t)
            n = int(rng.integers(2, 15))
            sp = random_metric_space(rng, n)
            mu1 = random_distribution(rng, n)
            mu2 = random_distribution(rng, n)
            primal, _ = wasserstein_primal(mu1, mu2, sp)
            dual, _ = wasserstein_dual(mu1, mu2, sp, 1.0)
            assert abs(primal - dual) <= 1e-6


def test_dual_lp_memory_stays_near_one_tableau():
    # The n = 20 dual has k = n - 1 structural columns and m pair and box
    # rows; its dense tableau is (m + 1) x (k + m + 1) floats.  The solver
    # may hold that tableau and one scratch buffer of the same size.
    n = 20
    rng = np.random.default_rng(3)
    space = random_metric_space(rng, n, "plane")
    mu1 = random_distribution(rng, n, allow_zeros=False)
    mu2 = random_distribution(rng, n, allow_zeros=False)
    k, m = n - 1, (n - 1) * (n - 2) + (n - 1)
    tableau_bytes = (m + 1) * (k + m + 1) * 8
    tracemalloc.start()
    try:
        wasserstein_dual(mu1, mu2, space, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * tableau_bytes


@pytest.mark.parametrize("n", [20, 30])
def test_block_pivots_match_dense_pivots_bytewise(n, monkeypatch):
    # lp._pivot updates only the nonzero block of tableaux from
    # lp._BLOCK_MIN_SIZE elements on; a gate of 0 forces that path on every
    # pivot and a gate above any tableau forces the dense update.
    rng = np.random.default_rng(100 + n)
    space = random_metric_space(rng, n, "plane")
    mu1 = random_distribution(rng, n, allow_zeros=False)
    mu2 = random_distribution(rng, n)
    solve = lp.solve_lp

    def run(gate):
        # The second run must pivot through phase 1 itself, not reuse the first's.
        lp.clear_memo()
        pivots = []

        def recording_solve(problem):
            sol = solve(problem)
            assert not sol.phase1_reused
            pivots.append(sol.pivots)
            return sol

        monkeypatch.setattr(lp, "_BLOCK_MIN_SIZE", gate)
        monkeypatch.setattr(lp, "solve_lp", recording_solve)
        cost, plan = wasserstein_primal(mu1, mu2, space)
        value, potential = wasserstein_dual(mu1, mu2, space, 1.0)
        numbers = (np.float64(cost), plan.plan, np.float64(value), potential.f.values)
        return [a.tobytes() for a in numbers], pivots

    block, dense = run(0), run(2**62)
    assert block == dense
    assert all(sum(counts) > n for counts in dense[1])


def test_lp_inputs_match_the_per_call_construction():
    # The cached constraint arrays must hand solve_lp the very bytes that
    # building them on every call did.
    recorded = []
    solve = lp.solve_lp

    def record(problem):
        recorded.append(problem)
        return solve(problem)

    lp.solve_lp = record
    try:
        for n in range(2, 16):
            rng = cell_rng(17, n)
            space = random_metric_space(rng, n)
            mu1, mu2 = random_distribution(rng, n), random_distribution(rng, n)
            recorded.clear()
            wasserstein_primal(mu1, mu2, space)
            wasserstein_dual(mu1, mu2, space, 1.5)
            primal, dual = recorded
            marginals = np.vstack([np.repeat(np.eye(n), n, axis=1), np.tile(np.eye(n), n)])
            old = lp.LpProblem(-space.dist.ravel(), marginals, (lp.EQ,) * (2 * n),
                               np.concatenate([mu1.p, mu2.p]), lower=0.0)
            s1, s2 = np.nonzero(~np.eye(n - 1, dtype=bool))
            rows = np.arange(s1.shape[0])
            pairs = np.zeros((s1.shape[0], n - 1))
            pairs[rows, s1] = 1.0
            pairs[rows, s2] = -1.0
            reach = 1.5 * space.dist[0, 1:]
            old_dual = lp.LpProblem((mu1.p - mu2.p)[1:], pairs, (lp.LEQ,) * rows.shape[0],
                                    1.5 * space.dist[1:, 1:][s1, s2], -reach, reach)
            for new, want in ((primal, old), (dual, old_dual)):
                for name in ("objective", "A", "relations", "rhs", "lower", "upper"):
                    got, expected = getattr(new, name), getattr(want, name)
                    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                    assert got.tobytes() == expected.tobytes()
    finally:
        lp.solve_lp = solve
    for build in (transport._primal_constraints, transport._dual_constraints):
        assert all(not a.flags.writeable for a in build(6))


def test_dual_potential_invariant_enforced():
    sp = MetricSpace.unit_line(3)
    with pytest.raises(ValueError, match="Lipschitz"):
        DualPotential(np.array([0.0, 5.0, 0.0]), 1.0, sp)


class TestKl:
    def test_identical_is_zero(self):
        mu = Distribution([0.3, 0.7])
        assert kl_divergence(mu, mu) == 0.0

    def test_single_surviving_term(self):
        val = kl_divergence(Distribution([1.0, 0.0]), Distribution([0.5, 0.5]))
        assert val == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_term_oracle(self):
        val = kl_divergence(Distribution([0.3, 0.7]), Distribution([0.6, 0.4]))
        expected = 0.3 * np.log(0.3 / 0.6) + 0.7 * np.log(0.7 / 0.4)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_support_violation_raises(self):
        with pytest.raises(SupportViolationError, match="infinite"):
            kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))

    def test_zero_against_zero_allowed(self):
        val = kl_divergence(Distribution([1.0, 0.0]), Distribution([1.0, 0.0]))
        assert val == 0.0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_nonnegative_and_pinsker(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        mu1 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, n)))
        mu2 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, n)))
        kl = kl_divergence(mu1, mu2)
        assert kl >= 0.0
        assert np.abs(mu1.p - mu2.p).sum() <= np.sqrt(2.0 * kl) + 1e-9


class TestSinkhorn:
    def test_identical_distributions_entropy_bound(self):
        sp = MetricSpace.unit_line(5)
        mu = Distribution([0.1, 0.2, 0.3, 0.2, 0.2])
        # tol is a marginal tolerance, not a value tolerance: the plain
        # alternating iteration has a slow tail at moderate eps, while the
        # cost settles orders of magnitude earlier.
        costs = [sinkhorn(mu, mu, sp, eps, tol=1e-6) for eps in (5e-1, 1e-2, 1e-3)]
        for eps, cost in zip((5e-1, 1e-2, 1e-3), costs):
            assert 0.0 <= cost <= eps * 2.0 * np.log(5.0) + 1e-12
        assert costs[-1] <= costs[0]

    def test_point_masses_exact(self):
        sp = MetricSpace.line([0.0, 1.7, 4.0])
        cost = sinkhorn(
            Distribution.point_mass(3, 0), Distribution.point_mass(3, 2), sp, 1e-4
        )
        assert cost == pytest.approx(4.0, abs=1e-6)

    def test_matches_primal_at_small_epsilon(self):
        for t in range(5):
            rng = cell_rng(808, t)
            sp = random_metric_space(rng, 10)
            mu1 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, 10)))
            mu2 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, 10)))
            w, _ = wasserstein_primal(mu1, mu2, sp)
            approx = sinkhorn(mu1, mu2, sp, 1e-3, tol=1e-8)
            assert approx == pytest.approx(w, abs=1e-3)

    def test_asymmetric_sparse_supports(self):
        # one-point source against a dense target; zero-mass points are
        # dropped internally rather than smoothed by the caller
        rng = cell_rng(809, 0)
        sp = random_metric_space(rng, 8)
        mu1 = Distribution.point_mass(8, 3)
        mu2 = Distribution(rng.dirichlet(np.ones(8)))
        w, _ = wasserstein_primal(mu1, mu2, sp)
        approx = sinkhorn(mu1, mu2, sp, 1e-3, tol=1e-8)
        assert approx == pytest.approx(w, abs=1e-3)

    def test_budget_exhaustion_raises_with_violation(self):
        rng = cell_rng(7, 0)
        sp = random_metric_space(rng, 6)
        mu1 = Distribution(rng.dirichlet(np.ones(6)))
        mu2 = Distribution(rng.dirichlet(np.ones(6)))
        with pytest.raises(SinkhornConvergenceError) as info:
            sinkhorn(mu1, mu2, sp, 1e-4, max_iter=3, tol=1e-12)
        assert info.value.marginal_violation >= 0.0

    def test_bad_epsilon_rejected(self):
        sp = MetricSpace.unit_line(2)
        mu = Distribution.uniform(2)
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn(mu, mu, sp, 0.0)
