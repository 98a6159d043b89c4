import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp
from wassmdp.metric import MetricSpace, ScalarField, uniform_lipschitz_constant
from wassmdp.planner import (
    _MELLOWMAX_MEAN_CUTOFF,
    MAX,
    MEAN,
    BackupOperator,
    GviConvergenceError,
    QFunction,
    _apply_rows,
    apply_operator,
    eps_greedy,
    evaluate_policy,
    greedy_policy,
    gvi,
    mellowmax,
    operator_spec,
    parse_operator,
)
from wassmdp.suites import cell_rng


def self_loop_mdp(reward, gamma):
    space = MetricSpace.from_matrix([[0.0]])
    return FiniteMdp(space, np.array([[reward]]), np.ones((1, 1, 1)), gamma)


def chain_mdp():
    """3-state chain: action 0 stays, action 1 moves right (absorbing at the end)."""
    n = 3
    t = np.zeros((n, 2, n))
    for s in range(n):
        t[s, 0, s] = 1.0
        t[s, 1, min(s + 1, n - 1)] = 1.0
    r = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    return FiniteMdp(MetricSpace.unit_line(n), r, t, 0.9)


def naive_value_iteration(mdp, sweeps=4000):
    """Deliberately plain reimplementation used as the oracle."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(sweeps):
        v = q.max(axis=1)
        nxt = np.zeros_like(q)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                nxt[s, a] = mdp.reward[s, a] + mdp.gamma * np.dot(mdp.transition[s, a], v)
        q = nxt
    return q


def in_place_reference(mdp, op, delta, max_iter=100_000):
    """The earlier in-place loop, which re-applies the backup to the whole
    table before every cell; kept as the oracle for the incremental one."""
    n, m = mdp.n_states, mdp.n_actions
    q = np.zeros((n, m))
    for sweep in range(1, max_iter + 1):
        diff = 0.0
        q = q.copy()
        for s in range(n):
            for a in range(m):
                v_now = _apply_rows(op, q)
                new = mdp.reward[s, a] + mdp.gamma * float(mdp.transition[s, a] @ v_now)
                diff = max(diff, abs(new - q[s, a]))
                q[s, a] = new
        if diff < delta:
            return q, sweep, diff
    raise AssertionError("reference in-place GVI did not converge")


def reference_apply_rows(op, q):
    """_apply_rows as it was before its ufunc rewrite, verbatim."""
    if op.kind == "max":
        return q.max(axis=1)
    if op.kind == "mean":
        return q.mean(axis=1)
    if op.kind == "eps-greedy":
        eps = op.param
        return eps * q.mean(axis=1) + (1.0 - eps) * q.max(axis=1)
    beta = op.param
    if beta < _MELLOWMAX_MEAN_CUTOFF:
        return q.mean(axis=1)
    top = q.max(axis=1)
    out = top + np.log(np.mean(np.exp(beta * (q - top[:, None])), axis=1)) / beta
    return np.clip(out, q.min(axis=1), top)


def reference_gvi(mdp, op, delta, in_place, on_sweep, max_iter=100_000):
    """The gvi sweep loop as it was before its ufunc rewrite, verbatim, with
    reference_apply_rows for the backup; returns (q, v, sweeps, final diff)."""
    n, m = mdp.n_states, mdp.n_actions
    q = np.zeros((n, m))
    t_flat = mdp.transition.reshape(n * m, n)
    r = mdp.reward
    gamma = mdp.gamma
    diff = np.inf
    for sweep in range(1, max_iter + 1):
        if in_place:
            diff = 0.0
            q = q.copy()
            v_now = reference_apply_rows(op, q)
            for s in range(n):
                for a in range(m):
                    new = r[s, a] + gamma * float(mdp.transition[s, a] @ v_now)
                    diff = max(diff, abs(new - q[s, a]))
                    q[s, a] = new
                    v_now[s] = reference_apply_rows(op, q[s : s + 1])[0]  # only row s changed
        else:
            v_now = reference_apply_rows(op, q)
            q_next = r + gamma * (t_flat @ v_now).reshape(n, m)
            diff = float(np.abs(q_next - q).max())
            q = q_next
        on_sweep(sweep, q.copy(), diff)
        if diff < delta:
            return q, reference_apply_rows(op, q), sweep, diff
    raise AssertionError("reference GVI did not converge")


# Every operator kind: mellowmax below the mean cutoff, eps-greedy at both ends.
EVERY_KIND = (
    MAX,
    MEAN,
    eps_greedy(0.0),
    eps_greedy(0.3),
    eps_greedy(1.0),
    mellowmax(_MELLOWMAX_MEAN_CUTOFF / 2),
    mellowmax(0.1),
    mellowmax(1.0),
    mellowmax(10.0),
    mellowmax(100.0),
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOperatorConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BackupOperator("max", 0.5)
        with pytest.raises(ValueError):
            eps_greedy(1.5)
        with pytest.raises(ValueError):
            mellowmax(0.0)
        with pytest.raises(ValueError):
            BackupOperator("softmax")

    def test_parse_and_spec_round_trip(self):
        for text in ("max", "mean", "eps-greedy:0.1", "mellowmax:5"):
            assert operator_spec(parse_operator(text)) == text
        with pytest.raises(ValueError):
            parse_operator("mellowmax")
        with pytest.raises(ValueError):
            parse_operator("max:1")
        with pytest.raises(ValueError):
            parse_operator("boltzmann:1")


class TestApplyOperator:
    def test_max(self):
        assert apply_operator(MAX, [1.0, 2.0, 3.0]) == 3.0

    def test_eps_one_collapses_to_mean(self):
        x = [4.0, -1.0, 0.5]
        assert apply_operator(eps_greedy(1.0), x) == apply_operator(MEAN, x)

    def test_eps_interpolates(self):
        x = [0.0, 2.0]
        assert apply_operator(eps_greedy(0.5), x) == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)

    def test_mellowmax_constant_vector(self):
        for beta in (0.1, 1.0, 50.0, 1e-9):
            assert apply_operator(mellowmax(beta), [2.5, 2.5, 2.5]) == pytest.approx(
                2.5, abs=1e-12
            )

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            apply_operator(MAX, [])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
        st.sampled_from(["max", "mean", "eps:0.3", "mm:0.5", "mm:20"]),
    )
    def test_result_within_range(self, xs, which):
        op = {
            "max": MAX,
            "mean": MEAN,
            "eps:0.3": eps_greedy(0.3),
            "mm:0.5": mellowmax(0.5),
            "mm:20": mellowmax(20.0),
        }[which]
        out = apply_operator(op, xs)
        assert min(xs) - 1e-12 <= out <= max(xs) + 1e-12


class TestNonExpansion:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from(
            ["max", "mean", "eps:0", "eps:0.3", "eps:1", "mm:0.1", "mm:1", "mm:10", "mm:100"]
        ),
    )
    def test_pairs(self, seed, which):
        op = {
            "max": MAX,
            "mean": MEAN,
            "eps:0": eps_greedy(0.0),
            "eps:0.3": eps_greedy(0.3),
            "eps:1": eps_greedy(1.0),
            "mm:0.1": mellowmax(0.1),
            "mm:1": mellowmax(1.0),
            "mm:10": mellowmax(10.0),
            "mm:100": mellowmax(100.0),
        }[which]
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 8))
        x = rng.uniform(-10, 10, dim)
        y = rng.uniform(-10, 10, dim)
        assert abs(apply_operator(op, x) - apply_operator(op, y)) <= np.abs(x - y).max() + 1e-12


class TestRowBackupBits:
    """The ufunc row backup against the textbook form, byte for byte."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(31)
        for m in (1, 2, 3, 8, 9, 17):
            for _ in range(25):
                n = int(rng.integers(1, 12))
                yield rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(n, m))  # random
                yield rng.integers(-2, 3, size=(n, m)).astype(float)  # tied
                yield np.repeat(rng.normal(size=(n, 1)), m, axis=1)  # constant rows
                yield rng.choice([-0.0, 0.0, -1.0, 1.0], size=(n, m))  # signed zeros
        yield np.full((3, 4), -0.0)

    def test_apply_rows_matches_reference(self):
        for q in self.tables():
            for op in EVERY_KIND:
                assert same_bits(_apply_rows(op, q), reference_apply_rows(op, q)), (op, q)

    def test_apply_operator_matches_reference(self):
        for q in self.tables():
            for op in EVERY_KIND:
                for row in q:
                    got = apply_operator(op, row)
                    assert type(got) is float
                    assert same_bits(got, float(reference_apply_rows(op, row[None, :])[0]))

    def test_apply_operator_checks_unchanged(self):
        with pytest.raises(ValueError, match="empty"):
            apply_operator(MEAN, np.empty((0, 3)))
        for bad in ([1.0, np.inf], [np.nan], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                apply_operator(mellowmax(1.0), bad)


class TestSweepBits:
    @pytest.mark.parametrize("in_place", [False, True], ids=["synchronous", "in_place"])
    def test_every_sweep_matches_reference(self, in_place):
        mdps = [self_loop_mdp(0.7, 0.9)] + [
            generate_lipschitz_mdp(n, m, 0.7, 0.5, seed=seed, measure=False)
            for n, m, seed in ((4, 1, 41), (6, 3, 42), (3, 9, 43))
        ]
        for mdp in mdps:
            for op in EVERY_KIND:
                got, want = [], []
                res = gvi(mdp, op, delta=1e-10, in_place=in_place, on_sweep=lambda *a: got.append(a))
                q, v, sweeps, diff = reference_gvi(mdp, op, 1e-10, in_place, lambda *a: want.append(a))
                assert len(got) == len(want) == res.iterations == sweeps
                for (it, q_got, d_got), (it_ref, q_ref, d_ref) in zip(got, want):
                    assert it == it_ref and same_bits(q_got, q_ref) and same_bits(d_got, d_ref)
                assert same_bits(res.q.q, q) and same_bits(res.v.values, v)
                assert same_bits(res.final_diff, diff)


class TestMellowmaxLimits:
    def test_large_beta_approaches_max(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 5)
            assert apply_operator(mellowmax(1000.0), x) == pytest.approx(x.max(), abs=1e-2)

    def test_small_beta_approaches_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1, 1, 5)
            assert apply_operator(mellowmax(1e-6), x) == pytest.approx(x.mean(), abs=1e-6)

    def test_tiny_beta_routed_to_mean(self):
        x = np.array([3.0, -1.0])
        assert apply_operator(mellowmax(1e-12), x) == x.mean()


class TestGvi:
    def test_self_loop_fixed_point(self):
        for op in (MAX, MEAN, eps_greedy(0.3), mellowmax(2.0)):
            res = gvi(self_loop_mdp(0.7, 0.9), op, delta=1e-12)
            assert res.q.q[0, 0] == pytest.approx(0.7 / 0.1, abs=1e-10)

    def test_gamma_zero_gives_rewards(self):
        mdp = generate_lipschitz_mdp(5, 2, 0.0, 0.4, seed=4, measure=False)
        res = gvi(mdp, MAX)
        assert np.allclose(res.q.q, mdp.reward, atol=1e-12)
        assert res.iterations <= 3

    def test_chain_matches_naive_oracle(self):
        mdp = chain_mdp()
        res = gvi(mdp, MAX, delta=1e-12)
        assert np.abs(res.q.q - naive_value_iteration(mdp)).max() <= 1e-8

    def test_v_recomputable_from_q(self):
        mdp = generate_lipschitz_mdp(6, 3, 0.9, 0.5, seed=8, measure=False)
        for op in (MAX, MEAN, eps_greedy(0.4), mellowmax(3.0)):
            res = gvi(mdp, op)
            v = np.array([apply_operator(op, row) for row in res.q.q])
            assert np.abs(v - res.v.values).max() <= 1e-12

    def test_final_diff_below_delta(self):
        mdp = generate_lipschitz_mdp(5, 2, 0.9, 0.5, seed=10, measure=False)
        res = gvi(mdp, MAX, delta=1e-8)
        assert res.final_diff < 1e-8

    def test_contraction_envelope(self):
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.4, seed=11, measure=False)
        diffs = []
        gvi(mdp, MAX, delta=1e-11, on_sweep=lambda it, q, d: diffs.append(d))
        for prev, cur in zip(diffs[1:], diffs[2:]):
            assert cur <= mdp.gamma * prev + 1e-15

    def test_lipschitz_recursion_along_sweeps(self):
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.4, seed=13)
        kr = mdp.measured_reward_constant
        kw = mdp.measured_kernel_constant
        state = {"prev": 0.0}

        def check(_it, q, _diff):
            cols = [ScalarField(q[:, a]) for a in range(mdp.n_actions)]
            kq = uniform_lipschitz_constant(cols, mdp.space).constant
            assert kq <= kr + mdp.gamma * kw * state["prev"] + 1e-9
            state["prev"] = kq

        gvi(mdp, mellowmax(5.0), on_sweep=check)

    def test_q0_respected(self):
        mdp = self_loop_mdp(0.5, 0.9)
        res = gvi(mdp, MAX, q0=np.array([[5.0]]), delta=1e-12)
        assert res.q.q[0, 0] == pytest.approx(5.0, abs=1e-10)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_non_finite_q0_rejected_before_the_first_sweep(self, in_place):
        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=5, measure=False)
        sweeps = []
        for bad in (np.nan, np.inf):
            q0 = np.zeros((4, 2))
            q0[2, 1] = bad
            with pytest.raises(ValueError, match="q contains non-finite values"):
                gvi(mdp, MAX, q0=q0, in_place=in_place, on_sweep=lambda *args: sweeps.append(args))
        assert not sweeps
        with pytest.raises(ValueError, match="q must be 2-D"):
            gvi(mdp, MAX, q0=np.zeros(8))
        with pytest.raises(ValueError, match=r"q0 has shape \(2, 4\), expected \(4, 2\)"):
            gvi(mdp, MAX, q0=QFunction(np.zeros((2, 4))))

    def test_in_place_mode_agrees(self):
        mdp = generate_lipschitz_mdp(5, 2, 0.9, 0.5, seed=14, measure=False)
        sync = gvi(mdp, MAX, delta=1e-11)
        inplace = gvi(mdp, MAX, delta=1e-11, in_place=True)
        assert np.abs(sync.q.q - inplace.q.q).max() <= 1e-9
        assert inplace.iterations <= sync.iterations

    def test_in_place_is_bit_identical_to_full_table_backup(self):
        # m = 9 puts each row's mean past numpy's 8-element unrolled summation
        for n, m, seed in ((6, 3, 15), (5, 9, 16)):
            mdp = generate_lipschitz_mdp(n, m, 0.9, 0.5, seed=seed, measure=False)
            for op in (MAX, MEAN, eps_greedy(0.3), mellowmax(10.0)):
                q, iterations, final_diff = in_place_reference(mdp, op, 1e-10)
                res = gvi(mdp, op, delta=1e-10, in_place=True)
                assert np.array_equal(res.q.q, q)
                assert res.iterations == iterations
                assert res.final_diff == final_diff

    def test_max_iter_below_one_rejected(self):
        mdp = self_loop_mdp(1.0, 0.9)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iter: must be at least 1"):
                gvi(mdp, MAX, max_iter=bad)
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match=rf"^max_iter: must be a number, not a bool, got {re.escape(repr(bad))}$"):
                gvi(mdp, MAX, max_iter=bad)

    @pytest.mark.parametrize("delta", [0.0, -1e-10, float("inf"), float("nan"), True, np.True_])
    def test_delta_must_be_positive_and_finite(self, delta):
        rule = "a number, not a bool" if isinstance(delta, (bool, np.bool_)) else "positive and finite"
        with pytest.raises(ValueError, match=rf"^delta: must be {rule}, got {re.escape(repr(delta))}$"):
            gvi(self_loop_mdp(1.0, 0.9), MAX, delta=delta)

    def test_max_iter_exceeded_raises_with_diff(self):
        mdp = self_loop_mdp(1.0, 0.9)
        with pytest.raises(GviConvergenceError) as info:
            gvi(mdp, MAX, delta=1e-14, max_iter=3)
        assert info.value.last_diff > 0.0


class TestPolicies:
    def test_dominant_column(self):
        q = np.array([[0.0, 1.0], [0.2, 1.5], [-3.0, 0.0]])
        assert np.array_equal(greedy_policy(q), [1, 1, 1])

    def test_tie_breaks_to_lowest_index(self):
        q = np.zeros((4, 3))
        assert np.array_equal(greedy_policy(q), [0, 0, 0, 0])

    def test_random_matches_row_scan(self):
        rng = cell_rng(21, 0)
        q = rng.normal(size=(8, 4))
        expected = [int(np.flatnonzero(row == row.max())[0]) for row in q]
        assert np.array_equal(greedy_policy(QFunction(q)), expected)

    def test_evaluate_self_loop(self):
        mdp = self_loop_mdp(0.3, 0.8)
        v = evaluate_policy(mdp, [0])
        assert v.values[0] == pytest.approx(0.3 / 0.2, abs=1e-11)

    def test_evaluate_gamma_zero(self):
        mdp = generate_lipschitz_mdp(4, 2, 0.0, 0.5, seed=5, measure=False)
        policy = [1, 0, 1, 0]
        v = evaluate_policy(mdp, policy)
        assert np.allclose(v.values, mdp.reward[np.arange(4), policy], atol=1e-12)

    def test_evaluate_matches_iterative_oracle(self):
        mdp = generate_lipschitz_mdp(6, 3, 0.9, 0.4, seed=6, measure=False)
        rng = cell_rng(22, 0)
        policy = rng.integers(0, 3, size=6)
        v = evaluate_policy(mdp, policy).values
        # iterative policy evaluation run far past the requested precision
        ref = np.zeros(6)
        t_pi = mdp.transition[np.arange(6), policy]
        r_pi = mdp.reward[np.arange(6), policy]
        for _ in range(3000):
            ref = r_pi + mdp.gamma * t_pi @ ref
        assert np.abs(v - ref).max() <= 1e-12

    def test_policy_validation(self):
        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=5, measure=False)
        with pytest.raises(ValueError):
            evaluate_policy(mdp, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            evaluate_policy(mdp, [0, 1])

    @pytest.mark.parametrize("policy", [[0.9, 1.7, 0, 0], [0, 1, 0.5, 0], [0, np.nan, 0, 0]])
    def test_non_integral_policy_rejected(self, policy):
        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=5, measure=False)
        with pytest.raises(ValueError, match="policy actions must be integers"):
            evaluate_policy(mdp, policy)

    def test_integral_floats_are_the_integer_policy(self):
        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=5, measure=False)
        v = evaluate_policy(mdp, [0.0, 1.0, 0.0, 1.0]).values
        assert np.array_equal(v, evaluate_policy(mdp, [0, 1, 0, 1]).values)
        with pytest.raises(ValueError, match=r"policy actions must lie in \[0, 2\)"):
            evaluate_policy(mdp, [0, np.inf, 0, 0])
