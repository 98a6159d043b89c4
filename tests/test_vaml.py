import math
from dataclasses import replace

import numpy as np
import pytest

from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp
from wassmdp.metric import MetricSpace
from wassmdp.planner import MAX, MEAN, eps_greedy, gvi, mellowmax
from wassmdp.suites import cell_rng, random_model_tensor
from wassmdp.transport import Distribution, wasserstein_primal
from wassmdp.vaml import (
    ContractionPreconditionError,
    ValueClassBound,
    holder_pinsker_bounds,
    pointwise_model_error,
    value_lipschitz_bound,
    vaml_loss,
    verify_equivalence,
    verify_value_lipschitz,
)


def rng_mdp(seed, n=5, m=2, gamma=0.9, smoothing=0.5):
    return generate_lipschitz_mdp(n, m, gamma, smoothing, seed=seed)


class TestPointwiseError:
    def test_true_model_gives_zero(self):
        mdp = rng_mdp(1)
        rng = cell_rng(40, 0)
        v = rng.normal(size=mdp.n_states)
        assert pointwise_model_error(mdp, mdp, v, 2, 1) == 0.0

    def test_constant_value_function_gives_exact_zero(self):
        mdp = rng_mdp(2)
        rng = cell_rng(41, 0)
        for _ in range(20):
            model = replace(mdp, transition=random_model_tensor(rng, mdp))
            err = pointwise_model_error(mdp, model, np.full(mdp.n_states, 3.7), 0, 0)
            assert err == 0.0

    def test_matches_direct_dot_product(self):
        mdp = rng_mdp(3)
        rng = cell_rng(42, 0)
        that = random_model_tensor(rng, mdp)
        v = rng.normal(size=mdp.n_states)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                direct = mdp.gamma * float(
                    np.dot(mdp.transition[s, a] - that[s, a], v)
                )
                assert pointwise_model_error(mdp, replace(mdp, transition=that), v, s, a) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_bad_model_row_rejected(self):
        mdp = rng_mdp(4)
        that = mdp.transition.copy()
        that[0, 0] = 0.0
        with pytest.raises(ValueError, match="transition row for state 0, action 0: probabilities sum to 0.0"):
            pointwise_model_error(mdp, replace(mdp, transition=that), np.zeros(mdp.n_states), 0, 0)


class TestCellIndices:
    @pytest.mark.parametrize(
        "s, a, message",
        [(-1, 0, r"state -1 out of range \[0, 5\)"), (5, 0, r"state 5 out of range \[0, 5\)"),
         (0, -1, r"action -1 out of range \[0, 2\)"), (0, 2, r"action 2 out of range \[0, 2\)")],
    )
    def test_every_cell_function_rejects_an_index_outside_its_range(self, s, a, message):
        mdp = rng_mdp(17)
        model = replace(mdp, transition=random_model_tensor(cell_rng(53, 0), mdp))
        v = np.zeros(mdp.n_states)
        for call in (
            lambda: mdp.transition_dist(s, a),
            lambda: vaml_loss(mdp, model, 1.0, s, a),
            lambda: pointwise_model_error(mdp, model, v, s, a),
            lambda: holder_pinsker_bounds(mdp, model, v, s, a),
        ):
            with pytest.raises(IndexError, match=message):
                call()

    def test_model_of_another_shape_rejected(self):
        mdp = rng_mdp(18)
        other = rng_mdp(18, m=1)
        v = np.zeros(mdp.n_states)
        for call in (
            lambda: vaml_loss(mdp, other, 1.0, 0, 0),
            lambda: pointwise_model_error(mdp, other, v, 0, 0),
            lambda: holder_pinsker_bounds(mdp, other, v, 0, 0),
        ):
            with pytest.raises(ValueError, match=r"model kernel shape \(5, 1, 5\) does not match \(5, 2, 5\)"):
                call()


class TestHolderPinskerChain:
    def test_true_model_all_zero(self):
        mdp = rng_mdp(5)
        out = holder_pinsker_bounds(mdp, mdp, np.ones(mdp.n_states), 0, 0)
        assert out.error == 0.0
        assert out.l1_bound == 0.0
        assert out.kl_bound == 0.0

    def test_constant_value_function_shows_slack(self):
        mdp = rng_mdp(6)
        rng = cell_rng(43, 0)
        model = replace(mdp, transition=random_model_tensor(rng, mdp))
        out = holder_pinsker_bounds(mdp, model, np.full(mdp.n_states, 2.0), 1, 0)
        assert out.error == 0.0
        assert out.l1_bound > 0.0
        assert out.kl_bound >= out.l1_bound

    def test_chain_holds_on_random_instances(self):
        for t in range(40):
            rng = cell_rng(44, t)
            mdp = rng_mdp(int(rng.integers(0, 2**31)), n=int(rng.integers(2, 8)))
            model = replace(mdp, transition=random_model_tensor(rng, mdp))
            v = rng.uniform(-3, 3, mdp.n_states)
            s = int(rng.integers(0, mdp.n_states))
            a = int(rng.integers(0, mdp.n_actions))
            err, l1, klb = holder_pinsker_bounds(mdp, model, v, s, a)
            assert err <= l1 + 1e-12
            assert l1 <= klb + 1e-12

    def test_support_violation_flagged_infinite(self):
        n = 3
        space = MetricSpace.unit_line(n)
        t = np.zeros((n, 1, n))
        t[:, 0, :] = [[0.5, 0.5, 0.0]] * n
        mdp = FiniteMdp(space, np.zeros((n, 1)), t, 0.9)
        that = np.zeros((n, 1, n))
        that[:, 0, :] = [[1.0, 0.0, 0.0]] * n
        out = holder_pinsker_bounds(mdp, replace(mdp, transition=that), np.ones(n), 0, 0)
        assert out.kl_bound == math.inf
        assert out.l1_bound < math.inf


class TestVamlLoss:
    def test_true_model_zero(self):
        mdp = rng_mdp(7)
        loss, worst = vaml_loss(mdp, mdp, 1.0, 0, 0)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_rows_give_squared_distance(self):
        n = 4
        space = MetricSpace.line([0.0, 1.0, 2.5, 4.0])
        t = np.zeros((n, 1, n))
        t[:, 0, 0] = 1.0
        that = np.zeros((n, 1, n))
        that[:, 0, 2] = 1.0
        mdp = FiniteMdp(space, np.zeros((n, 1)), t, 0.9)
        loss, _ = vaml_loss(mdp, replace(mdp, transition=that), 1.0, 0, 0)
        assert loss == pytest.approx(2.5**2, abs=1e-6)

    def test_matches_primal_route(self):
        for t in range(15):
            rng = cell_rng(45, t)
            mdp = rng_mdp(int(rng.integers(0, 2**31)), n=int(rng.integers(3, 9)))
            that = random_model_tensor(rng, mdp)
            c = float(rng.uniform(0.2, 3.0))
            s = int(rng.integers(0, mdp.n_states))
            a = int(rng.integers(0, mdp.n_actions))
            loss, _ = vaml_loss(mdp, replace(mdp, transition=that), c, s, a)
            w, _ = wasserstein_primal(
                Distribution(mdp.transition[s, a]), Distribution(that[s, a]), mdp.space
            )
            assert loss == pytest.approx((c * w) ** 2, rel=1e-6, abs=1e-12)

    def test_zero_radius_gives_zero(self):
        mdp = rng_mdp(8)
        rng = cell_rng(46, 0)
        model = replace(mdp, transition=random_model_tensor(rng, mdp))
        loss, worst = vaml_loss(mdp, model, ValueClassBound(0.0), 0, 0)
        assert loss == 0.0
        assert np.all(worst.values == 0.0)

    def test_sign_flip_preserves_squared_objective(self):
        mdp = rng_mdp(9)
        rng = cell_rng(47, 0)
        that = random_model_tensor(rng, mdp)
        loss, worst = vaml_loss(mdp, replace(mdp, transition=that), 1.5, 1, 0)
        gap_row = mdp.transition[1, 0] - that[1, 0]
        plus = float(np.dot(gap_row, worst.values)) ** 2
        minus = float(np.dot(gap_row, -worst.values)) ** 2
        assert plus == minus
        assert plus == pytest.approx(loss, rel=1e-9, abs=1e-12)

    def test_quadratic_in_radius(self):
        mdp = rng_mdp(10)
        rng = cell_rng(48, 0)
        model = replace(mdp, transition=random_model_tensor(rng, mdp))
        base, _ = vaml_loss(mdp, model, 1.0, 0, 1)
        for c in (0.5, 2.0, 7.0):
            scaled, _ = vaml_loss(mdp, model, c, 0, 1)
            assert scaled == pytest.approx(c**2 * base, rel=1e-9)

    def test_dominates_realized_value_functions(self):
        # any GVI fixed-point value function lies inside the certified ball
        mdp = rng_mdp(11)
        bound = value_lipschitz_bound(mdp)
        rng = cell_rng(49, 0)
        model = replace(mdp, transition=random_model_tensor(rng, mdp))
        for op in (MAX, MEAN, eps_greedy(0.3), mellowmax(5.0)):
            v = gvi(mdp, op).v
            for s in range(mdp.n_states):
                for a in range(mdp.n_actions):
                    err = pointwise_model_error(mdp, model, v, s, a)
                    loss, _ = vaml_loss(mdp, model, bound, s, a)
                    assert mdp.gamma**2 * err**2 <= mdp.gamma**2 * loss + 1e-9


class TestValueBound:
    def test_arithmetic(self):
        # K(R)=1, gamma=0.9, K_W=1 gives 1/(1-0.9) = 10
        mdp = rng_mdp(12)
        object.__setattr__(mdp, "measured_reward_constant", 1.0)
        object.__setattr__(mdp, "measured_kernel_constant", 1.0)
        object.__setattr__(mdp, "gamma", 0.9)
        assert value_lipschitz_bound(mdp).c == pytest.approx(10.0)

    def test_constant_rewards_give_zero(self):
        n = 4
        t = np.full((n, 1, n), 1.0 / n)
        mdp = FiniteMdp(MetricSpace.unit_line(n), np.ones((n, 1)), t, 0.9)
        assert value_lipschitz_bound(mdp).c == 0.0

    def test_matches_independent_measurement(self):
        from wassmdp.mdp import kernel_lipschitz, reward_lipschitz

        mdp = rng_mdp(13)
        expected = reward_lipschitz(mdp).constant / (
            1.0 - mdp.gamma * kernel_lipschitz(mdp).constant
        )
        assert value_lipschitz_bound(mdp).c == pytest.approx(expected, rel=1e-12)

    def test_precondition_violation_raises(self):
        # map stretching state pairs: K_W = 3, gamma 0.9 -> 2.7 >= 1
        n = 4
        space = MetricSpace.unit_line(n)
        t = np.zeros((n, 1, n))
        t[0, 0, 0] = 1.0
        t[1, 0, 3] = 1.0
        t[2, 0, 0] = 1.0
        t[3, 0, 3] = 1.0
        mdp = FiniteMdp(space, np.arange(4.0).reshape(n, 1), t, 0.9)
        with pytest.raises(ContractionPreconditionError, match=">= 1"):
            value_lipschitz_bound(mdp)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ValueClassBound(-1.0)


class TestVerifyValueLipschitz:
    def test_constant_reward_mdp(self):
        n = 4
        t = np.full((n, 2, n), 1.0 / n)
        mdp = FiniteMdp(MetricSpace.unit_line(n), np.ones((n, 2)), t, 0.9)
        chk = verify_value_lipschitz(mdp, MAX)
        assert chk.bound == 0.0
        assert chk.measured_kv == 0.0
        assert chk.passed

    def test_single_state_mdp(self):
        mdp = FiniteMdp(
            MetricSpace.from_matrix([[0.0]]), np.array([[1.0]]), np.ones((1, 1, 1)), 0.9
        )
        chk = verify_value_lipschitz(mdp, mellowmax(2.0))
        assert chk.measured_kq == 0.0
        assert chk.measured_kv == 0.0
        assert chk.passed

    def test_random_grid_all_operators(self):
        for t in range(6):
            rng = cell_rng(50, t)
            mdp = rng_mdp(int(rng.integers(0, 2**31)), n=int(rng.integers(3, 8)))
            for op in (MAX, MEAN, eps_greedy(0.3), mellowmax(10.0)):
                assert verify_value_lipschitz(mdp, op).passed


class TestVerifyEquivalence:
    def test_true_model_all_gaps_zero(self):
        mdp = rng_mdp(14)
        rep = verify_equivalence(mdp, mdp.transition, 1.0)
        assert rep.max_gap == pytest.approx(0.0, abs=1e-12)

    def test_radius_scaling_squares(self):
        mdp = rng_mdp(15)
        rng = cell_rng(51, 0)
        that = random_model_tensor(rng, mdp)
        r1 = verify_equivalence(mdp, that, 1.0)
        r2 = verify_equivalence(mdp, that, 2.0)
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c2.vaml == pytest.approx(4.0 * c1.vaml, rel=1e-9, abs=1e-12)
            assert c2.wasserstein == pytest.approx(c1.wasserstein, abs=1e-9)

    def test_random_pairs_within_relative_tolerance(self):
        for t in range(8):
            rng = cell_rng(52, t)
            mdp = rng_mdp(int(rng.integers(0, 2**31)), n=int(rng.integers(3, 9)))
            that = random_model_tensor(rng, mdp)
            c = value_lipschitz_bound(mdp).c
            rep = verify_equivalence(mdp, that, c)
            for cell in rep.cells:
                assert cell.gap <= 1e-6 * (1.0 + cell.vaml)

    def test_each_model_row_is_validated_once(self, monkeypatch):
        mdp = rng_mdp(19, n=6)
        that = random_model_tensor(cell_rng(54, 0), mdp)
        built = []
        check = Distribution.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Distribution, "__post_init__", counting)
        verify_equivalence(mdp, that, 1.0)
        assert len(built) == 12

    def test_report_serialization(self, tmp_path):
        mdp = rng_mdp(16, n=3, m=1)
        rep = verify_equivalence(mdp, mdp.transition, 1.0)
        doc = rep.to_json_dict()
        assert doc["max_gap"] == rep.max_gap
        assert len(doc["cells"]) == 3
        path = tmp_path / "cells.csv"
        rep.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "s,a,vaml,wasserstein,c,gap"
