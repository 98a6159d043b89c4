import json
from dataclasses import replace

import numpy as np
import pytest

from wassmdp.mdp import (
    FiniteMdp,
    MdpFormatError,
    generate_lipschitz_mdp,
    kernel_lipschitz,
    load_mdp,
    reward_lipschitz,
    save_mdp,
)
from wassmdp.metric import MetricSpace, lipschitz_constant, uniform_lipschitz_constant
from wassmdp.suites import cell_rng
from wassmdp.transport import Distribution, wasserstein_primal


def uniform_kernel_mdp(n=4, m=2, gamma=0.9):
    t = np.full((n, m, n), 1.0 / n)
    return FiniteMdp(MetricSpace.unit_line(n), np.zeros((n, m)), t, gamma)


def deterministic_kernel(space, g, gamma=0.9, reward=None):
    n = space.n
    t = np.zeros((n, 1, n))
    t[np.arange(n), 0, g] = 1.0
    r = np.zeros((n, 1)) if reward is None else reward
    return FiniteMdp(space, r, t, gamma)


class TestFiniteMdpValidation:
    def test_row_sum_checked(self):
        t = np.full((2, 1, 2), 0.4)
        with pytest.raises(ValueError, match="transition row for state 0, action 0: probabilities sum to 0.8"):
            FiniteMdp(MetricSpace.unit_line(2), np.zeros((2, 1)), t, 0.9)

    def test_negative_probability_checked(self):
        t = np.array([[[1.2, -0.2]], [[0.5, 0.5]]])
        with pytest.raises(ValueError, match="transition row for state 0, action 0: negative probability -0.2"):
            FiniteMdp(MetricSpace.unit_line(2), np.zeros((2, 1)), t, 0.9)

    def test_gamma_range(self):
        t = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValueError, match="gamma"):
            FiniteMdp(MetricSpace.unit_line(2), np.zeros((2, 1)), t, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            FiniteMdp(
                MetricSpace.unit_line(2), np.zeros((2, 1)), np.full((2, 2, 2), 0.5), 0.9
            )


class TestRewardLipschitz:
    def test_constant_rewards(self):
        mdp = uniform_kernel_mdp()
        assert reward_lipschitz(mdp).constant == 0.0

    def test_state_index_reward(self):
        n = 5
        r = np.arange(float(n)).reshape(n, 1)
        mdp = FiniteMdp(MetricSpace.unit_line(n), r, np.full((n, 1, n), 1.0 / n), 0.9)
        assert reward_lipschitz(mdp).constant == 1.0

    def test_random_matches_per_column_oracle(self):
        rng = cell_rng(1, 0)
        r = rng.normal(size=(5, 3))
        space = MetricSpace.unit_line(5)
        mdp = FiniteMdp(space, r, np.full((5, 3, 5), 0.2), 0.9)
        expected = max(lipschitz_constant(r[:, a], space).constant for a in range(3))
        rep = reward_lipschitz(mdp)
        assert rep.constant == expected
        assert rep.family_index is not None


class TestKernelLipschitz:
    def test_state_independent_kernel(self):
        assert kernel_lipschitz(uniform_kernel_mdp()).constant == 0.0

    def test_deterministic_kernel_equals_map_constant(self):
        rng = cell_rng(2, 0)
        n = 6
        space = MetricSpace.unit_line(n)
        # random 1-Lipschitz map built as a clipped walk
        g = np.clip(2 + np.concatenate(([0], np.cumsum(rng.integers(-1, 2, n - 1)))), 0, n - 1)
        mdp = deterministic_kernel(space, g)
        expected = lipschitz_constant(g.astype(float), space).constant
        rep = kernel_lipschitz(mdp)
        assert rep.constant == pytest.approx(expected, abs=1e-9)

    def test_random_kernel_matches_plain_double_loop(self):
        # independent recomputation without the pair cache
        rng = cell_rng(3, 0)
        n, m = 5, 2
        t = rng.dirichlet(np.ones(n), size=(n, m))
        space = MetricSpace.unit_line(n)
        mdp = FiniteMdp(space, np.zeros((n, m)), t, 0.9)
        best = 0.0
        for a in range(m):
            for s1 in range(n):
                for s2 in range(n):
                    if s1 == s2:
                        continue
                    w, _ = wasserstein_primal(
                        Distribution(t[s1, a]), Distribution(t[s2, a]), space
                    )
                    best = max(best, w / space.dist[s1, s2])
        rep = kernel_lipschitz(mdp)
        assert rep.constant == pytest.approx(best, abs=1e-9)
        a, (s1, s2) = rep.witness
        w, _ = wasserstein_primal(Distribution(t[s1, a]), Distribution(t[s2, a]), space)
        assert rep.constant == pytest.approx(w / space.dist[s1, s2], abs=1e-9)

    def test_invariant_under_metric_preserving_permutation(self):
        rng = cell_rng(4, 0)
        n, m = 6, 2
        t = rng.dirichlet(np.ones(n), size=(n, m))
        space = MetricSpace.unit_line(n)
        mdp = FiniteMdp(space, np.zeros((n, m)), t, 0.9)
        # reversing the line preserves all pairwise distances
        perm = np.arange(n)[::-1]
        t_perm = t[perm][:, :, perm]
        mdp_perm = FiniteMdp(space, np.zeros((n, m)), t_perm, 0.9)
        assert kernel_lipschitz(mdp_perm).constant == pytest.approx(
            kernel_lipschitz(mdp).constant, abs=1e-9
        )


class TestKernelExpectationLemma:
    def test_expectation_operator_is_kernel_smooth(self):
        # for K(f) <= 1, s -> sum_s' T(s'|s,a) f(s') is K_W-Lipschitz
        checked = 0
        for t in range(10):
            rng = cell_rng(5, t)
            mdp = generate_lipschitz_mdp(
                int(rng.integers(3, 8)), int(rng.integers(1, 3)), 0.9,
                float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 2**31)),
            )
            kw = mdp.measured_kernel_constant
            for _ in range(10):
                f = rng.normal(size=mdp.n_states)
                kf = lipschitz_constant(f, mdp.space).constant
                if kf > 0:
                    f = f * (rng.uniform(0.0, 1.0) / kf)
                fields = [mdp.transition[:, a, :] @ f for a in range(mdp.n_actions)]
                measured = uniform_lipschitz_constant(fields, mdp.space).constant
                assert measured <= kw + 1e-9
                checked += 1
        assert checked >= 100


class TestGenerator:
    def test_uniform_smoothing_kills_kernel_constant(self):
        mdp = generate_lipschitz_mdp(5, 2, 0.9, 1.0, seed=0)
        assert mdp.measured_kernel_constant == 0.0

    def test_same_seed_bitwise_identical(self):
        a = generate_lipschitz_mdp(6, 2, 0.9, 0.4, seed=12)
        b = generate_lipschitz_mdp(6, 2, 0.9, 0.4, seed=12)
        assert np.array_equal(a.reward, b.reward)
        assert np.array_equal(a.transition, b.transition)
        assert a.measured_kernel_constant == b.measured_kernel_constant

    def test_smoothing_caps_identity_kernel(self):
        base = generate_lipschitz_mdp(6, 1, 0.9, 0.0, seed=7, base="identity")
        mixed = generate_lipschitz_mdp(6, 1, 0.9, 0.5, seed=7, base="identity")
        assert base.measured_kernel_constant == pytest.approx(1.0, abs=1e-9)
        assert mixed.measured_kernel_constant <= 0.5 * base.measured_kernel_constant + 1e-9

    def test_reward_target_hit(self):
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.3, seed=3, reward_lipschitz_target=2.5)
        assert mdp.measured_reward_constant == pytest.approx(2.5, rel=1e-12)

    def test_space_variants(self):
        for kind in ("circle", "grid2d"):
            mdp = generate_lipschitz_mdp(5, 1, 0.9, 0.5, seed=1, space_kind=kind)
            assert mdp.n_states == 5
            assert mdp.measured_kernel_constant is not None

    def test_each_true_row_is_validated_once(self, monkeypatch):
        built = []
        check = Distribution.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Distribution, "__post_init__", counting)
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.4, 0)
        rows = [mdp.transition_dist(s, a) for s in range(6) for a in range(2)]
        assert len(built) == 12
        assert {id(row) for row in rows} == {id(d) for d in built}

    def test_a_replaced_kernel_measures_its_own_constant(self):
        mdp = generate_lipschitz_mdp(6, 2, 0.9, 0.4, 0)
        assert mdp.measured_kernel_constant == pytest.approx(0.6, abs=1e-9)
        uniform = replace(mdp, transition=np.full((6, 2, 6), 1.0 / 6))
        assert uniform.measured_kernel_constant == 0.0
        assert uniform.measured_reward_constant == mdp.measured_reward_constant

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            generate_lipschitz_mdp(1, 1, 0.9, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_lipschitz_mdp(4, 1, 0.9, 1.5, seed=0)


class TestPersistence:
    def test_round_trip_full_precision(self, tmp_path):
        mdp = generate_lipschitz_mdp(5, 2, 0.93, 0.4, seed=9)
        path = tmp_path / "model.json"
        save_mdp(mdp, path)
        back = load_mdp(path)
        assert np.array_equal(back.reward, mdp.reward)
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.space.dist, mdp.space.dist)
        assert back.gamma == mdp.gamma

    def test_round_trip_matrix_space(self, tmp_path):
        rng = cell_rng(77, 0)
        d = rng.uniform(0.2, 1.0, size=(4, 4))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        for k in range(4):
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
        space = MetricSpace.from_matrix(d, labels=["a", "b", "c", "d"])
        t = rng.dirichlet(np.ones(4), size=(4, 1))
        mdp = FiniteMdp(space, rng.normal(size=(4, 1)), t, 0.85)
        path = tmp_path / "matrix_space.json"
        save_mdp(mdp, path)
        back = load_mdp(path)
        assert np.array_equal(back.space.dist, mdp.space.dist)
        assert back.space.labels == ("a", "b", "c", "d")
        assert np.array_equal(back.transition, mdp.transition)

    def test_bad_row_sum_names_cell(self, tmp_path):
        mdp = generate_lipschitz_mdp(3, 1, 0.9, 0.5, seed=2)
        path = tmp_path / "model.json"
        save_mdp(mdp, path)
        doc = json.loads(path.read_text())
        doc["transition"][2][0] = [0.3, 0.3, 0.3]
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError, match=r"transition\[2\]\[0\]"):
            load_mdp(path)

    def test_asymmetric_space_names_pair(self, tmp_path):
        path = tmp_path / "model.json"
        doc = {
            "space": {"n": 2, "dist": [[0.0, 1.0], [2.0, 0.0]]},
            "actions": 1,
            "gamma": 0.9,
            "reward": [[0.0], [0.0]],
            "transition": [[[0.5, 0.5]], [[0.5, 0.5]]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError, match=r"space: .*\(0, 1\)"):
            load_mdp(path)

    def test_near_miss_row_renormalized(self, tmp_path):
        path = tmp_path / "model.json"
        row = [0.5 + 4e-10, 0.5]
        doc = {
            "space": {"embedding": {"kind": "line", "coords": [0.0, 1.0]}},
            "actions": 1,
            "gamma": 0.9,
            "reward": [[0.0], [0.0]],
            "transition": [[row], [[0.5, 0.5]]],
        }
        path.write_text(json.dumps(doc))
        mdp = load_mdp(path)
        assert abs(mdp.transition[0, 0].sum() - 1.0) <= 1e-12

    def test_near_miss_rows_keep_the_row_by_row_bits(self, tmp_path):
        # Rows long enough for numpy's pairwise summation, some exact and some
        # off by up to 9e-10; the reference is the row-by-row loop load_mdp had.
        rng = cell_rng(91, 0)
        n, m = 150, 2
        t = rng.dirichlet(np.ones(n), size=(n, m))
        t *= 1.0 + rng.uniform(-9e-10, 9e-10, size=(n, m, 1)) * (rng.random((n, m, 1)) < 0.5)
        mdp = FiniteMdp(MetricSpace.unit_line(n), np.zeros((n, m)), np.full((n, m, n), 1.0 / n), 0.9)
        path = tmp_path / "model.json"
        save_mdp(mdp, path)
        doc = json.loads(path.read_text())
        doc["transition"] = t.tolist()
        path.write_text(json.dumps(doc))
        expected = t.copy()
        for s in range(n):
            for a in range(m):
                total = t[s, a].sum()
                if abs(total - 1.0) > 1e-12:
                    expected[s, a] = t[s, a] / total
        assert load_mdp(path).transition.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gamma": 1.0}, "gamma must be in [0, 1), got 1.0"),
            ({"reward": [[0.0], [float("nan")]]}, "reward matrix contains non-finite entries"),
            ({"reward": [[0.0, 0.0], [0.0, 0.0]]}, "transition must have shape (2, 2, 2), got (2, 1, 2)"),
            ({"transition": [[[1.5, -0.5]], [[0.5, 0.5]]]}, "transition row for state 0, action 0: negative probability"),
            ({"actions": 2}, "actions: must equal the reward's 1 columns, got 2"),
            ({"actions": True}, "actions: must equal the reward's 1 columns, got True"),
            ({"gamma": "high"}, "gamma: could not convert string to float: 'high'"),
            ({"space": {"embedding": {"kind": "line", "coords": None}}}, "space: "),
            # numpy would read "1.5" as 1.5 and true as 1.0; the file must say 1.5 or 1.
            ({"reward": [[0.0], ["1.5"]]}, "reward: could not convert '1.5' to float"),
            ({"reward": [[True], [0.0]]}, "reward: could not convert True to float"),
            ({"transition": [[["0.5", 0.5]], [[0.5, 0.5]]]}, "transition: could not convert '0.5' to float"),
            ({"transition": [[[0.5, 0.5]], [[False, True]]]}, "transition: could not convert False to float"),
            # float() would read false as 0.0 and "0.5" as 0.5; the scalars are held to JSON numbers too.
            ({"gamma": False}, "gamma: could not convert False to float"),
            ({"gamma": "0.5"}, "gamma: could not convert '0.5' to float"),
            ({"space": {"embedding": {"kind": "line", "coords": ["0", True, 2]}}}, "space: could not convert '0'"),
            ({"space": {"embedding": {"kind": "line", "coords": [0, True]}}}, "space: could not convert True"),
            ({"space": {"dist": [["0", 1], [1, 0]]}}, "space: could not convert '0' to float"),
            ({"space": {"n": "2", "dist": [[0, 1], [1, 0]]}}, "space: could not convert '2' to float"),
        ],
    )
    def test_model_rules_come_from_finite_mdp(self, tmp_path, fields, message):
        doc = {
            "space": {"embedding": {"kind": "line", "coords": [0.0, 1.0]}},
            "actions": 1,
            "gamma": 0.9,
            "reward": [[0.0], [0.0]],
            "transition": [[[0.5, 0.5]], [[0.5, 0.5]]],
            **fields,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError) as info:
            load_mdp(path)
        assert str(info.value).startswith(message)

    def test_integer_entries_load(self, tmp_path):
        path = tmp_path / "model.json"
        doc = {
            "space": {"embedding": {"kind": "line", "coords": [0, 1]}},
            "actions": 1,
            "gamma": 0.9,
            "reward": [[0], [1]],
            "transition": [[[1, 0]], [[0.5, 0.5]]],
        }
        path.write_text(json.dumps(doc))
        mdp = load_mdp(path)
        assert mdp.reward.tolist() == [[0.0], [1.0]]
        assert mdp.transition[0, 0].tolist() == [1.0, 0.0]

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"actions": 1}))
        with pytest.raises(MdpFormatError, match="missing field"):
            load_mdp(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(MdpFormatError, match="not valid JSON"):
            load_mdp(path)
