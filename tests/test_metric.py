import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wassmdp.metric import (
    LipschitzReport,
    MetricError,
    MetricSpace,
    ScalarField,
    lipschitz_constant,
    space_from_json,
    uniform_lipschitz_constant,
)
from wassmdp.suites import random_metric_space


def brute_force_constant(values, dist):
    """Independent oracle: scan every ordered pair."""
    n = len(values)
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, abs(values[i] - values[j]) / dist[i, j])
    return best


def triu_scan(values, dist):
    """Independent oracle: (constant, witness) by a double loop over i < j.

    A later pair replaces the best only when its ratio is strictly larger,
    so ties go to the first pair in triu order.
    """
    n = len(values)
    best, witness = -1.0, (0, 0)
    for i in range(n):
        for j in range(i + 1, n):
            ratio = abs(float(values[i]) - float(values[j])) / float(dist[i, j])
            if ratio > best:
                best, witness = ratio, (i, j)
    return (max(best, 0.0), witness)


class TestMetricSpace:
    def test_line_matrix(self):
        sp = MetricSpace.unit_line(4)
        assert sp.n == 4
        assert sp.dist[0, 3] == 3.0
        assert sp.dist[2, 1] == 1.0

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(MetricError, match="diagonal"):
            MetricSpace.from_matrix([[0.1, 1.0], [1.0, 0.0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(MetricError, match="pair"):
            MetricSpace.from_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_duplicate_points_rejected(self):
        with pytest.raises(MetricError, match="distance"):
            MetricSpace.from_matrix([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(MetricError):
            MetricSpace.line([1.0, 1.0])

    def test_triangle_violation_rejected(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(MetricError, match="triangle"):
            MetricSpace.from_matrix(d)

    def test_triangle_violation_names_the_pair(self):
        d = MetricSpace.unit_line(6).dist.copy()
        d[1, 4] = d[4, 1] = 3.5  # only the pair (1, 4) is longer than a detour
        with pytest.raises(MetricError, match=r"pair \(1, 4\)"):
            MetricSpace.from_matrix(d)

    def test_non_finite_rejected(self):
        with pytest.raises(MetricError):
            MetricSpace.from_matrix([[0.0, np.inf], [np.inf, 0.0]])

    def test_circle_arc_metric(self):
        sp = MetricSpace.circle([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert sp.dist[0, 1] == pytest.approx(np.pi / 2)
        # wrap-around pair is one quarter turn, not three
        assert sp.dist[0, 3] == pytest.approx(np.pi / 2)

    def test_grid2d_euclidean(self):
        sp = MetricSpace.grid2d([[0.0, 0.0], [3.0, 4.0]])
        assert sp.dist[0, 1] == pytest.approx(5.0)

    def test_labels_length_checked(self):
        with pytest.raises(MetricError, match="labels"):
            MetricSpace.unit_line(3, labels=["a", "b"])

    def test_json_round_trip_matrix(self):
        sp = MetricSpace.from_matrix([[0.0, 2.0], [2.0, 0.0]], labels=["u", "v"])
        back = space_from_json(json.loads(json.dumps(sp.to_json_dict())))
        assert np.array_equal(back.dist, sp.dist)
        assert back.labels == ("u", "v")

    def test_json_round_trip_embedding(self):
        sp = MetricSpace.line([0.0, 0.5, 2.25])
        back = space_from_json(json.loads(json.dumps(sp.to_json_dict())))
        assert np.array_equal(back.dist, sp.dist)
        assert back.embedding == sp.embedding

    def test_json_bad_kind(self):
        with pytest.raises(MetricError, match="kind"):
            space_from_json({"embedding": {"kind": "torus", "coords": [0.0]}})

    def test_json_n_mismatch(self):
        with pytest.raises(MetricError, match="declared n"):
            space_from_json({"n": 3, "dist": [[0.0, 1.0], [1.0, 0.0]]})


class TestLipschitzConstant:
    def test_constant_field_is_zero(self):
        sp = MetricSpace.unit_line(3)
        rep = lipschitz_constant([5.0, 5.0, 5.0], sp)
        assert rep.constant == 0.0

    def test_identity_field_is_one(self):
        sp = MetricSpace.unit_line(3)
        rep = lipschitz_constant([0.0, 1.0, 2.0], sp)
        assert rep.constant == 1.0

    def test_hand_oracle_three_points(self):
        # ratios for [0, 3, 1]: (0,1)->3, (0,2)->0.5, (1,2)->2
        sp = MetricSpace.unit_line(3)
        rep = lipschitz_constant([0.0, 3.0, 1.0], sp)
        assert rep.constant == 3.0
        assert rep.witness == (0, 1)

    def test_single_point_space(self):
        sp = MetricSpace.from_matrix([[0.0]])
        assert lipschitz_constant([7.0], sp).constant == 0.0

    def test_dimension_mismatch(self):
        sp = MetricSpace.unit_line(3)
        with pytest.raises(ValueError, match="3 points"):
            lipschitz_constant([1.0, 2.0], sp)

    def test_accepts_scalar_field(self):
        sp = MetricSpace.unit_line(3)
        rep = lipschitz_constant(ScalarField(np.array([0.0, 3.0, 1.0])), sp)
        assert rep.constant == 3.0

    def test_witness_ratio_matches_constant(self):
        rng = np.random.default_rng(5)
        sp = MetricSpace.line(np.cumsum(rng.uniform(0.1, 1.0, 8)))
        f = rng.normal(size=8)
        rep = lipschitz_constant(f, sp)
        i, j = rep.witness
        assert rep.constant == pytest.approx(
            abs(f[i] - f[j]) / sp.dist[i, j], abs=1e-12
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            sp = MetricSpace.line(np.cumsum(rng.uniform(0.05, 1.0, n)))
            f = rng.normal(size=n)
            assert lipschitz_constant(f, sp).constant == pytest.approx(
                brute_force_constant(f, sp.dist), abs=1e-12
            )

    @given(st.integers(min_value=-6, max_value=6))
    def test_power_of_two_scaling_exact(self, e):
        # powers of two rescale floats exactly, so the identity holds bitwise
        sp = MetricSpace.unit_line(5)
        f = np.array([0.3, -1.2, 4.0, 0.0, 2.5])
        c = 2.0**e
        assert lipschitz_constant(c * f, sp).constant == c * lipschitz_constant(f, sp).constant

    def test_general_scaling(self):
        sp = MetricSpace.unit_line(5)
        rng = np.random.default_rng(3)
        f = rng.normal(size=5)
        for c in (-2.7, 0.3, 13.5):
            assert lipschitz_constant(c * f, sp).constant == pytest.approx(
                abs(c) * lipschitz_constant(f, sp).constant, rel=1e-12
            )

    def test_invariant_under_metric_preserving_relabel(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=6)
        sp = MetricSpace.unit_line(6)
        rev = lipschitz_constant(f[::-1], sp)
        assert rev.constant == pytest.approx(lipschitz_constant(f, sp).constant, abs=1e-15)


class TestCachedPairs:
    def test_matches_double_loop_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            sp = random_metric_space(rng, n, "closure")
            # small integers on half the draws, so equal ratios are common
            if rng.random() < 0.5:
                f = rng.normal(size=n)
            else:
                f = rng.integers(-2, 3, size=n).astype(float)
            rep = lipschitz_constant(f, sp)
            assert (rep.constant, rep.witness) == triu_scan(f, sp.dist)
            line = MetricSpace.unit_line(n)
            rep = lipschitz_constant(f, line)
            assert (rep.constant, rep.witness) == triu_scan(f, line.dist)

    def test_tie_goes_to_first_pair_in_triu_order(self):
        # ratios: (0,1) 0, (0,2) 1/2, (0,3) 2/3, then (1,2), (1,3), (2,3) all 1
        sp = MetricSpace.unit_line(4)
        rep = lipschitz_constant([0.0, 0.0, 1.0, 2.0], sp)
        assert rep.constant == 1.0
        assert rep.witness == (1, 2)
        assert triu_scan([0.0, 0.0, 1.0, 2.0], sp.dist) == (1.0, (1, 2))

    def test_pairs_are_cached_and_read_only(self):
        sp = MetricSpace.unit_line(5)
        iu, ju, d = sp.pairs
        assert sp.pairs[0] is iu and sp.pairs[1] is ju and sp.pairs[2] is d
        assert list(zip(iu, ju)) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert np.array_equal(d, sp.dist[iu, ju])
        for arr in (iu, ju, d):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_array_rows_match_scalar_field_family(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            sp = random_metric_space(rng, n, "closure")
            q = rng.normal(size=(n, m))
            if rng.random() < 0.5:
                q[:, -1] = q[:, 0]  # a tied member: the first one wins
            rows = uniform_lipschitz_constant(q.T, sp)
            fields = uniform_lipschitz_constant([ScalarField(q[:, a]) for a in range(m)], sp)
            assert rows == fields


class TestUniformLipschitz:
    def test_constant_family(self):
        sp = MetricSpace.unit_line(3)
        rep = uniform_lipschitz_constant([[1.0] * 3, [2.0] * 3], sp)
        assert rep.constant == 0.0

    def test_scaled_identity_family(self):
        sp = MetricSpace.unit_line(4)
        ident = np.arange(4.0)
        rep = uniform_lipschitz_constant([ident, 2.0 * ident], sp)
        assert rep.constant == 2.0
        assert rep.family_index == 1

    def test_random_family_matches_per_field_max(self):
        rng = np.random.default_rng(17)
        sp = MetricSpace.line(np.cumsum(rng.uniform(0.1, 1.0, 6)))
        family = [rng.normal(size=6) for _ in range(5)]
        expected = max(lipschitz_constant(f, sp).constant for f in family)
        assert uniform_lipschitz_constant(family, sp).constant == expected

    def test_empty_family_rejected(self):
        sp = MetricSpace.unit_line(3)
        with pytest.raises(ValueError, match="empty"):
            uniform_lipschitz_constant([], sp)


class TestCompositionLemma:
    def test_composed_constant_bounded_by_product(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            sp = MetricSpace.line(np.cumsum(rng.uniform(0.05, 1.0, n)))
            g = rng.uniform(-2.0, 2.0, n)
            grid = np.unique(g)
            if grid.size == 1:
                continue
            mid = MetricSpace.line(grid)
            f = rng.uniform(-2.0, 2.0, grid.size)
            h = f[np.searchsorted(grid, g)]
            kf = lipschitz_constant(f, mid).constant
            kg = lipschitz_constant(g, sp).constant
            kh = lipschitz_constant(h, sp).constant
            assert kh <= kf * kg + 1e-12


class TestSummationLemma:
    def test_sum_constant_bounded_by_sum(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            sp = MetricSpace.line(np.cumsum(rng.uniform(0.05, 1.0, n)))
            f = rng.uniform(-3.0, 3.0, n)
            g = rng.uniform(-3.0, 3.0, n)
            kf = lipschitz_constant(f, sp).constant
            kg = lipschitz_constant(g, sp).constant
            assert lipschitz_constant(f + g, sp).constant <= kf + kg + 1e-12


def test_scalar_field_rejects_non_finite():
    with pytest.raises(ValueError):
        ScalarField(np.array([1.0, np.nan]))


def test_report_is_plain_data():
    rep = LipschitzReport(1.0, (0, 1))
    assert rep.family_index is None
