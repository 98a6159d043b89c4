import itertools

import numpy as np
import pytest

from wassmdp import lp


INF = np.inf


def solve(objective, A, relations, rhs, lower=-INF, upper=INF):
    return lp.solve_lp(lp.LpProblem(objective, A, relations, rhs, lower, upper))


class TestBasics:
    def test_single_variable_box(self):
        sol = solve([1.0], [[1.0]], [lp.LEQ], [3.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_two_variable_simplex_face(self):
        sol = solve([1.0, 1.0], [[1.0, 1.0]], [lp.LEQ], [1.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_bounds_only_problem(self):
        sol = solve([2.0, -1.0], np.zeros((0, 2)), [], [], [0.0, 1.0], [5.0, 4.0])
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(5.0)
        assert sol.x[1] == pytest.approx(1.0)

    def test_equality_constraint(self):
        sol = solve([1.0, 2.0], [[1.0, 1.0]], [lp.EQ], [2.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x[1] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    def test_free_variables(self):
        sol = solve([-1.0, -1.0], np.eye(2), [lp.GEQ, lp.GEQ], [-3.0, 2.0])
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(-3.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(2.0, abs=1e-9)

    def test_negative_rhs_normalization(self):
        sol = solve([1.0], [[-1.0]], [lp.GEQ], [-4.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(4.0, abs=1e-9)


class TestStatuses:
    def test_infeasible_rows(self):
        sol = solve([1.0], [[1.0], [1.0]], [lp.LEQ, lp.GEQ], [1.0, 2.0])
        assert sol.status == lp.INFEASIBLE
        assert sol.x is None

    def test_infeasible_crossed_bounds(self):
        sol = solve([1.0], np.zeros((0, 1)), [], [], 2.0, 1.0)
        assert sol.status == lp.INFEASIBLE
        sol = solve([1.0, 1.0], [[1.0, 1.0]], [lp.LEQ], [5.0], [0.0, 2.0], [1.0, 1.0])
        assert sol.status == lp.INFEASIBLE

    def test_no_constraint_rows(self):
        sol = solve([0.0, 0.0], np.zeros((0, 2)), [], [])
        assert sol.status == lp.OPTIMAL
        assert np.array_equal(sol.x, [0.0, 0.0])
        assert solve([0.0, -1.0], np.zeros((0, 2)), [], [], upper=3.0).status == lp.UNBOUNDED

    def test_unbounded(self):
        sol = solve([1.0], [[1.0]], [lp.GEQ], [0.0], lower=0.0)
        assert sol.status == lp.UNBOUNDED

    def test_unbounded_free_direction(self):
        sol = solve([0.0, 1.0], [[1.0, 0.0]], [lp.LEQ], [1.0])
        assert sol.status == lp.UNBOUNDED


class TestMalformedInput:
    def test_nan_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            lp.LpProblem([np.nan], np.zeros((0, 1)), [], [])

    def test_nan_constraint(self):
        with pytest.raises(ValueError, match="constraint 1 contains non-finite"):
            lp.LpProblem([1.0], [[1.0], [np.nan]], [lp.LEQ, lp.LEQ], [1.0, 1.0])

    def test_nan_rhs(self):
        with pytest.raises(ValueError, match="constraint 0 contains non-finite"):
            lp.LpProblem([1.0], [[1.0]], [lp.LEQ], [np.nan])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            lp.LpProblem([1.0, 2.0], [[1.0]], [lp.LEQ], [1.0])
        with pytest.raises(ValueError, match="coefficients"):
            lp.LpProblem([1.0, 2.0], [1.0, 1.0], [lp.LEQ], [1.0])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="constraint rows"):
            lp.LpProblem([1.0], [[1.0], [2.0]], [lp.LEQ, lp.LEQ], [1.0])
        with pytest.raises(ValueError, match="constraint rows"):
            lp.LpProblem([1.0], [[1.0], [2.0]], [lp.LEQ], [1.0, 1.0])

    def test_bad_relation(self):
        with pytest.raises(ValueError, match="relation '<'"):
            lp.LpProblem([1.0], [[1.0], [1.0]], [lp.LEQ, "<"], [1.0, 1.0])

    @pytest.mark.parametrize(
        "lower, upper", [([0.0, np.nan], INF), (0.0, [1.0, np.nan]), ([0.0, INF], INF), (0.0, [1.0, -INF])]
    )
    def test_nan_or_misplaced_infinite_bound(self, lower, upper):
        with pytest.raises(ValueError, match="bound for variable 1"):
            lp.LpProblem([1.0, 1.0], np.zeros((0, 2)), [], [], lower, upper)

    def test_wrong_bound_count(self):
        with pytest.raises(ValueError, match="bound"):
            lp.LpProblem([1.0, 1.0], np.zeros((0, 2)), [], [], lower=[0.0, 0.0, 0.0])


def enumerate_vertex_optimum(A, b, c):
    """Brute-force transportation oracle: scan every basic feasible solution.

    A must have full row rank after dropping dependent rows; candidates are
    all column subsets of that size.
    """
    rank = np.linalg.matrix_rank(A)
    # reduce to `rank` independent rows
    keep = []
    for i in range(A.shape[0]):
        trial = keep + [i]
        if np.linalg.matrix_rank(A[trial]) == len(trial):
            keep.append(i)
        if len(keep) == rank:
            break
    A_r, b_r = A[keep], b[keep]
    best = np.inf
    for cols in itertools.combinations(range(A.shape[1]), rank):
        B = A_r[:, list(cols)]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b_r)
        if xb.min() < -1e-9:
            continue
        x = np.zeros(A.shape[1])
        x[list(cols)] = xb
        if np.abs(A @ x - b).max() > 1e-8:
            continue
        best = min(best, c @ x)
    return best


class TestTransportationOracle:
    def test_random_4x4_matches_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        for trial in range(3):
            cost = rng.uniform(0.1, 2.0, size=(4, 4))
            mu = rng.dirichlet(np.ones(4))
            nu = rng.dirichlet(np.ones(4))
            A = np.zeros((8, 16))
            for i in range(4):
                A[i, i * 4 : (i + 1) * 4] = 1.0
                A[4 + i, i::4] = 1.0
            b = np.concatenate([mu, nu])
            expected = enumerate_vertex_optimum(A, b, cost.ravel())
            sol = solve(-cost.ravel(), A, [lp.EQ] * 8, b, lower=0.0)
            assert sol.status == lp.OPTIMAL
            assert -sol.objective_value == pytest.approx(expected, abs=1e-9)


class TestGridSearchOracle:
    def test_two_variable_problems_match_grid_search(self):
        # Coarse but sound: the solver's point is certified feasible, so its
        # value can only exceed the best grid point by the grid resolution.
        rng = np.random.default_rng(53)
        grid = np.linspace(0.0, 1.0, 201)
        xs, ys = np.meshgrid(grid, grid)
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        for _ in range(25):
            c = rng.uniform(-2.0, 2.0, 2)
            rows = rng.uniform(-2.0, 2.0, (3, 2))
            rhs = rng.uniform(-0.5, 2.0, 3)
            feasible = np.all(pts @ rows.T <= rhs + 1e-12, axis=1)
            sol = solve(c, rows, [lp.LEQ] * 3, rhs, 0.0, 1.0)
            if not feasible.any():
                # the grid can miss a sliver of feasibility, so only the
                # converse direction is checked
                continue
            grid_best = (pts[feasible] @ c).max()
            assert sol.status == lp.OPTIMAL
            resolution = 0.005 * (abs(c[0]) + abs(c[1]))
            assert sol.objective_value >= grid_best - 1e-9
            assert sol.objective_value <= grid_best + resolution + 1e-9


class TestSolutionContracts:
    def _random_problem(self, rng):
        nv = int(rng.integers(2, 6))
        nc = int(rng.integers(1, 6))
        A = np.empty((nc, nv))
        relations = []
        rhs = np.empty(nc)
        for i in range(nc):  # each row's coefficients, relation and rhs in turn
            A[i] = rng.normal(size=nv)
            relations.append(rng.choice([lp.LEQ, lp.GEQ, lp.EQ], p=[0.5, 0.3, 0.2]))
            rhs[i] = rng.normal()
        upper = rng.uniform(0.5, 3.0, nv)
        return lp.LpProblem(rng.normal(size=nv), A, relations, rhs, 0.0, upper)

    def test_feasibility_certified_within_tolerance(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(60):
            problem = self._random_problem(rng)
            sol = lp.solve_lp(problem)
            if sol.status != lp.OPTIMAL:
                continue
            found += 1
            lhs = problem.A @ sol.x
            rel, rhs = problem.relations, problem.rhs
            assert np.all(lhs[rel == lp.LEQ] <= rhs[rel == lp.LEQ] + 1e-9)
            assert np.all(lhs[rel == lp.GEQ] >= rhs[rel == lp.GEQ] - 1e-9)
            assert np.all(np.abs(lhs - rhs)[rel == lp.EQ] <= 1e-9)
            assert np.all(sol.x >= problem.lower - 1e-9)
            assert np.all(sol.x <= problem.upper + 1e-9)
            assert sol.objective_value == pytest.approx(
                float(problem.objective @ sol.x), abs=1e-9
            )
        assert found >= 20

    def test_dual_price_out_matches_objective(self):
        rng = np.random.default_rng(37)
        found = 0
        for _ in range(60):
            problem = self._random_problem(rng)
            sol = lp.solve_lp(problem)
            if sol.status != lp.OPTIMAL:
                continue
            found += 1
            assert sol.dual_objective_value == pytest.approx(
                sol.objective_value, abs=1e-8 * (1.0 + abs(sol.objective_value))
            )
        assert found >= 20

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(41)
        problem = self._random_problem(rng)
        a = lp.solve_lp(problem)
        b = lp.solve_lp(problem)
        assert a.status == b.status
        if a.status == lp.OPTIMAL:
            assert np.array_equal(a.x, b.x)
            assert a.objective_value == b.objective_value
            assert np.array_equal(a.duals, b.duals)

    def test_degenerate_problem_terminates(self):
        # many redundant rows through the same vertex
        A = [[1.0, 1.0]] * 6 + [[1.0, 0.0]] * 4
        sol = solve([1.0, 1.0], A, [lp.LEQ] * 10, [1.0] * 10, lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def standardize_by_rows(problem):
    """Variable-by-variable, row-by-row reference for lp._standardize."""
    src, signs, q, upper = [], [], np.zeros(problem.n_vars), []
    for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper)):
        if lo > -INF:
            if hi < INF:
                upper.append((len(src), hi - lo))
            src.append(j)
            signs.append(1.0)
            q[j] = lo
        elif hi < INF:
            src.append(j)
            signs.append(-1.0)
            q[j] = hi
        else:
            src += [j, j]
            signs += [1.0, -1.0]
    rows = [np.array([a[j] * s for j, s in zip(src, signs)]) for a in problem.A]
    b = list(problem.rhs - problem.A @ q)
    sense = [{lp.LEQ: 1.0, lp.EQ: 0.0, lp.GEQ: -1.0}[r] for r in problem.relations]
    for col, ub in upper:
        row = np.zeros(len(src))
        row[col] = 1.0
        rows.append(row)
        b.append(ub)
        sense.append(1.0)
    for i in range(len(b)):
        if b[i] < 0.0:
            rows[i], b[i], sense[i] = -rows[i], -b[i], -sense[i]
    A = np.array(rows).reshape(len(b), len(src))
    return A, np.array(b), np.array(sense), np.array(src), np.array(signs), q


class TestStandardForm:
    def test_matches_row_by_row_reference(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            nv, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
            kind = rng.integers(0, 4, size=nv)  # lower only, upper only, both, free
            lower = np.where(kind % 2 == 0, rng.uniform(-2.0, 1.0, nv), -INF)
            upper = np.where((kind == 1) | (kind == 2), rng.uniform(-1.0, 3.0, nv), INF)
            lower[kind == 2] = np.minimum(lower, upper)[kind == 2]
            relations = rng.choice([lp.LEQ, lp.EQ, lp.GEQ], size=m)
            A, rhs = rng.normal(size=(m, nv)), rng.normal(size=m)
            problem = lp.LpProblem(rng.normal(size=nv), A, relations, rhs, lower, upper)
            std = lp._standardize(problem)
            parts = (std.A, std.b, std.sense, std.src, std.signs, std.q)
            for got, want in zip(parts, standardize_by_rows(problem)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
