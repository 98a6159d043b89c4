import collections
import concurrent.futures
import hashlib
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wassmdp import learner, lp, suites, transport
from wassmdp.mdp import generate_lipschitz_mdp


INF = np.inf


def solve(objective, A, relation, rhs, lower=0.0, upper=INF):
    return lp.solve_lp(lp.LpProblem(objective, A, relation, rhs, lower, upper))


class TestBasics:
    def test_single_variable_box(self):
        sol = solve([1.0], [[1.0]], lp.LEQ, [3.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_two_variable_simplex_face(self):
        sol = solve([1.0, 1.0], [[1.0, 1.0]], lp.LEQ, [1.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_bounds_only_problem(self):
        sol = solve([2.0, -1.0], np.zeros((0, 2)), lp.LEQ, [], [0.0, 1.0], [5.0, 4.0])
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(5.0)
        assert sol.x[1] == pytest.approx(1.0)

    def test_equality_constraint(self):
        sol = solve([1.0, 2.0], [[1.0, 1.0]], lp.EQ, [2.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x[1] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    def test_negative_rhs_normalization(self):
        # x >= 4 as -x <= -4: the row is negated to b >= 0, with a slack of
        # sign -1 and an artificial.
        sol = solve([-1.0], [[-1.0]], lp.LEQ, [-4.0])
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(4.0, abs=1e-9)
        assert sol.pivots == (1, 0)


class TestStatuses:
    def test_infeasible_rows(self):
        # x <= 1 and x >= 2, the latter as -x <= -2.
        sol = solve([1.0], [[1.0], [-1.0]], lp.LEQ, [1.0, -2.0])
        assert sol.status == lp.INFEASIBLE
        assert sol.x is None

    def test_infeasible_crossed_bounds(self):
        sol = solve([1.0], np.zeros((0, 1)), lp.LEQ, [], 2.0, 1.0)
        assert sol.status == lp.INFEASIBLE
        sol = solve([1.0, 1.0], [[1.0, 1.0]], lp.LEQ, [5.0], [0.0, 2.0], [1.0, 1.0])
        assert sol.status == lp.INFEASIBLE

    def test_no_constraint_rows(self):
        sol = solve([0.0, 0.0], np.zeros((0, 2)), lp.LEQ, [])
        assert sol.status == lp.OPTIMAL
        assert np.array_equal(sol.x, [0.0, 0.0])
        assert solve([0.0, 1.0], np.zeros((0, 2)), lp.LEQ, [], upper=[3.0, INF]).status == lp.UNBOUNDED

    def test_unbounded(self):
        # x >= 1 as -x <= -1, and nothing bounds x above.
        sol = solve([1.0], [[-1.0]], lp.LEQ, [-1.0])
        assert sol.status == lp.UNBOUNDED
        assert sol.x is None


class TestMalformedInput:
    def test_nan_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            lp.LpProblem([np.nan], np.zeros((0, 1)), lp.LEQ, [])

    def test_nan_constraint(self):
        with pytest.raises(ValueError, match="constraint 1 contains non-finite"):
            lp.LpProblem([1.0], [[1.0], [np.nan]], lp.LEQ, [1.0, 1.0])

    def test_nan_rhs(self):
        with pytest.raises(ValueError, match="constraint 0 contains non-finite"):
            lp.LpProblem([1.0], [[1.0]], lp.LEQ, [np.nan])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            lp.LpProblem([1.0, 2.0], [[1.0]], lp.LEQ, [1.0])
        with pytest.raises(ValueError, match="coefficients"):
            lp.LpProblem([1.0, 2.0], [1.0, 1.0], lp.LEQ, [1.0])

    def test_row_count_mismatch(self):
        for rhs in ([1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match=f"got {len(rhs)} right-hand sides for 2 constraint rows"):
                lp.LpProblem([1.0], [[1.0], [2.0]], lp.LEQ, rhs)

    def test_bad_relation(self):
        # One code for all rows: a code per row is no code.
        for relation in ("<", "", None, [lp.LEQ, lp.LEQ], np.array([lp.EQ, lp.EQ])):
            with pytest.raises(ValueError, match=r"relation .* is not '<=' or '=='"):
                lp.LpProblem([1.0], [[1.0], [1.0]], relation, [1.0, 1.0])

    def test_geq_row(self):
        # A ">=" row is posed as the "<=" row of its negation.
        with pytest.raises(ValueError, match="relation '>=' is not '<=' or '=='"):
            lp.LpProblem([1.0], [[1.0], [1.0]], ">=", [1.0, 1.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [([0.0, np.nan], INF), (0.0, [1.0, np.nan]), ([0.0, INF], INF), (0.0, [1.0, -INF]), ([0.0, -INF], INF)],
    )
    def test_nan_or_misplaced_infinite_bound(self, lower, upper):
        with pytest.raises(ValueError, match="bound for variable 1"):
            lp.LpProblem([1.0, 1.0], np.zeros((0, 2)), lp.LEQ, [], lower, upper)

    def test_wrong_bound_count(self):
        with pytest.raises(ValueError, match="bound"):
            lp.LpProblem([1.0, 1.0], np.zeros((0, 2)), lp.LEQ, [], lower=[0.0, 0.0, 0.0])


# Entries at the edges of the float range: finite ones the LP accepts, and
# the non-finite ones it rejects.
FINITE = st.sampled_from([1.0, -1.0, 2.0, 0.5, -2.0, 3.0, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300])
VALUES = FINITE | st.sampled_from([np.nan, INF, -INF])


@st.composite
def lp_inputs(draw):
    """The arguments of an LpProblem with at most 4 variables and 4 rows."""
    nv, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    # Half the LPs have finite entries only, so that many reach the solver.
    values = draw(st.sampled_from([FINITE, VALUES]))
    objective = draw(st.lists(values, min_size=nv, max_size=nv))
    A = np.array(draw(st.lists(values, min_size=m * nv, max_size=m * nv))).reshape(m, nv)
    relation = draw(st.sampled_from(["<=", "==", "<=", "==", ">=", "<", ""]))
    rhs = draw(st.lists(values, min_size=m, max_size=m))
    # A bound is left out (the default), one value, one per variable, or a
    # list of any length, which may not broadcast.
    bound = st.none() | values | st.lists(values, min_size=nv, max_size=nv) | st.lists(values, max_size=5)
    bounds = {name: value for name in ("lower", "upper") if (value := draw(bound)) is not None}
    return objective, A, relation, rhs, bounds


class TestContract:
    # Whatever the input, LpProblem builds or raises ValueError, and solve_lp
    # returns a status with x present exactly when optimal or raises
    # ArithmeticError, and numpy prints no warning.  Optimality is not
    # asserted here.
    @settings(derandomize=True, max_examples=400)
    @given(lp_inputs())
    # Crossed bounds are infeasible, not malformed.
    @example(([1.0], np.zeros((0, 1)), lp.LEQ, [], {"lower": 2.0, "upper": 1.0}))
    # Products past the largest float: rhs - A @ lower is -inf.
    @example(([1.0], [[1e300]], "<=", [1.0], {"lower": 1e300}))
    # Phase 1 meets a NaN ratio, which ties with no row.
    @example(([-1e-300, -1e-300], [[-1e300, -1e300]], "==", [-1e-300], {"lower": [-1e300, 0.0], "upper": 2.0}))
    # The one positive ratio, 1e300 / 1e-9, overflows to inf, so every row ties.
    @example(([1.0], [[1e-9], [-1.0]], "<=", [1e300, 1.0], {}))
    # An objective of 1e300 on x = 1e300 overflows the tableau's cost row.
    @example(([1e300, 1e300], [[1.0, 1.0]], "<=", [1e300], {}))
    def test_builds_or_raises_and_solves_or_raises(self, inputs):
        objective, A, relation, rhs, bounds = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                problem = lp.LpProblem(objective, A, relation, rhs, **bounds)
            except ValueError:
                return
            try:
                sol = lp.solve_lp(problem)
            except ArithmeticError:
                return
        if sol.status == lp.OPTIMAL:
            assert sol.x.shape == (problem.n_vars,)
        else:
            assert sol.status in (lp.INFEASIBLE, lp.UNBOUNDED)
            assert sol.x is None


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
            sol = solve(-cost.ravel(), A, lp.EQ, b, lower=0.0)
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
            sol = solve(c, rows, lp.LEQ, rhs, 0.0, 1.0)
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
    @staticmethod
    def _random_problem(rng, nv=None, nc=None):
        nv = int(rng.integers(2, 6)) if nv is None else nv
        nc = int(rng.integers(1, 6)) if nc is None else nc
        # One relation for all rows; a "<=" row with a negative right-hand
        # side is negated in the standard form and starts on an artificial,
        # and each upper bound adds a "<=" row that starts on its slack.
        relation = lp.EQ if rng.random() < 0.2 else lp.LEQ
        A, rhs = rng.normal(size=(nc, nv)), rng.normal(size=nc)
        upper = rng.uniform(0.5, 3.0, nv)
        return lp.LpProblem(rng.normal(size=nv), A, relation, rhs, 0.0, upper)

    def test_feasibility_certified_within_tolerance(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(60):
            problem = self._random_problem(rng)
            sol = lp.solve_lp(problem)
            if sol.status != lp.OPTIMAL:
                continue
            found += 1
            residual = problem.A @ sol.x - problem.rhs
            if problem.relation == lp.EQ:
                residual = np.abs(residual)
            assert np.all(residual <= 1e-9)
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

    def test_redundant_equality_row_is_dropped(self):
        # max -x1 - 2 x2 on x1 + x2 == 2 (stated twice), x1 - x2 == 1, x >= 0.
        # By hand: x = (1.5, 0.5), value -2.5, and the prices -1.5 and 0.5 of
        # the two rows kept solve -1 = y1 + y2, -2 = y1 - y2.
        A = [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
        sol = solve([-1.0, -2.0], A, lp.EQ, [2.0, 2.0, 1.0], lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.x == pytest.approx([1.5, 0.5], abs=1e-12)
        assert sol.objective_value == pytest.approx(-2.5, abs=1e-12)
        assert sol.duals.shape == (2,)
        assert sol.duals == pytest.approx([-1.5, 0.5], abs=1e-12)
        assert sol.dual_objective_value == pytest.approx(-2.5, abs=1e-12)

    @pytest.mark.parametrize(
        "objective, A, relation, rhs, lower, status, pivots",
        [
            # No artificials; phase 2 brings x1 in under Bland's rule.
            ([1.0, 1.0], [[1.0, 1.0]], lp.LEQ, [1.0], 0.0, lp.OPTIMAL, (0, 1)),
            # x1 replaces the artificial, then x2 replaces x1.
            ([1.0, 2.0], [[1.0, 1.0]], lp.EQ, [2.0], 0.0, lp.OPTIMAL, (1, 1)),
            # Phase 1 starts optimal with the artificial basic at level 0;
            # the one pivot is the drive-out that brings x1 in.
            ([0.0, 0.0], [[-1.0, -1.0]], lp.EQ, [0.0], 0.0, lp.OPTIMAL, (1, 0)),
            # The second row, x >= 2 as -x <= -2, is negated and starts
            # on an artificial.
            ([1.0], [[1.0], [-1.0]], lp.LEQ, [1.0, -2.0], 0.0, lp.INFEASIBLE, (1, 0)),
            ([1.0], [[-1.0]], lp.LEQ, [-1.0], 0.0, lp.UNBOUNDED, (1, 0)),
        ],
        ids=["phase-2-only", "both-phases", "drive-out", "infeasible", "unbounded"],
    )
    def test_pivot_counts_per_phase(self, objective, A, relation, rhs, lower, status, pivots):
        sol = solve(objective, A, relation, rhs, lower=lower)
        assert sol.status == status
        assert sol.pivots == pivots

    def test_perturbed_dual_objective_fails_certificate(self, monkeypatch):
        problem = lp.LpProblem([1.0, 2.0], [[1.0, 1.0]], lp.EQ, [2.0], 0.0)
        sol = lp.solve_lp(problem)
        lp._certify(problem, sol.x, sol.objective_value, sol.dual_objective_value)
        for dual_value in (sol.dual_objective_value + 1e-6, np.nan):
            with pytest.raises(ArithmeticError, match="dual objective"):
                lp._certify(problem, sol.x, sol.objective_value, dual_value)
        # The refactorization solves for x with B, then for the duals with
        # B.T; duals off by 1e-6 open a duality gap inside solve_lp, both
        # when phase 1 comes from the memo and when it runs afresh.  A second
        # objective makes the memo keep phase 1, and a third keeps the stored
        # answers of the first two out of it.
        lp.solve_lp(with_objective(problem, [1.0, 1.0]))
        solve, calls = np.linalg.solve, []

        def off_duals(a, b):
            calls.append(a)
            y = solve(a, b)
            return y + 1e-6 if len(calls) % 2 == 0 else y

        monkeypatch.setattr(np.linalg, "solve", off_duals)
        third = with_objective(problem, [2.0, 1.0])
        # Two answers, and between them the phase 1 that the second kept.
        assert [type(item) for item in lp._memo.values()] == [lp.LpSolution, lp._Phase1, lp.LpSolution]
        constraints, whole = lp._memo_keys(third)
        assert isinstance(lp._memo[constraints], lp._Phase1) and whole not in lp._memo
        with pytest.raises(ArithmeticError, match="dual objective"):
            lp.solve_lp(third)
        assert lp.memo_counts() == {"solves": 3, "phase1_reused": 1, "answer_reused": 0}
        lp.clear_memo()
        with pytest.raises(ArithmeticError, match="dual objective"):
            lp.solve_lp(third)
        assert len(calls) == 4
        assert all(calls[i + 1].base is calls[i] for i in (0, 2))  # B.T, a view of B

    def test_singular_final_basis_raises_typed_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(lp.SingularBasisError, match="final basis matrix is singular"):
            solve([1.0, 2.0], [[1.0, 1.0]], lp.EQ, [2.0], lower=0.0)
        assert issubclass(lp.SingularBasisError, ArithmeticError)

    def test_degenerate_problem_terminates(self):
        # many redundant rows through the same vertex
        A = [[1.0, 1.0]] * 6 + [[1.0, 0.0]] * 4
        sol = solve([1.0, 1.0], A, lp.LEQ, [1.0] * 10, lower=0.0)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def fingerprint(sol):
    """Status, pivot counts and the bytes of every returned number."""
    numbers = (sol.x, sol.objective_value, sol.duals, sol.dual_objective_value)
    return (sol.status, sol.pivots) + tuple(
        None if v is None else np.asarray(v, dtype=float).tobytes() for v in numbers
    )


def with_objective(problem, objective):
    """The same constraint data under another objective."""
    return lp.LpProblem(objective, problem.A, problem.relation, problem.rhs, problem.lower, problem.upper)


def without_upper(problem):
    """The same rows on variables bounded below alone, where unbounded LPs occur."""
    return lp.LpProblem(problem.objective, problem.A, problem.relation, problem.rhs, problem.lower)


def shared_constraint_groups():
    """Groups of LPs that share their constraints and differ in the objective.

    Random boxed LPs (optimal or phase-1 infeasible), the same rows with
    no upper bounds (unbounded ones too), a redundant equality row, a drive-out
    pivot, and the W1 duals of one space and primals of one pair of
    marginals under several metrics.
    """
    rng = np.random.default_rng(61)
    groups = []
    for _ in range(80):
        base = TestSolutionContracts._random_problem(rng)
        groups.append([with_objective(base, rng.normal(size=base.n_vars)) for _ in range(4)])
    for group in groups[:30]:
        groups.append([without_upper(p) for p in group])
    redundant = lp.LpProblem([-1.0, -2.0], [[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]], lp.EQ, [2.0, 2.0, 1.0], 0.0)
    drive_out = lp.LpProblem([0.0, 0.0], [[-1.0, -1.0]], lp.EQ, [0.0], 0.0)
    for base in (redundant, drive_out):
        groups.append([with_objective(base, c) for c in ([-1.0, -2.0], [1.0, -3.0], [0.0, 0.0], [-2.0, -1.0])])
    recorded = []
    solve = lp.solve_lp

    def record(problem):
        recorded.append(problem)
        return solve(problem)

    lp.solve_lp = record
    try:
        space = suites.random_metric_space(rng, 7, "plane")
        for _ in range(4):
            mu1, mu2 = suites.random_distribution(rng, 7), suites.random_distribution(rng, 7)
            transport.wasserstein_dual(mu1, mu2, space, 2.5)
        groups.append(recorded[:])
        recorded.clear()
        mu1, mu2 = suites.random_distribution(rng, 6), suites.random_distribution(rng, 6)
        for kind in ("line", "closure", "plane", "plane"):
            transport.wasserstein_primal(mu1, mu2, suites.random_metric_space(rng, 6, kind))
        groups.append(recorded[:])
    finally:
        lp.solve_lp = solve
    return groups


def memo_arrays():
    """Every array the memo holds, in phase-1 results and in answers."""
    arrays = []
    for item in lp._memo.values():
        if isinstance(item, lp._Phase1):
            arrays += [item.A, item.b, item.sense, item.q, item.slack_rows]
            if item.tab is not None:
                arrays += [item.tab, item.basis, item.kept]
        elif item is not None:
            arrays += [a for a in (item.x, item.duals) if a is not None]
    return arrays


def item_held(item):
    """Numbers one memo item counts: its arrays and ``_ITEM_OVERHEAD`` for the rest."""
    if isinstance(item, lp._Phase1):
        parts = (item.A, item.b, item.sense, item.q, item.slack_rows, item.tab, item.basis, item.kept)
    else:
        parts = () if item is None else (item.x, item.duals)
    return lp._ITEM_OVERHEAD + sum(a.size for a in parts if a is not None)


def item_kind(item):
    """"answer", "phase 1" or "none": what a memo item is."""
    if isinstance(item, lp.LpSolution):
        return "answer"
    return "none" if item is None else "phase 1"


def memo_held():
    """The numbers the memo holds, recounted item by item."""
    return sum(item_held(item) for item in lp._memo.values())


def phase1_held(problem, start):
    """Numbers the size rule counts for an LP: its A, the standard form and the tableau."""
    return problem.A.size + start.A.size + (0 if start.tab is None else start.tab.size)


def constraint_item(problem):
    """What the memo holds under the problem's constraint digest."""
    return lp._memo[lp._memo_keys(problem)[0]]


def fresh_solve(problem):
    """solve_lp with phase 1 run afresh."""
    lp.clear_memo()
    sol = lp.solve_lp(problem)
    assert not sol.phase1_reused
    return sol


class TestPhase1Memo:
    def test_hits_match_fresh_solves_bytewise(self):
        # Phase 1 is kept when a constraint set comes back with a second
        # objective and reused from the third on.
        groups = shared_constraint_groups()
        hits = []
        for group in groups:
            lp.clear_memo()
            solutions = [lp.solve_lp(problem) for problem in group]
            assert [sol.phase1_reused for sol in solutions] == [False, False] + [True] * (len(group) - 2)
            for problem, sol in zip(group, solutions):
                assert fingerprint(sol) == fingerprint(fresh_solve(problem))
            hits.append(solutions[2:])
        # The redundant row is dropped and the drive-out pivot counted on hits too.
        assert all(sol.duals.shape == (2,) for sol in hits[-4])
        assert all(sol.pivots[0] == 1 for sol in hits[-3])
        hits = [sol for group in hits for sol in group]
        assert {sol.status for sol in hits} == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert any(sol.status == lp.INFEASIBLE and sol.pivots[0] > 0 for sol in hits)
        assert any(sol.status == lp.OPTIMAL and sol.pivots[0] > 0 for sol in hits)

    def test_reused_exactly_on_hits(self, monkeypatch):
        # One constraint set per status: optimal, phase-1 infeasible and
        # (with x0 unbounded above) unbounded; the flag must follow hits in
        # each.  Each ">=" row is posed as its negated "<=" row.
        a = lp.LpProblem([1.0, 1.0], [[1.0, 2.0], [-3.0, -1.0]], lp.LEQ, [4.0, -1.0], 0.0, 3.0)
        b = lp.LpProblem([1.0, -1.0], [[1.0, 1.0], [-1.0, -1.0]], lp.LEQ, [1.0, -2.0], 0.0)
        c = lp.LpProblem([1.0, 0.0], [[0.0, 1.0]], lp.LEQ, [1.0])
        calls = []
        phase1 = lp._phase1

        def counting(problem):
            calls.append(problem)
            return phase1(problem)

        monkeypatch.setattr(lp, "_phase1", counting)
        sequence = [a, b, c, with_objective(a, [2.0, -1.0]), a, with_objective(b, [0.0, 1.0])]
        sequence += [with_objective(c, [1.0, -1.0]), with_objective(c, [0.0, 1.0]), with_objective(b, [1.0, 0.0])]
        sequence += [with_objective(a, [0.0, 1.0]), with_objective(c, [1.0, 1.0])]
        sequence += [lp.LpProblem(a.objective, a.A, a.relation, a.rhs + 1e-9, a.lower, a.upper)]
        sequence += [lp.LpProblem(a.objective, a.A, a.relation, a.rhs, a.lower, a.upper + 0.5)]
        solutions = [lp.solve_lp(problem) for problem in sequence]
        assert [sol.status for sol in solutions] == [
            lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED, lp.OPTIMAL, lp.OPTIMAL, lp.INFEASIBLE,
            lp.UNBOUNDED, lp.OPTIMAL, lp.INFEASIBLE, lp.OPTIMAL, lp.UNBOUNDED, lp.OPTIMAL, lp.OPTIMAL,
        ]
        flags = [sol.phase1_reused for sol in solutions]
        assert flags == [False, False, False, False, True, False, False, True, True, True, True, False, False]
        # A hit makes no _phase1 call: it neither standardizes nor runs phase 1.
        assert len(calls) == flags.count(False)

    def test_w1_primals_leave_no_tableau(self):
        # A W1 primal's right-hand side holds its two marginals and its
        # objective the metric, so its constraint set comes back only as a
        # byte-identical repeat: no primal keeps a phase-1 tableau, and each
        # constraint digest holds None.  The VAML duals of one space keep
        # theirs from the second objective.
        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=3)
        config = learner.FitConfig(iters=1, step_size=0.5, model_rank=2)
        learner.fit_model(mdp, learner.WASSERSTEIN_LOSS, config)
        primals = [key for key, item in lp._memo.items() if item is None]
        assert len(primals) > 8
        assert all(isinstance(item, lp.LpSolution) for item in lp._memo.values() if item is not None)
        assert lp.memo_counts()["phase1_reused"] == lp.memo_counts()["answer_reused"] > 0
        learner.fit_model(mdp, learner.LossKind("vaml", 1.0), config)
        duals = [item for key, item in lp._memo.items() if key not in primals and not isinstance(item, lp.LpSolution)]
        assert duals and all(isinstance(start, lp._Phase1) and start.tab is not None for start in duals)
        assert all(lp._memo[key] is None for key in primals)

    def test_memo_arrays_reject_writes(self):
        for group in shared_constraint_groups()[::9]:
            for problem in group:
                sol = lp.solve_lp(problem)
                arrays = memo_arrays()
                assert arrays
                for arr in arrays:
                    assert not arr.flags.writeable
                    if arr.size:
                        with pytest.raises(ValueError, match="read-only"):
                            arr.flat[0] = 0
                returned = [v for v in (sol.x, sol.duals) if v is not None]
                assert not any(np.shares_memory(v, arr) for v in returned for arr in arrays)
        assert any(isinstance(item, lp._Phase1) for item in lp._memo.values())

    def test_caller_mutation_misses(self):
        rng = np.random.default_rng(71)
        edits = [
            lambda p: p.A.__setitem__((0, 1), p.A[0, 1] + 0.25),
            lambda p: p.rhs.__setitem__(0, p.rhs[0] - 0.5),
            lambda p: p.lower.__setitem__(1, -1.0),
            lambda p: p.upper.__setitem__(0, 0.25),
        ]
        for _ in range(10):
            for edit in edits:
                problem = TestSolutionContracts._random_problem(rng, 3, 3)
                lp.clear_memo()
                lp.solve_lp(problem)
                # A second objective makes the memo keep phase 1.
                lp.solve_lp(with_objective(problem, rng.normal(size=3)))
                edit(problem)  # the caller's own arrays, after the solves
                sol = lp.solve_lp(problem)
                assert not sol.phase1_reused
                copy = lp.LpProblem(
                    problem.objective, problem.A.copy(), problem.relation,
                    problem.rhs.copy(), problem.lower.copy(), problem.upper.copy(),
                )
                assert fingerprint(sol) == fingerprint(fresh_solve(copy))

    def test_least_recently_used_go_first_and_size_cap(self, monkeypatch):
        default_cap = lp._MEMO_MAX_ELEMENTS
        rng = np.random.default_rng(73)
        problems = [TestSolutionContracts._random_problem(rng) for _ in range(10)]
        seconds = [with_objective(p, rng.normal(size=p.n_vars)) for p in problems]
        thirds = [with_objective(p, rng.normal(size=p.n_vars)) for p in problems]
        # A budget that holds a few of the ten constraint sets with their
        # phase 1 and answers: the least recently used went first.  Each
        # set leaves its first answer, its phase 1 (moved to the newest end
        # when the second objective keeps it) and its second answer.
        monkeypatch.setattr(lp, "_MEMO_BUDGET", 2_000)
        order = []
        for first, second in zip(problems, seconds):
            lp.solve_lp(first)
            lp.solve_lp(second)
            assert memo_held() == lp._memo_held <= lp._MEMO_BUDGET
            (constraints, one), (_, two) = lp._memo_keys(first), lp._memo_keys(second)
            order += [one, constraints, two]
        kept = list(lp._memo)
        assert 6 <= len(kept) < len(order)
        assert kept == order[len(order) - len(kept):]
        assert not any(item is None for item in lp._memo.values())
        # The newest phase 1 is reused, and the oldest was dropped and runs again.
        sol = lp.solve_lp(thirds[-1])
        assert sol.phase1_reused and not sol.answer_reused
        sol = lp.solve_lp(thirds[0])
        assert not sol.phase1_reused and not sol.answer_reused
        monkeypatch.setattr(lp, "_MEMO_BUDGET", 2**62)
        # With only "<=" rows, b >= 0 and lower bounds alone, the bound is
        # exact: 12 numbers of the problem's A, 12 of the standard-form A and
        # 4 x 8 of a tableau with a slack on every row and no artificial.
        # The LP is keyed under a cap of that size and not one less.
        tight = lp.LpProblem([1.0, 2.0, 0.5, 1.0], rng.uniform(0.1, 1.0, (3, 4)), lp.LEQ, [1.0, 2.0, 3.0], 0.0)
        for cap, stored in ((55, False), (56, True)):
            monkeypatch.setattr(lp, "_MEMO_MAX_ELEMENTS", cap)
            lp.clear_memo()
            lp.solve_lp(tight)
            lp.solve_lp(with_objective(tight, [1.0, 1.0, 1.0, 1.0]))
            assert bool(lp._memo) == stored
        assert len(lp._memo) == 3 and phase1_held(tight, constraint_item(tight)) == 56
        monkeypatch.setattr(lp, "_MEMO_MAX_ELEMENTS", default_cap)
        # The n = 20 W1 dual's tableau alone exceeds the cap: no key, no item.
        rng = np.random.default_rng(3)
        space = suites.random_metric_space(rng, 20, "plane")
        mu1, mu2 = suites.random_distribution(rng, 20), suites.random_distribution(rng, 20)
        recorded = []
        solve = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda p: recorded.append(p) or solve(p))
        transport.wasserstein_dual(mu1, mu2, space, 1.0)
        monkeypatch.setattr(lp, "solve_lp", solve)
        (big,) = recorded
        assert lp._memo_keys(big) is None
        before = list(lp._memo.items())
        for problem in (big, big, with_objective(big, -big.objective)):
            sol = lp.solve_lp(problem)
            assert not sol.phase1_reused and not sol.answer_reused
        assert list(lp._memo.items()) == before
        # Lowered caps: phase 1 is stored only when it fits, and it always does.
        for cap in (0, 40, 120, 400, 2_000):
            monkeypatch.setattr(lp, "_MEMO_MAX_ELEMENTS", cap)
            for problem, second in zip(problems, seconds):
                lp.clear_memo()
                lp.solve_lp(problem)
                lp.solve_lp(second)
                keys = lp._memo_keys(problem)
                assert (keys is None) == (not lp._memo)
                assert keys is None or phase1_held(problem, constraint_item(problem)) <= cap

    def test_threads_share_no_mutable_state(self, monkeypatch):
        # More threads than cores, switching often, all on a few constraint
        # sets, under a budget that drops items: a shared tableau or basis,
        # or a lost update of the items or their count, would change bits
        # or break the budget.
        groups = shared_constraint_groups()
        problems = [p for group in groups[-2:] + groups[:3] + groups[80:82] for p in group]
        expected = [fingerprint(fresh_solve(p)) for p in problems]
        # Every item of one pass, together, passes the budget, so the budget
        # drops items whatever the threads' order.
        lp.clear_memo()
        for problem in problems:
            lp.solve_lp(problem)
        one_pass = memo_held()
        budget = 4_000
        assert one_pass > budget
        lp.clear_memo()
        monkeypatch.setattr(lp, "_MEMO_BUDGET", budget)
        offsets = [0, 7, 13, 21] * 20

        def solve_all(offset):
            out = []
            for problem in problems[offset:] + problems[:offset]:
                sol = lp.solve_lp(problem)
                with lp._memo_lock:
                    assert memo_held() == lp._memo_held <= lp._MEMO_BUDGET
                out.append((fingerprint(sol), sol.phase1_reused, sol.answer_reused))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(solve_all, offset) for offset in offsets]
                runs = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for offset, run in zip(offsets, runs):
            assert [f for f, _, _ in run] == expected[offset:] + expected[:offset]
        assert any(reused and not answered for run in runs for _, reused, answered in run)
        assert any(answered for run in runs for _, _, answered in run)
        assert memo_held() == lp._memo_held <= budget < one_pass
        counts = lp.memo_counts()
        assert counts["solves"] == len(offsets) * len(problems)
        assert counts["phase1_reused"] == sum(reused for run in runs for _, reused, _ in run)
        assert counts["answer_reused"] == sum(answered for run in runs for _, _, answered in run)


class TestMemoKey:
    def test_equal_byte_streams_of_other_shapes_miss(self):
        # One row over five variables: A, rhs, lower and upper run to
        # 5 + 1 + 5 + 5 numbers' bytes, as the bounds of a problem with no
        # rows over eight variables do; with the objective, to 21, as the
        # bounds and objective of a rowless problem over seven variables do.
        # All three are "<=" problems, so only the shape tells them apart.
        row = lp.LpProblem([1.0, 2.0, 0.5, 1.0, 1.0], [[-2.0] * 5], lp.LEQ, [1.0], -1.0, 3.0)
        constraints = [row.A, row.rhs, row.lower, row.upper]
        stream = np.frombuffer(b"".join(a.tobytes() for a in constraints))
        eight = lp.LpProblem(np.ones(8), np.zeros((0, 8)), lp.LEQ, [], stream[:8], stream[8:])
        stream = np.frombuffer(b"".join(a.tobytes() for a in constraints + [row.objective]))
        seven = lp.LpProblem(stream[14:], np.zeros((0, 7)), lp.LEQ, [], stream[:7], stream[7:14])
        assert lp._memo_keys(eight)[0] != lp._memo_keys(row)[0]
        assert lp._memo_keys(seven)[1] != lp._memo_keys(row)[1]
        for other in (eight, seven):
            lp.clear_memo()
            lp.solve_lp(row)
            # A second objective makes the memo keep phase 1.
            lp.solve_lp(with_objective(row, [1.0] * 5))
            sol = lp.solve_lp(other)
            assert sol.status == lp.OPTIMAL
            assert not sol.phase1_reused and not sol.answer_reused
            assert fingerprint(sol) == fingerprint(fresh_solve(other))

    def test_constraint_data_one_ulp_or_zero_sign_away_misses(self):
        # TestAnswerMemo checks the objective; this checks the constraint side,
        # the relation included.
        base = lp.LpProblem([1.0, 0.0, 2.0], [[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0]], lp.LEQ,
                            [3.0, 1.0], 0.0, 2.0)
        variants = [
            lp.LpProblem(base.objective, base.A, lp.EQ, base.rhs, base.lower, base.upper),
            lp.LpProblem(base.objective, base.A, base.relation, [3.0, np.nextafter(1.0, 2.0)], base.lower, base.upper),
            lp.LpProblem(base.objective, [[1.0, 1.0, 1.0], [-1.0, 1.0, -0.0]], base.relation, base.rhs, 0.0, 2.0),
            lp.LpProblem(base.objective, base.A, base.relation, base.rhs, [0.0, -0.0, 0.0], base.upper),
            lp.LpProblem(base.objective, base.A, base.relation, base.rhs, 0.0, [2.0, 2.0, np.nextafter(2.0, 3.0)]),
        ]
        for problem in variants:
            lp.clear_memo()
            lp.solve_lp(base)
            lp.solve_lp(with_objective(base, [0.5, 1.0, 1.0]))
            sol = lp.solve_lp(problem)
            assert not sol.phase1_reused and not sol.answer_reused
            assert fingerprint(sol) == fingerprint(fresh_solve(problem))


class TestAnswerMemo:
    def test_hits_match_fresh_solves_bytewise(self):
        groups = shared_constraint_groups()
        hits = []
        for group in groups:
            lp.clear_memo()
            first = [lp.solve_lp(problem) for problem in group]
            again = [lp.solve_lp(problem) for problem in group]
            assert not any(sol.answer_reused for sol in first)
            assert all(sol.answer_reused and sol.phase1_reused for sol in again)
            for problem, sol, hit in zip(group, first, again):
                assert fingerprint(hit) == fingerprint(sol) == fingerprint(fresh_solve(problem))
            hits.append(again)
        # The redundant row is dropped and the drive-out pivot counted on hits too.
        assert all(sol.duals.shape == (2,) for sol in hits[-4])
        assert all(sol.pivots[0] == 1 for sol in hits[-3])
        hits = [sol for group in hits for sol in group]
        assert {sol.status for sol in hits} == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        # Crossed bounds are infeasible before phase 1; that answer is kept too.
        crossed = lp.LpProblem([1.0, 1.0], [[1.0, 1.0]], lp.LEQ, [4.0], [0.0, 2.0], [1.0, 1.0])
        assert fingerprint(lp.solve_lp(crossed)) == fingerprint(lp.solve_lp(crossed))
        assert lp.solve_lp(crossed).answer_reused

    def test_reused_exactly_on_byte_identical_repeats(self, monkeypatch):
        rng = np.random.default_rng(79)
        pool = [TestSolutionContracts._random_problem(rng) for _ in range(12)]
        pool += [with_objective(p, rng.normal(size=p.n_vars)) for p in pool[:6]]
        calls = {"phase1": 0, "simplex": 0}
        phase1, run_simplex = lp._phase1, lp._run_simplex

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(lp, "_phase1", counting("phase1", phase1))
        monkeypatch.setattr(lp, "_run_simplex", counting("simplex", run_simplex))
        seen = set()
        for i in rng.integers(0, len(pool), size=80):
            p = pool[i]
            # A new LpProblem from copies: equal bytes, no shared objects.
            problem = lp.LpProblem(
                p.objective.copy(), p.A.copy(), p.relation, p.rhs.copy(), p.lower.copy(), p.upper.copy()
            )
            before = dict(calls)
            sol = lp.solve_lp(problem)
            assert sol.answer_reused == (i in seen)
            if sol.answer_reused:
                assert sol.phase1_reused
                assert calls == before
            else:
                assert calls["phase1"] == before["phase1"] + (not sol.phase1_reused)
            seen.add(i)
        counts = lp.memo_counts()
        assert counts["solves"] == 80
        assert counts["answer_reused"] == 80 - len(seen)
        lp.clear_memo()
        assert lp.memo_counts() == {"solves": 0, "phase1_reused": 0, "answer_reused": 0}
        assert not lp._memo and lp._memo_held == 0

    def test_objective_one_ulp_or_zero_sign_away_misses(self):
        base = lp.LpProblem([1.0, 0.0, 2.0], [[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0]], lp.LEQ,
                            [3.0, 1.0], 0.0, 2.0)
        variants = [
            [np.nextafter(1.0, 2.0), 0.0, 2.0],
            [1.0, 0.0, np.nextafter(2.0, 0.0)],
            [1.0, -0.0, 2.0],
        ]
        for objective in variants:
            lp.clear_memo()
            lp.solve_lp(base)
            # A second objective makes the memo keep phase 1.
            lp.solve_lp(with_objective(base, [0.5, 1.0, 1.0]))
            problem = with_objective(base, objective)
            assert problem.objective.tobytes() != base.objective.tobytes()
            sol = lp.solve_lp(problem)
            assert sol.phase1_reused and not sol.answer_reused
            assert fingerprint(sol) == fingerprint(fresh_solve(problem))
            assert lp.solve_lp(problem).answer_reused

    def test_returned_arrays_are_private_and_writable(self):
        problem = lp.LpProblem([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], lp.LEQ, [2.0, 1.0], 0.0)
        solutions = [lp.solve_lp(problem) for _ in range(3)]
        expected = fingerprint(solutions[0])
        assert [sol.answer_reused for sol in solutions] == [False, True, True]
        arrays = memo_arrays()
        returned = [a for sol in solutions for a in (sol.x, sol.duals)]
        for i, a in enumerate(returned):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in arrays + returned[:i])
        for sol in solutions:
            sol.x[:] = -7.0
            sol.duals[:] = np.nan
        assert fingerprint(lp.solve_lp(problem)) == expected

    def test_caller_mutation_misses(self):
        rng = np.random.default_rng(83)
        edits = [
            lambda p: p.objective.__setitem__(0, p.objective[0] + 0.5),
            lambda p: p.A.__setitem__((0, 1), p.A[0, 1] + 0.25),
            lambda p: p.rhs.__setitem__(0, p.rhs[0] - 0.5),
            lambda p: p.upper.__setitem__(0, 0.25),
        ]
        for _ in range(10):
            for k, edit in enumerate(edits):
                problem = TestSolutionContracts._random_problem(rng, 3, 3)
                lp.clear_memo()
                lp.solve_lp(problem)
                # A second objective makes the memo keep phase 1.
                lp.solve_lp(with_objective(problem, rng.normal(size=3)))
                edit(problem)  # the caller's own arrays, after the solves
                sol = lp.solve_lp(problem)
                assert not sol.answer_reused
                assert sol.phase1_reused == (k == 0)
                copy = lp.LpProblem(
                    problem.objective.copy(), problem.A.copy(), problem.relation,
                    problem.rhs.copy(), problem.lower.copy(), problem.upper.copy(),
                )
                assert fingerprint(sol) == fingerprint(fresh_solve(copy))

    def test_budget_holds_and_least_recently_used_go_first(self, monkeypatch):
        # A model of the policy: items in use order, dropped oldest first
        # until the recounted total fits the budget.  A lookup makes the
        # constraint item the newest, and an answer hit then its answer; a
        # miss files None for a new constraint set, or phase 1 for one seen
        # with one objective, then its answer.  Second and third objectives
        # add phase-1 results and hits, and W1 primals of one space add
        # items that share their A and nothing else.
        rng = np.random.default_rng(89)
        pool = [TestSolutionContracts._random_problem(rng) for _ in range(10)]
        pool += [with_objective(p, rng.normal(size=p.n_vars)) for p in pool[:4] for _ in range(2)]
        space = suites.random_metric_space(rng, 5, "plane")
        recorded = []
        solve = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda p: recorded.append(p) or solve(p))
        for _ in range(6):
            mu1, mu2 = suites.random_distribution(rng, 5), suites.random_distribution(rng, 5)
            transport.wasserstein_primal(mu1, mu2, space)
        monkeypatch.setattr(lp, "solve_lp", solve)
        pool += recorded
        monkeypatch.setattr(lp, "_MEMO_BUDGET", 2_500)
        lp.clear_memo()
        model, own, hits, phase1_hits, drops = collections.OrderedDict(), {}, 0, 0, 0
        for i in rng.integers(0, len(pool), size=300):
            constraints, whole = lp._memo_keys(pool[i])
            hit, start = whole in model, model.get(constraints)
            sol = lp.solve_lp(pool[i])
            assert sol.answer_reused == hit
            assert sol.phase1_reused == (hit or start == "phase 1")
            hits += hit
            phase1_hits += sol.phase1_reused and not hit
            if start is not None:
                model.move_to_end(constraints)
            if not hit and start != "phase 1":
                model.pop(constraints, None)
                model[constraints] = "none" if start is None else "phase 1"
            model.pop(whole, None)
            model[whole] = "answer"
            held = memo_held()
            assert held == lp._memo_held <= lp._MEMO_BUDGET
            # The policy kept the most recently used suffix of the model's
            # order, each item of the kind the model says, and stopped
            # dropping as soon as the total fit: the last item dropped would
            # not have fit.
            kept = list(lp._memo)
            order = list(model)
            assert kept == order[len(order) - len(kept):]
            assert [item_kind(item) for item in lp._memo.values()] == [model[key] for key in kept]
            if len(kept) < len(order):
                dropped = order[: len(order) - len(kept)]
                assert held + own[dropped[-1]] > lp._MEMO_BUDGET
                drops += len(dropped)
                for key in dropped:
                    del model[key]
            own.update((key, item_held(item)) for key, item in lp._memo.items())
        assert hits > 20 and phase1_hits > 5 and drops > 20
        # An item that cannot fit the budget alone is not kept: each counts
        # _ITEM_OVERHEAD = 128 numbers and its arrays.
        monkeypatch.setattr(lp, "_MEMO_BUDGET", 100)
        lp.clear_memo()
        big = lp.LpProblem(-np.ones(10), np.zeros((0, 10)), lp.LEQ, [], 0.0)
        assert lp._memo_keys(big) is not None
        lp.solve_lp(big)
        assert not lp._memo and lp._memo_held == 0
        assert not lp.solve_lp(big).answer_reused

    def test_phase1_in_use_outlives_older_answers(self, monkeypatch):
        # The W1 duals of one space share one constraint set, as the VAML
        # duals of a long fit do.  Every solve makes its phase-1 item the
        # newest but one, so under a budget that holds a few answers the
        # oldest answers go one by one and phase 1 stays.
        rng = np.random.default_rng(97)
        space = suites.random_metric_space(rng, 5, "plane")
        recorded = []
        solve = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda p: recorded.append(p) or solve(p))
        mu1, mu2 = suites.random_distribution(rng, 5), suites.random_distribution(rng, 5)
        transport.wasserstein_primal(mu1, mu2, space)
        for _ in range(30):
            mu1, mu2 = suites.random_distribution(rng, 5), suites.random_distribution(rng, 5)
            transport.wasserstein_dual(mu1, mu2, space, 1.0)
        monkeypatch.setattr(lp, "solve_lp", solve)
        primal, duals = recorded[0], recorded[1:]
        constraints = lp._memo_keys(duals[0])[0]
        assert all(lp._memo_keys(d)[0] == constraints for d in duals)
        expected = [fingerprint(fresh_solve(d)) for d in duals]
        monkeypatch.setattr(lp, "_MEMO_BUDGET", 1_500)
        lp.clear_memo()
        lp.solve_lp(primal)
        answers = [lp._memo_keys(d)[1] for d in duals]
        for k, dual in enumerate(duals):
            sol = lp.solve_lp(dual)
            assert sol.phase1_reused == (k >= 2)
            assert fingerprint(sol) == expected[k]
            assert memo_held() == lp._memo_held <= lp._MEMO_BUDGET
        kept = list(lp._memo)
        assert isinstance(lp._memo[constraints], lp._Phase1) and kept[-2] == constraints
        kept.remove(constraints)
        # The primal's items went first; the newest dual answers stay.
        assert 4 <= len(kept) < len(duals) - 2 and kept == answers[len(answers) - len(kept):]
        # A hit makes an answer the newest: two misses then drop the two after it.
        assert lp.solve_lp(duals[-len(kept)]).answer_reused
        lp.solve_lp(with_objective(duals[0], -duals[0].objective))
        lp.solve_lp(with_objective(duals[0], 2.0 * duals[0].objective))
        left = [key for key in lp._memo if key != constraints]
        assert answers[-len(kept)] in left
        assert answers[-len(kept) + 1] not in left and answers[-len(kept) + 2] not in left


class TestBlockPivot:
    # A gate of 0 sends every pivot through the block update, a gate above
    # any tableau through the dense one.  Both must return the same bits
    # after the same Bland pivot sequence, and leave each phase's final
    # tableau equal up to the sign of a zero.
    DENSE_ONLY = 2**62

    def test_random_lps_match_dense_path_bytewise(self, monkeypatch):
        rng = np.random.default_rng(43)
        problems = [TestSolutionContracts._random_problem(rng) for _ in range(200)]
        # The same rows without upper bounds add unbounded LPs.
        problems += [without_upper(p) for p in problems[:60]]
        # 40 rows on 100 boxed variables make 140 standard-form rows and a
        # tableau of 32k-37k elements, which the default gate sends through
        # the block update.
        problems += [TestSolutionContracts._random_problem(rng, 100, 40) for _ in range(3)]

        sizes, tableaux = [], []
        pivot, run_simplex = lp._pivot, lp._run_simplex

        def recording_pivot(tab, *args):
            sizes.append(tab.size)
            pivot(tab, *args)

        def recording_run(tab, *args):
            result = run_simplex(tab, *args)
            # Adding +0.0 turns -0.0 into +0.0, the one difference allowed.
            tableaux.append(hashlib.sha256((tab + 0.0).tobytes()).digest())
            return result

        monkeypatch.setattr(lp, "_pivot", recording_pivot)
        monkeypatch.setattr(lp, "_run_simplex", recording_run)

        def solve_all(gate):
            # A memo hit would skip the phase-1 pivots the count below expects.
            lp.clear_memo()
            monkeypatch.setattr(lp, "_BLOCK_MIN_SIZE", gate)
            sizes.clear()
            tableaux.clear()
            solutions = [lp.solve_lp(problem) for problem in problems]
            assert not any(sol.phase1_reused for sol in solutions)
            return [fingerprint(sol) for sol in solutions], list(tableaux)

        default = solve_all(lp._BLOCK_MIN_SIZE)
        assert min(sizes) < lp._BLOCK_MIN_SIZE <= max(sizes)
        assert len(sizes) == sum(sum(f[1]) for f in default[0])
        block = solve_all(0)
        dense = solve_all(self.DENSE_ONLY)
        assert block == dense
        assert default == dense
        solutions = dense[0]
        assert {f[0] for f in solutions} == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert all(f[0] == lp.OPTIMAL and f[1][1] > 100 for f in solutions[-3:])


def multiply_pivot(tab, basis, p, col, work, factors):
    """The pivot before its products went through np.dot and its block through
    one flat index, verbatim."""
    piv_row = tab[p]
    piv_row /= piv_row[col]
    factors[:] = tab[:, col]
    factors[p] = 0.0
    if tab.size < lp._BLOCK_MIN_SIZE:
        np.multiply(factors[:, None], piv_row, out=work)
        np.subtract(tab, work, out=tab)
    else:
        rows = factors.nonzero()[0]
        cols = piv_row.nonzero()[0]
        update = work.reshape(-1)[: rows.size * cols.size].reshape(rows.size, cols.size)
        np.multiply(factors[rows, None], piv_row[None, cols], out=update)
        block = (rows[:, None], cols)
        gathered = tab[block]
        gathered -= update
        tab[block] = gathered
    tab[:, col] = 0.0
    tab[p, col] = 1.0
    basis[p] = col


def positive_zeros(a):
    """The bytes of ``a`` with every -0.0 made +0.0."""
    return (a + 0.0).tobytes()


class TestBlasPivot:
    # _pivot forms its products with np.dot and updates its block through one
    # flat index; multiply_pivot is the same pivot with np.multiply and a
    # broadcast index.  Both must make the same Bland pivots and return the
    # same bits, and leave every tableau equal up to the sign of a zero.
    def test_single_pivots_match_multiply_pivot(self, monkeypatch):
        rng = np.random.default_rng(71)
        for shape, gate in itertools.product(((9, 30), (61, 491), (140, 260)), (lp._BLOCK_MIN_SIZE, 0, 2**62)):
            monkeypatch.setattr(lp, "_BLOCK_MIN_SIZE", gate)
            tab = rng.normal(size=shape) * (rng.random(shape) < 0.3)
            # Products of 1e-200 by 1e-200 underflow to zeros of either sign.
            tab[rng.random(shape) < 0.05] = 1e-200 * rng.choice([-1.0, 1.0])
            tab[1:, 2] = np.where(rng.random(shape[0] - 1) < 0.5, tab[1:, 2], 0.0)
            tab[0, 2] = 1.5
            tabs, bases = [tab.copy(), tab.copy()], [np.zeros(shape[0] - 1, dtype=int) for _ in range(2)]
            for pivot, t, basis in zip((lp._pivot, multiply_pivot), tabs, bases):
                pivot(t, basis, 0, 2, np.full(shape, np.nan), np.empty(shape[0]))
            assert positive_zeros(tabs[0]) == positive_zeros(tabs[1])
            assert bases[0].tobytes() == bases[1].tobytes()

    def test_random_lps_match_multiply_pivot_bytewise(self, monkeypatch):
        rng = np.random.default_rng(73)
        problems = [TestSolutionContracts._random_problem(rng) for _ in range(200)]
        problems += [without_upper(p) for p in problems[:60]]
        problems += [TestSolutionContracts._random_problem(rng, 100, 40) for _ in range(3)]
        sizes, tableaux = [], []
        pivot, run_simplex, default = lp._pivot, lp._run_simplex, lp._BLOCK_MIN_SIZE

        def recording_run(tab, *args):
            sizes.append(tab.size)
            result = run_simplex(tab, *args)
            tableaux.append(hashlib.sha256(positive_zeros(tab)).digest())
            return result

        monkeypatch.setattr(lp, "_run_simplex", recording_run)

        def solve_all(pivot_fn, gate):
            lp.clear_memo()
            monkeypatch.setattr(lp, "_pivot", pivot_fn)
            monkeypatch.setattr(lp, "_BLOCK_MIN_SIZE", gate)
            sizes.clear()
            tableaux.clear()
            solutions = [fingerprint(lp.solve_lp(problem)) for problem in problems]
            assert len(tableaux) > len(problems)
            return solutions, list(tableaux)

        # The default gate, every pivot through the block update, and every
        # pivot through the dense one.
        for gate in (default, 0, TestBlockPivot.DENSE_ONLY):
            new = solve_all(pivot, gate)
            assert new == solve_all(multiply_pivot, gate)
        assert min(sizes) < default <= max(sizes)
        solutions = new[0]
        assert {f[0] for f in solutions} == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert all(f[0] == lp.OPTIMAL and f[1][1] > 100 for f in solutions[-3:])


def gathered_basis(start, basis):
    """The basis matrix as the refactorization built it before it skipped the
    gather of an unchanged row set: at every standard-form row, then cut to
    the kept rows."""
    k = start.A.shape[1]
    struct = basis < k
    slack_of = start.slack_rows[basis[~struct] - k]
    B = np.zeros((start.A.shape[0], basis.shape[0]))
    B[:, struct] = start.A[:, basis[struct]]
    B[slack_of, ~struct] = start.sense[slack_of]
    return B[start.kept]


class TestRefactorization:
    @pytest.mark.parametrize("program, dropped", [("primal", 1), ("dual", 0)])
    def test_basis_matrix_matches_the_gathered_one_bytewise(self, monkeypatch, program, dropped):
        rng = suites.cell_rng(17, 8)
        space = suites.random_metric_space(rng, 8, "plane")
        mu1, mu2 = suites.random_distribution(rng, 8), suites.random_distribution(rng, 8)
        seen = {}
        phase1, run_simplex, solve = lp._phase1, lp._run_simplex, np.linalg.solve

        def recording_phase1(problem):
            seen["start"], work = phase1(problem)
            return seen["start"], work

        def recording_run(tab, basis, *args):
            seen["basis"] = basis  # the last run is phase 2, which leaves the final basis
            return run_simplex(tab, basis, *args)

        def recording_solve(a, b):
            seen.setdefault("B", a)
            return solve(a, b)

        monkeypatch.setattr(lp, "_phase1", recording_phase1)
        monkeypatch.setattr(lp, "_run_simplex", recording_run)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        if program == "primal":
            transport.wasserstein_primal(mu1, mu2, space)
        else:
            transport.wasserstein_dual(mu1, mu2, space, 1.0)
        start, B = seen["start"], seen["B"]
        assert start.kept.size == start.A.shape[0] - dropped
        expected = gathered_basis(start, seen["basis"])
        assert B.shape == expected.shape
        assert B.flags.c_contiguous
        assert B.tobytes() == expected.tobytes()


def reference_run_simplex(tab, basis, ncols, work):
    """The Bland loop before its per-pivot numpy calls were cut, verbatim."""
    m = tab.shape[0] - 1
    max_pivots = 5000 + 60 * (m + ncols)
    rhs = tab[:m, -1]
    ratios = np.empty(m)
    # The buffer's head, contiguous and shaped like tab; a 2-D slice of it
    # would make each pivot loop row by row, ~10% slower on small tableaux.
    work = work.reshape(-1)[: tab.size].reshape(tab.shape)
    for pivots in range(max_pivots):
        reduced = tab[-1, :ncols]
        cand = reduced < -lp.OPTIMALITY_TOL
        if not cand.any():
            return "optimal", pivots
        col = int(np.argmax(cand))
        column = tab[:m, col]
        pos = column > lp._PIVOT_TOL
        if not pos.any():
            return "unbounded", pivots
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=pos)
        theta = ratios.min()
        tied = np.flatnonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))
        p = int(tied[0]) if tied.size == 1 else int(tied[np.argmin(basis[tied])])
        reference_pivot(tab, basis, p, col, work)
    raise ArithmeticError("simplex did not terminate within its pivot budget")


def reference_pivot(tab, basis, p, col, work, factors=None):
    """The pivot before it took a scratch factor vector, verbatim; ``factors`` is unused."""
    piv_row = tab[p]
    piv_row /= piv_row[col]
    factors = tab[:, col].copy()
    factors[p] = 0.0
    if tab.size < lp._BLOCK_MIN_SIZE:
        np.multiply(factors[:, None], piv_row[None, :], out=work)
        np.subtract(tab, work, out=tab)
    else:
        rows = np.flatnonzero(factors)
        cols = np.flatnonzero(piv_row)
        update = work.reshape(-1)[: rows.size * cols.size].reshape(rows.size, cols.size)
        np.multiply(factors[rows, None], piv_row[None, cols], out=update)
        block = (rows[:, None], cols)
        gathered = tab[block]
        gathered -= update
        tab[block] = gathered
    tab[:, col] = 0.0
    tab[p, col] = 1.0
    basis[p] = col


def random_family():
    """Random boxed LPs, optimal or infeasible; the same rows without upper
    bounds, where unbounded LPs occur; and LPs without standard-form rows."""
    rng = np.random.default_rng(47)
    problems = [TestSolutionContracts._random_problem(rng) for _ in range(200)]
    problems += [without_upper(p) for p in problems[:60]]
    none = np.zeros((0, 2))
    problems += [
        lp.LpProblem([1.0, -1.0], none, lp.LEQ, []),  # unbounded
        lp.LpProblem([-1.0, -2.0], none, lp.LEQ, []),
    ]
    return problems


def w1_problems():
    """The primal and dual W1 LPs of the equivalence suite's sizes and spaces."""
    problems = []
    solve = lp.solve_lp

    def record(problem):
        problems.append(problem)
        return solve(problem)

    lp.solve_lp = record
    try:
        for n, kind in itertools.product(range(4, 16), ("line", "closure", "plane")):
            rng = suites.cell_rng(13, n)
            space = suites.random_metric_space(rng, n, kind)
            mu1, mu2 = suites.random_distribution(rng, n), suites.random_distribution(rng, n)
            transport.wasserstein_primal(mu1, mu2, space)
            transport.wasserstein_dual(mu1, mu2, space, 1.0)
    finally:
        lp.solve_lp = solve
    return problems


@pytest.fixture(scope="module")
def loop_problems():
    return random_family() + w1_problems()


class TestPivotLoop:
    def test_matches_reference_loop_bytewise(self, monkeypatch, loop_problems):
        # The reference runs the old loop and pivot; both runs must
        # make the same Bland pivots, return the same bits and leave each
        # phase's final tableau equal up to the sign of a zero.
        assert any(standardize_by_rows(p)[0].shape[0] == 0 for p in loop_problems)
        new_parts = (lp._run_simplex, lp._pivot)
        old_parts = (reference_run_simplex, reference_pivot)
        state = {}

        def recording_run(tab, basis, ncols, work):
            A, sense, c = state["A"], state["sense"], state["c"]
            if ncols == A.shape[1] + np.count_nonzero(sense):
                # Phase 2 starts from the cost row priced out over every
                # basic row in order, as the old loop over all rows did.
                c_min = np.zeros(ncols)
                c_min[: c.shape[0]] = -c
                row = np.append(c_min, 0.0)
                for p in range(tab.shape[0] - 1):
                    cb = c_min[basis[p]]
                    if cb != 0.0:
                        row -= cb * tab[p]
                assert row.tobytes() == tab[-1].tobytes()
                state["phase2"] += 1
            state["largest"] = max(state["largest"], tab.size)
            result = state["loop"](tab, basis, ncols, work)
            state["tableaux"].append(hashlib.sha256((tab + 0.0).tobytes()).digest())
            return result

        def solve_all(parts, gate):
            # Each run must make its own phase 1, not reuse the other run's.
            lp.clear_memo()
            state.update(loop=parts[0], tableaux=[], phase2=0, largest=0)
            monkeypatch.setattr(lp, "_BLOCK_MIN_SIZE", gate)
            monkeypatch.setattr(lp, "_run_simplex", recording_run)
            monkeypatch.setattr(lp, "_pivot", parts[1])
            solutions = []
            for problem in loop_problems:
                state["A"], _, state["sense"], _ = standardize_by_rows(problem)
                state["c"] = problem.objective
                sol = lp.solve_lp(problem)
                # Two bound-only LPs of the family share their constraints,
                # and the memo keeps phase 1 from the second objective on,
                # so no hit is expected; one would be the other run's.
                solutions.append(fingerprint(sol) + (sol.phase1_reused,))
            return solutions, state["tableaux"], state["phase2"], state["largest"]

        # The default gate sends the largest W1 duals through the block
        # update and everything else through the dense one.
        for gate in (lp._BLOCK_MIN_SIZE, 0):
            new = solve_all(new_parts, gate)
            assert new == solve_all(old_parts, gate)
        solutions, _, phase2, largest = new
        assert sum(f[-1] for f in solutions) == 0
        assert {f[0] for f in solutions} == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert phase2 > len(loop_problems) // 2
        assert largest >= lp._BLOCK_MIN_SIZE

    def test_no_floating_point_warnings(self, loop_problems):
        # Non-positive pivot-column entries must stay out of the ratio test
        # rather than divide and be discarded.
        with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
            warnings.simplefilter("error")
            statuses = {lp.solve_lp(problem).status for problem in loop_problems}
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    def test_suite_pivot_totals(self, monkeypatch):
        # Bland's rule fixes the pivot sequence and with it every reported
        # bit; these (phase 1, phase 2) totals are the solver's before its
        # per-pivot numpy calls were cut.
        solve = lp.solve_lp

        def totals(run):
            lp.clear_memo()
            pivots = []

            def counting_solve(problem):
                sol = solve(problem)
                pivots.append(sol.pivots)
                return sol

            monkeypatch.setattr(lp, "solve_lp", counting_solve)
            run()
            return tuple(map(sum, zip(*pivots)))

        mdp = generate_lipschitz_mdp(4, 2, 0.9, 0.5, seed=3)
        config = learner.FitConfig(iters=2, step_size=0.5)
        assert totals(lambda: suites.equivalence_suite(seed=11, trials=2)) == (315, 545)
        assert totals(lambda: learner.fit_model(mdp, learner.WASSERSTEIN_LOSS, config)) == (1736, 1202)


def standardize_by_rows(problem):
    """Variable-by-variable, row-by-row reference for the standard form of
    lp._phase1: A, b, sense and q."""
    upper = [(j, hi - lo) for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper)) if hi < INF]
    rows = [a.copy() for a in problem.A]
    b = list(problem.rhs - problem.A @ problem.lower)
    sense = [float(problem.relation == lp.LEQ)] * problem.A.shape[0]
    for col, ub in upper:
        row = np.zeros(problem.n_vars)
        row[col] = 1.0
        rows.append(row)
        b.append(ub)
        sense.append(1.0)
    for i in range(len(b)):
        if b[i] < 0.0:
            rows[i], b[i], sense[i] = -rows[i], -b[i], -sense[i]
    A = np.array(rows).reshape(len(b), problem.n_vars)
    return A, np.array(b), np.array(sense), problem.lower


class TestStandardForm:
    def test_matches_row_by_row_reference(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            nv, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
            boxed = rng.random(nv) < 0.5  # a lower bound alone, or both bounds
            lower = rng.uniform(-2.0, 1.0, nv)
            upper = np.where(boxed, rng.uniform(-1.0, 3.0, nv), INF)
            lower[boxed] = np.minimum(lower, upper)[boxed]
            relation = rng.choice([lp.LEQ, lp.EQ])
            A, rhs = rng.normal(size=(m, nv)), rng.normal(size=m)
            problem = lp.LpProblem(rng.normal(size=nv), A, relation, rhs, lower, upper)
            start, _ = lp._phase1(problem)
            parts = (start.A, start.b, start.sense, start.q)
            for got, want in zip(parts, standardize_by_rows(problem)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            # The memo makes q read-only; the caller's bounds stay writable.
            assert not np.shares_memory(start.q, problem.lower)
