"""Dense two-phase simplex solver for small linear programs.

Maximizes ``objective @ x`` subject to ``A @ x (relations) rhs`` row by
row and ``lower <= x <= upper``, all given as arrays.  Everything is
converted to equality standard form with nonnegative variables, phase 1
drives artificial variables out, and phase 2 optimizes the real
objective.  The final basis is re-factorized against the original data
so the returned point is certified feasible rather than inherited from
accumulated tableau arithmetic.

Pivoting follows Bland's rule throughout (lowest eligible entering
index, ratio-test ties broken by lowest basis variable index), which
makes the solver deterministic and provably cycle-free; the problem
sizes here are small enough that robustness is worth more than pivot
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LEQ, EQ, GEQ = "<=", "==", ">="

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
_PIVOT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective @ x subject to A @ x (relations) rhs, lower <= x <= upper.

    ``A`` is an (m, n_vars) matrix, ``relations`` holds one code per row
    from {"<=", "==", ">="} and ``rhs`` one value per row; a problem
    without constraints has ``A`` of shape (0, n_vars).  ``lower`` and
    ``upper`` broadcast to (n_vars,), where -inf / +inf mean no bound; the
    default is free variables.
    """

    objective: np.ndarray
    A: np.ndarray
    relations: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray | float = -np.inf
    upper: np.ndarray | float = np.inf

    def __post_init__(self):
        c = np.array(self.objective, dtype=float).ravel()
        if c.size == 0:
            raise ValueError("objective must have at least one variable")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite coefficients")
        nv = c.shape[0]
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[1] != nv:
            raise ValueError(f"constraint matrix {A.shape} needs {nv} coefficients per row")
        rel = np.array(self.relations, dtype=str).ravel()
        rhs = np.array(self.rhs, dtype=float).ravel()
        if rel.shape[0] != A.shape[0] or rhs.shape[0] != A.shape[0]:
            raise ValueError(
                f"got {rel.shape[0]} relations and {rhs.shape[0]} right-hand sides "
                f"for {A.shape[0]} constraint rows"
            )
        bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(rhs)))
        if bad.size:
            raise ValueError(f"constraint {bad[0]} contains non-finite coefficients")
        bad = np.flatnonzero((rel != LEQ) & (rel != EQ) & (rel != GEQ))
        if bad.size:
            raise ValueError(f"constraint {bad[0]} has unknown relation {str(rel[bad[0]])!r}")
        lo = np.empty(nv)
        hi = np.empty(nv)
        try:
            lo[...] = self.lower
            hi[...] = self.upper
        except ValueError:
            raise ValueError(f"bounds do not broadcast to {nv} variables") from None
        # NaN fails both comparisons, as does an infinity on the wrong side.
        bad = np.flatnonzero(~((lo < np.inf) & (hi > -np.inf)))
        if bad.size:
            raise ValueError(f"bound for variable {bad[0]} is NaN or infinite on the wrong side")
        names = ("objective", "A", "relations", "rhs", "lower", "upper")
        for name, value in zip(names, (c, A, rel, rhs, lo, hi)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


def _sense(relations):
    """Per row: +1 for "<=", -1 for ">=", 0 for "=="; the sign of its slack."""
    return (relations == LEQ).astype(float) - (relations == GEQ)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome; x and the objective are present only when optimal.

    ``duals`` are the equality prices of the internal standard form and
    ``dual_objective_value`` is their independently re-factorized price-out
    of the optimum, which must agree with ``objective_value``.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    dual_objective_value: float | None = None


class _Standard:
    """Equality standard form plus the affine map back to original variables.

    Each standard column is a signed copy of one original variable:
    x = q + scatter(signs * u over src), which keeps the transform free of
    dense matrix products.  ``sense`` is the slack sign of each row.
    """

    def __init__(self, A, b, sense, c, src, signs, q, offset):
        self.A = A
        self.b = b
        self.sense = sense
        self.c = c
        self.src = src
        self.signs = signs
        self.q = q
        self.offset = offset

    def recover(self, u):
        x = self.q.copy()
        np.add.at(x, self.src, self.signs * u)
        return x


def _standardize(problem: LpProblem):
    """Shift/split variables to u >= 0 and normalize rows to b >= 0.

    A variable with a lower bound becomes one column shifted by it, one
    with only an upper bound one negated column, and a free variable a
    ``+`` and a ``-`` column; both bounds add a "<=" row on the column.
    Returns None when a variable's bounds cross (trivially infeasible).
    """
    lo, hi = problem.lower, problem.upper
    has_lo, has_hi = lo > -np.inf, hi < np.inf
    boxed = has_lo & has_hi
    if np.any(boxed & (hi < lo - FEASIBILITY_TOL)):
        return None
    free = ~has_lo & ~has_hi
    width = 1 + free
    src = np.repeat(np.arange(problem.n_vars), width)
    first = np.cumsum(width) - width
    signs = np.ones(src.shape[0])
    signs[first[~has_lo & has_hi]] = -1.0
    signs[first[free] + 1] = -1.0
    q = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    upper_cols = first[boxed]
    k = src.shape[0]

    m0 = problem.A.shape[0]
    m = m0 + upper_cols.shape[0]
    A = np.zeros((m, k))
    b = np.empty(m)
    A[:m0] = problem.A[:, src]
    A[:m0] *= signs
    b[:m0] = problem.rhs - problem.A @ q
    A[np.arange(m0, m), upper_cols] = 1.0
    b[m0:] = (hi - lo)[boxed]
    sense = np.concatenate([_sense(problem.relations), np.ones(m - m0)])

    flip = b < 0.0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    sense[flip] = -sense[flip]

    c = problem.objective[src] * signs
    offset = float(problem.objective @ q)
    return _Standard(A, b, sense, c, src, signs, q, offset)


def _run_simplex(tab, basis, ncols):
    """Minimize the objective row in place under Bland's rule.

    Returns 'optimal' or 'unbounded'.  The pivot budget is a guard
    against implementation bugs; Bland's rule itself cannot cycle.
    """
    m = tab.shape[0] - 1
    max_pivots = 5000 + 60 * (m + ncols)
    rhs = tab[:m, -1]
    ratios = np.empty(m)
    work = np.empty_like(tab)
    for _ in range(max_pivots):
        reduced = tab[-1, :ncols]
        cand = reduced < -OPTIMALITY_TOL
        if not cand.any():
            return "optimal"
        col = int(np.argmax(cand))
        column = tab[:m, col]
        pos = column > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=pos)
        theta = ratios.min()
        tied = np.flatnonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))
        p = int(tied[0]) if tied.size == 1 else int(tied[np.argmin(basis[tied])])
        _pivot(tab, basis, p, col, work)
    raise ArithmeticError("simplex did not terminate within its pivot budget")


def _pivot(tab, basis, p, col, work):
    """Pivot on tab[p, col]; ``work`` is a scratch array shaped like ``tab``."""
    piv_row = tab[p]
    piv_row /= piv_row[col]
    factors = tab[:, col].copy()
    factors[p] = 0.0
    np.multiply(factors[:, None], piv_row[None, :], out=work)
    np.subtract(tab, work, out=tab)
    tab[:, col] = 0.0
    tab[p, col] = 1.0
    basis[p] = col


def _solve_unconstrained(problem, std):
    if np.any(std.c > OPTIMALITY_TOL):
        return LpSolution(status=UNBOUNDED)
    x = std.recover(np.zeros(std.src.shape[0]))
    value = float(problem.objective @ x)
    return LpSolution(OPTIMAL, x, value, np.zeros(0), std.offset)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP to a certified-feasible optimal vertex.

    Infeasibility and unboundedness are reported through the status, not
    by raising; only malformed input raises.
    """
    std = _standardize(problem)
    if std is None:
        return LpSolution(status=INFEASIBLE)
    m, k = std.A.shape
    if m == 0:
        return _solve_unconstrained(problem, std)

    # Columns: structural, one slack per inequality row (+1 for "<=", -1 for
    # ">="), one artificial per "==" or ">=" row.  "<=" rows start on their
    # slack, the others on their artificial.
    slack_rows = np.flatnonzero(std.sense)
    art_rows = np.flatnonzero(std.sense <= 0.0)
    art_start = k + slack_rows.shape[0]
    na = art_rows.shape[0]
    ncols = art_start + na
    slack_cols = np.arange(k, art_start)
    art_cols = np.arange(art_start, ncols)

    full = np.zeros((m, ncols))
    full[:, :k] = std.A
    full[slack_rows, slack_cols] = std.sense[slack_rows]
    full[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :ncols] = full
    tab[:m, -1] = std.b

    kept = np.arange(m)
    if na:
        # Phase 1 minimizes the artificial total; starting reduced costs are
        # the negated column sums over the artificial rows.
        for i in art_rows:
            tab[-1] -= tab[i]
        tab[-1, art_start:ncols] = 0.0
        status = _run_simplex(tab, basis, ncols)
        if status != "optimal":
            raise ArithmeticError("phase-1 subproblem reported unbounded")
        phase1 = -tab[-1, -1]
        if phase1 > FEASIBILITY_TOL * (1.0 + std.b.max(initial=0.0)):
            return LpSolution(status=INFEASIBLE)
        drop = []
        for p in range(m):
            if basis[p] >= art_start:
                row = np.abs(tab[p, :art_start])
                j = int(np.argmax(row))
                if row[j] > _PIVOT_TOL:
                    _pivot(tab, basis, p, j, np.empty_like(tab))
                else:
                    drop.append(p)
        if drop:
            tab = np.delete(tab, drop, axis=0)
            basis = np.delete(basis, drop)
            kept = np.delete(kept, drop)
            m = basis.shape[0]
        tab = np.hstack([tab[:, :art_start], tab[:, -1:]])
        ncols = art_start

    c_min = np.zeros(ncols)
    c_min[:k] = -std.c
    tab[-1, :ncols] = c_min
    tab[-1, -1] = 0.0
    for p in range(m):
        cb = c_min[basis[p]]
        if cb != 0.0:
            tab[-1] -= cb * tab[p]
    status = _run_simplex(tab, basis, ncols)
    if status == "unbounded":
        return LpSolution(status=UNBOUNDED)

    # Re-factorize the final basis against the original standard-form data
    # so the answer does not inherit accumulated tableau drift.
    full_ns = full[:, :art_start][kept]
    b_kept = std.b[kept]
    B = full_ns[:, basis]
    try:
        x_basic = np.linalg.solve(B, b_kept)
        y_min = np.linalg.solve(B.T, c_min[basis])
    except np.linalg.LinAlgError:
        x_basic = tab[:m, -1].copy()
        y_min = np.linalg.lstsq(B.T, c_min[basis], rcond=None)[0]
    u = np.zeros(ncols)
    u[basis] = x_basic
    u[np.abs(u) < 1e-12] = 0.0
    if u.min(initial=0.0) < -1e-7:
        raise ArithmeticError("refined basic solution lost nonnegativity")

    x = std.recover(u[:k])
    value = float(problem.objective @ x)
    duals = -y_min
    dual_value = float(duals @ b_kept) + std.offset
    _certify(problem, x)
    return LpSolution(OPTIMAL, x, value, duals, dual_value)


def _certify(problem, x):
    residual = problem.A @ x - problem.rhs
    sense = _sense(problem.relations)
    violation = np.where(sense == 0.0, np.abs(residual), sense * residual)
    tol = FEASIBILITY_TOL * np.maximum(1.0, np.abs(problem.rhs))
    bad = np.flatnonzero(violation > tol)
    if bad.size:
        raise ArithmeticError(f"constraint {bad[0]} violated by {violation[bad[0]]:.3e}")
    bad = np.flatnonzero(x < problem.lower - FEASIBILITY_TOL)
    if bad.size:
        raise ArithmeticError(f"lower bound on variable {bad[0]} violated")
    bad = np.flatnonzero(x > problem.upper + FEASIBILITY_TOL)
    if bad.size:
        raise ArithmeticError(f"upper bound on variable {bad[0]} violated")
