"""Dense two-phase simplex solver for small linear programs.

Maximizes ``objective @ x`` subject to ``A @ x (relations) rhs`` row by
row and ``lower <= x <= upper``, all given as arrays.  It takes the two
shapes the W1 programs pose: rows are "<=" or "==", every lower bound is
finite and every upper bound finite or +inf.  The standard form shifts
each variable by its lower bound to u >= 0, adds a "<=" row per finite
upper bound and negates the rows whose right-hand side is negative;
phase 1 drives the artificial variables of the "==" and negated rows
out, and phase 2 optimizes the real objective.  The final basis is
re-factorized against the original data so the returned point is
certified feasible rather than inherited from accumulated tableau
arithmetic.  Problems without constraint rows take the same path as the
others.  A solve holds one dense tableau and one scratch buffer of the
same size, and it releases both before the basis matrix is gathered from
the standard form.  That matrix is cut to the rows phase 1 kept only
when phase 1 dropped one, so the refactorization of a large dual holds
the basis matrix and LAPACK's own copy of it, and no third matrix of its
size.

Pivoting follows Bland's rule throughout (lowest eligible entering
index, ratio-test ties broken by lowest basis variable index), which
makes the solver deterministic and provably cycle-free; the problem
sizes here are small enough that robustness is worth more than pivot
counts.  The pivot sequence fixes every returned bit.

A pivot's rank-1 update changes only the block of rows with a nonzero
entry in the pivot column and columns with a nonzero entry in the pivot
row, a few percent of a transport tableau or less.  On tableaux of
``_BLOCK_MIN_SIZE`` elements or more (W1 duals from about n = 14,
primals from about n = 25) ``_pivot`` updates that block alone, entry by
entry as the dense update does, so the pivot sequence and the results
stay bit-identical.  Below the gate, one dense update of a tableau that
fits in cache is faster than gathering and scattering the block.

Both paths form the rank-1 products with ``np.dot`` of a column by a row,
a BLAS product with an inner dimension of one.  Each entry is a single
product rounded once, exactly as ``np.multiply`` rounds it; a kernel may
add it to a zeroed output, which turns a -0.0 product into +0.0 and
changes nothing else.  The subtraction can then leave the opposite sign
on a zero tableau entry, which, as for the entries outside the block,
no pivot decision and no returned value reads.  Below the gate the
product has fewer than ``_BLOCK_MIN_SIZE`` elements, where OpenBLAS runs
it on the calling thread.

Below the gate a tableau has at most a few thousand elements, so a
pivot's arithmetic takes a few microseconds and its cost is the fixed
count of numpy calls around it.  ``_run_simplex`` therefore allocates its
masks, ratios and factor vector once and fills them with ``out=`` ufuncs
and ndarray methods.  Row loops stay loops: a row reduction such as
``-R.sum(axis=0)`` adds in a different order than ``tab[-1] -= tab[i]``
row by row and can differ in the last bit.

Standardization, the tableau build and phase 1 read only the constraint
data, never the objective, and a basis that phase 1 finds stays feasible
for any cost vector.  A module-level memo, one ordered dict in least
recently used order, keeps flat items under SHA-256 digests: of ``A``'s
shape and the bytes of ``A``, ``relations``, ``rhs``, ``lower`` and
``upper`` for a constraint set, and of all that and the objective's
bytes for an LP, so one ulp or a -0.0 for +0.0 anywhere misses.  Under
an LP's digest the memo keeps its certified answer: a byte-identical
repeat, such as each cell a finite-difference bump leaves unchanged,
gets it back, the bits a fresh solve of the deterministic solver would
return.  Under a constraint digest it keeps None while the set has been
solved with one objective, and once it comes back with a second, the
standard form and the tableau, basis, kept rows and pivot count after
phase 1 (or the "infeasible" verdict); later objectives run phase 2, the
refactorization and the certificate from a copy of it.  A W1 primal,
seen with one objective, copies no tableau.  An LP whose phase-1 result
could exceed ``_MEMO_MAX_ELEMENTS`` numbers (1 MiB) is not keyed.  Each
item counts its arrays and ``_ITEM_OVERHEAD`` numbers, and while all
count more than ``_MEMO_BUDGET`` (2 MiB) the least recently used item
goes.  Every lookup refreshes the constraint item, so a phase 1 in
steady use, such as the dual constraint set of a long VAML fit,
outlives its older answers.  Stored arrays are read-only, each solve
works on its own copies, and a lock guards the memo, so threads may
solve concurrently.

A solve runs with numpy's overflow and invalid-value warnings off: data
near the largest float can overflow the tableau, and the solver raises
``ArithmeticError`` instead once the tableau or the refactorized values
stop being finite.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LEQ, EQ = "<=", "=="

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
# Tableau size (elements) from which _pivot updates only the nonzero block.
_BLOCK_MIN_SIZE = 30_000
# LP memo: the most numbers an LP's phase-1 result may come to (counting A,
# the standard-form matrix and the tableau) for the LP to be kept, and the most
# all items hold together (2 MiB), each counting _ITEM_OVERHEAD numbers, about
# 1 KiB, for its key and Python objects besides its arrays.
_MEMO_MAX_ELEMENTS = 131_072
_MEMO_BUDGET = 262_144
_ITEM_OVERHEAD = 128
# What every ArithmeticError that overflow raises says.
_OVERFLOW = "the LP's arithmetic overflowed: its tableau or solution is no longer finite"


class SingularBasisError(ArithmeticError):
    """The optimal basis is singular, so it cannot be re-factorized against
    the original data and the answer cannot be certified."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective @ x subject to A @ x (relations) rhs, lower <= x <= upper.

    ``A`` is an (m, n_vars) matrix, ``relations`` holds one code per row,
    "<=" or "==", and ``rhs`` one value per row; a problem without
    constraints has ``A`` of shape (0, n_vars).  A ">=" row is posed as
    the "<=" row of its negation.  ``lower`` and ``upper`` broadcast to
    (n_vars,): every lower bound is finite, 0.0 by default, and an upper
    bound is finite or +inf, which means none.
    """

    objective: np.ndarray
    A: np.ndarray
    relations: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray | float = 0.0
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
        bad = np.flatnonzero((rel != LEQ) & (rel != EQ))
        if bad.size:
            raise ValueError(f"constraint {bad[0]} has relation {str(rel[bad[0]])!r}, not '<=' or '=='")
        lo = np.empty(nv)
        hi = np.empty(nv)
        try:
            lo[...] = self.lower
            hi[...] = self.upper
        except ValueError:
            raise ValueError(f"bounds do not broadcast to {nv} variables") from None
        # NaN fails both tests, as does an infinite lower bound or a -inf upper one.
        bad = np.flatnonzero(~(np.isfinite(lo) & (hi > -np.inf)))
        if bad.size:
            raise ValueError(
                f"bound for variable {bad[0]} is NaN or infinite; a lower bound must be "
                "finite and an upper bound finite or +inf"
            )
        names = ("objective", "A", "relations", "rhs", "lower", "upper")
        for name, value in zip(names, (c, A, rel, rhs, lo, hi)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome; x and the objective are present only when optimal.

    ``duals`` are the equality prices of the internal standard form, one
    per row phase 1 kept: the problem's rows, then one row per finite upper
    bound, where a row whose right-hand side less ``A @ lower`` was negative
    is priced as its negation.  ``dual_objective_value`` is their
    independently re-factorized price-out of the optimum, which must agree
    with ``objective_value``.  ``pivots`` counts the simplex pivots of
    phase 1 (artificial drive-out included) and of phase 2.
    ``phase1_reused`` is true when phase 1 came from the memo's item for
    the constraint set (``pivots`` still reports its count), and
    ``answer_reused``, which implies it, when the whole answer came from
    the item an earlier certified solve of the same LP left.  Every field
    has the bits a fresh solve gives either way, and ``x`` and ``duals``
    are the caller's own writable arrays.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    dual_objective_value: float | None = None
    pivots: tuple[int, int] = (0, 0)
    phase1_reused: bool = False
    answer_reused: bool = False


def _run_simplex(tab, basis, ncols, work):
    """Minimize the objective row in place under Bland's rule.

    Returns 'optimal' or 'unbounded' and the number of pivots made;
    ``work`` is a contiguous scratch buffer of at least ``tab.size``
    elements.  The pivot budget is a guard against implementation bugs;
    Bland's rule itself cannot cycle.
    """
    m = tab.shape[0] - 1
    max_pivots = 5000 + 60 * (m + ncols)
    reduced = tab[-1, :ncols]
    rhs = tab[:m, -1]
    # Masks, ratios and pivot-column factors live for the whole run; a pivot
    # fills them with out= ufuncs and ndarray methods, no wrapper calls.
    cand = np.empty(ncols, dtype=bool)
    pos = np.empty(m, dtype=bool)
    tied = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    factors = np.empty(m + 1)
    # The buffer's head, contiguous and shaped like tab; a 2-D slice of it
    # would make each pivot loop row by row, ~10% slower on small tableaux.
    work = work.reshape(-1)[: tab.size].reshape(tab.shape)
    for pivots in range(max_pivots):
        np.less(reduced, -OPTIMALITY_TOL, out=cand)
        col = int(cand.argmax())
        if not cand[col]:
            return "optimal", pivots
        if not m:  # no row limits the entering column
            return "unbounded", pivots
        column = tab[:m, col]
        np.greater(column, _PIVOT_TOL, out=pos)
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=pos)
        # argmin is the first row of least ratio, so it is positive whenever
        # any row is, unless every positive ratio overflowed to inf.
        p = int(ratios.argmin())
        if not pos[p] and not pos.any():
            return "unbounded", pivots
        theta = ratios.item(p)
        np.less_equal(ratios, theta + 1e-12 * (1.0 + abs(theta)), out=tied)
        idx = tied.nonzero()[0]
        # Ties go to the lowest basis index.  A NaN ratio ties with no row,
        # and once every positive ratio has overflowed every row ties.
        if idx.size != 1:
            if not idx.size or theta == np.inf:
                raise ArithmeticError(_OVERFLOW)
            p = int(idx[basis[idx].argmin()])
        _pivot(tab, basis, p, col, work, factors)
    raise ArithmeticError("simplex did not terminate within its pivot budget")


def _check_finite(a):
    """Raise ArithmeticError unless every entry of ``a`` is finite; min and max
    see a NaN or an infinity without a temporary array."""
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise ArithmeticError(_OVERFLOW)


def _pivot(tab, basis, p, col, work, factors):
    """Pivot on tab[p, col]; ``work`` is a contiguous scratch array of tab's size.

    ``factors`` is a scratch vector of tab's row count.  Every entry gets
    tab_ij - factors_i * piv_row_j, where factors is the pivot column with
    the pivot row's entry zeroed.  On large tableaux only the block of
    nonzero factors (the objective row included) and nonzero pivot-row
    entries (the RHS column included) is taken through one flat index,
    updated and put back.  Inside it each entry gets the same product and
    the same subtraction as in the dense update, so the bits agree; an
    entry outside it would only have a zero subtracted, which can flip the
    sign of a zero entry and nothing else.  The products come from
    ``np.dot`` of a column by a row: with an inner dimension of one, BLAS
    rounds each product once, as ``np.multiply`` does, and at most turns a
    -0.0 product into +0.0, which again can flip only the sign of a zero
    entry.  No pivot decision and no returned value reads that sign.
    """
    piv_row = tab[p]
    piv_row /= piv_row[col]
    factors[:] = tab[:, col]
    factors[p] = 0.0
    if tab.size < _BLOCK_MIN_SIZE:
        np.dot(factors[:, None], piv_row[None, :], out=work)
        np.subtract(tab, work, out=tab)
    else:
        rows = factors.nonzero()[0]
        cols = piv_row.nonzero()[0]
        update = work.reshape(-1)[: rows.size * cols.size].reshape(rows.size, cols.size)
        np.dot(factors.take(rows)[:, None], piv_row.take(cols)[None, :], out=update)
        block = np.add.outer(rows * tab.shape[1], cols)
        gathered = tab.take(block)
        gathered -= update
        tab.put(block, gathered)
    tab[:, col] = 0.0
    tab[p, col] = 1.0
    basis[p] = col


@dataclass(frozen=True, eq=False)
class _Phase1:
    """A constraint set's standard form and what phase 1 leaves for phase 2.

    ``A``, ``b`` and ``sense`` pose the constraints as equalities over
    u = x - q >= 0, q being the lower bounds, with b >= 0.  ``sense`` is
    the slack sign of each row: +1 for "<=", 0 for "==", and negated on
    the rows negated to b >= 0; ``slack_rows`` lists the rows with a
    slack.  ``tab`` is the tableau after phase 1 without artificial
    columns or redundant rows (phase 2 overwrites its cost row), ``basis``
    maps its rows to columns, ``kept`` lists the standard-form rows it
    keeps and ``pivots`` counts phase 1's pivots, drive-out included.
    ``tab``, ``basis`` and ``kept`` are None when phase 1 proved the LP
    infeasible.  Nothing here reads the objective.
    """

    A: np.ndarray
    b: np.ndarray
    sense: np.ndarray
    q: np.ndarray
    slack_rows: np.ndarray
    tab: np.ndarray | None
    basis: np.ndarray | None
    kept: np.ndarray | None
    pivots: int


# SHA-256 digest -> item, least recently used first.  An item is a certified
# answer with read-only arrays, under the digest of the constraint data and the
# objective; or, under the digest of the constraint data alone, the read-only
# _Phase1 of a constraint set solved with two objectives or more, or None while
# it has been solved with one.  _memo_held is the numbers all items count.
_memo: collections.OrderedDict = collections.OrderedDict()
_memo_held = 0
_counts = {"solves": 0, "phase1_reused": 0, "answer_reused": 0}
_memo_lock = threading.Lock()


def clear_memo():
    """Forget every stored phase-1 result and answer, and zero ``memo_counts()``."""
    global _memo_held
    with _memo_lock:
        _memo.clear()
        _memo_held = 0
        _counts.update(dict.fromkeys(_counts, 0))


def memo_counts() -> dict:
    """The solves since the last ``clear_memo()``, and how many of them came
    back with ``phase1_reused`` and with ``answer_reused`` set; an answer
    hit counts as a phase-1 hit too, as its flags say."""
    with _memo_lock:
        return dict(_counts)


def _memo_keys(problem):
    """The digests of the constraint data and of the whole LP, or None when
    its phase-1 result could be too large for the memo.

    The size bound counts the problem's A, the standard-form matrix and the
    tableau with a slack on every row but no artificial column, from the
    problem's shape and bounds alone.  The digests take A's shape first, so
    two LPs whose arrays run to the same bytes in different shapes differ.
    """
    m0, nv = problem.A.shape
    m = m0 + int(np.count_nonzero(problem.upper < np.inf))
    if m0 * nv + m * nv + (m + 1) * (nv + m + 1) > _MEMO_MAX_ELEMENTS:
        return None
    # LpProblem's arrays are C-contiguous but for A, which keeps the caller's order.
    digest = hashlib.sha256(str(problem.A.shape).encode())
    digest.update(np.ascontiguousarray(problem.A))
    for a in (problem.relations, problem.rhs, problem.lower, problem.upper):
        digest.update(a)
    constraints = digest.digest()
    digest.update(problem.objective)
    return constraints, digest.digest()


def _memo_lookup(keys):
    """What the memo holds for one solve, and whether to keep its phase 1.

    Returns (answer, start, keep): the stored answer of a byte-identical
    repeat or None, the stored phase-1 result or None, and ``keep`` true
    when the constraint set has been solved with one objective only, so
    that it came back with another.  Counts the solve; an unkeyed LP
    (``keys`` None) is only counted.
    """
    with _memo_lock:
        _counts["solves"] += 1
        if keys is None:
            return None, None, False
        constraints, whole = keys
        known = constraints in _memo
        if known:
            _memo.move_to_end(constraints)
        answer = _memo.get(whole)
        if answer is not None:
            _memo.move_to_end(whole)
            _counts["phase1_reused"] += 1
            _counts["answer_reused"] += 1
            return answer, None, False
        start = _memo.get(constraints)
        _counts["phase1_reused"] += start is not None
        return None, start, known and start is None


def _memo_store(keys, sol, start):
    """File a read-only copy of ``sol`` under the LP's digest and, unless the
    constraint digest holds a phase 1 already, ``start`` under it: a phase-1
    result phase 2 no longer writes, or None for a constraint set new to the
    memo.  Then the least recently used items go until all count at most
    ``_MEMO_BUDGET`` numbers.
    """
    global _memo_held
    answer = _with_copies(sol, phase1_reused=True, answer_reused=True)
    for a in _arrays(answer) + ([] if start is None else _arrays(start)):
        a.setflags(write=False)
    constraints, whole = keys
    with _memo_lock:
        if _memo.get(constraints) is None:
            _memo_put(constraints, start)
        _memo_put(whole, answer)
        while _memo_held > _MEMO_BUDGET:
            _memo_held -= _held(_memo.popitem(last=False)[1])


def _memo_put(key, item):
    """Make ``item`` the most recently used, under ``key``; the lock is held."""
    global _memo_held
    if key in _memo:
        _memo_held -= _held(_memo.pop(key))
    _memo[key] = item
    _memo_held += _held(item)


def _held(item):
    """The numbers one item counts: its arrays and ``_ITEM_OVERHEAD``."""
    return _ITEM_OVERHEAD + (0 if item is None else sum(a.size for a in _arrays(item)))


def _with_copies(sol, **changes):
    """``sol`` with fresh copies of x and the duals, and ``changes`` applied."""
    x, duals = (None if a is None else a.copy() for a in (sol.x, sol.duals))
    return dataclasses.replace(sol, x=x, duals=duals, **changes)


def _arrays(record):
    """The array fields of a dataclass instance, None fields left out."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return [v for v in values if isinstance(v, np.ndarray)]


def _phase1(problem):
    """Standardize the constraints, build the tableau and run phase 1.

    Returns the _Phase1 and a scratch buffer at least as large as the
    tableau, whose tableau and basis are the live ones that phase 2 goes
    on with; or (None, None) when a variable's bounds cross (trivially
    infeasible).
    """
    lo, hi = problem.lower, problem.upper
    if np.any(hi < lo - FEASIBILITY_TOL):
        return None, None
    # Shift x = lo + u, add a "<=" row per finite upper bound and negate the
    # rows with b < 0, so a negated "<=" row gets a slack of sign -1.
    upper_cols = np.flatnonzero(hi < np.inf)
    m0, k = problem.A.shape
    m = m0 + upper_cols.shape[0]
    A = np.zeros((m, k))
    b = np.empty(m)
    A[:m0] = problem.A
    b[:m0] = problem.rhs - problem.A @ lo
    A[np.arange(m0, m), upper_cols] = 1.0
    b[m0:] = (hi - lo)[upper_cols]
    sense = np.ones(m)
    sense[:m0] = problem.relations == LEQ
    flip = b < 0.0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    sense[flip] = -sense[flip]
    # The memo makes its phase-1 arrays read-only, so q is not the caller's.
    q = lo.copy()

    # Columns: structural, one slack per inequality row (+1 for "<=", -1 for
    # a negated "<=" row), one artificial per "==" or negated row.  "<=" rows
    # start on their slack, the others on their artificial.
    slack_rows = np.flatnonzero(sense)
    art_rows = np.flatnonzero(sense <= 0.0)
    art_start = k + slack_rows.shape[0]
    na = art_rows.shape[0]
    ncols = art_start + na
    slack_cols = np.arange(k, art_start)
    art_cols = np.arange(art_start, ncols)
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :k] = A
    tab[slack_rows, slack_cols] = sense[slack_rows]
    tab[art_rows, art_cols] = 1.0
    tab[:m, -1] = b
    work = np.empty_like(tab)

    kept = np.arange(m)
    pivots = 0
    if na:
        # Phase 1 minimizes the artificial total; starting reduced costs are
        # the negated column sums over the artificial rows.
        for i in art_rows:
            tab[-1] -= tab[i]
        tab[-1, art_start:ncols] = 0.0
        status, pivots = _run_simplex(tab, basis, ncols, work)
        _check_finite(tab)
        if status != "optimal":
            raise ArithmeticError("phase-1 subproblem reported unbounded")
        phase1 = -tab[-1, -1]
        if phase1 > FEASIBILITY_TOL * (1.0 + b.max(initial=0.0)):
            return _Phase1(A, b, sense, q, slack_rows, None, None, None, pivots), None
        # Drive the remaining artificials out; a row with no other nonzero
        # is redundant and is dropped.
        factors = np.empty(m + 1)
        for p in np.flatnonzero(basis >= art_start):
            row = np.abs(tab[p, :art_start])
            j = int(np.argmax(row))
            if row[j] > _PIVOT_TOL:
                _pivot(tab, basis, p, j, work, factors)
                pivots += 1
        kept = np.flatnonzero(basis < art_start)
        basis = basis[kept]
        # With the RHS moved next to the slacks, one gather drops those rows
        # and the artificial columns.  The old tableau becomes the scratch
        # buffer, so no third tableau-sized array is ever alive.
        tab[:, art_start] = tab[:, -1]
        work = None
        tab, work = tab[np.append(kept, -1), : art_start + 1], tab
    return _Phase1(A, b, sense, q, slack_rows, tab, basis, kept, pivots), work


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP to a certified optimal vertex.

    Every problem, with or without constraint rows, takes the same path,
    and memory stays at one tableau plus one scratch buffer, and on the
    second objective of a constraint set small enough for the memo the
    stored copy of its phase-1 tableau.  From its third objective on,
    phase 1 comes from the memo while its item is there.  A byte-identical
    repeat of an LP whose answer is still in the memo returns that
    answer, with fresh copies of its arrays.  Infeasibility and
    unboundedness are reported through the status, not by raising; only
    malformed input raises, and so does an optimum that fails its
    certificate: x must be feasible and the objective must agree with the
    dual objective to ``FEASIBILITY_TOL`` relative to it.  A singular final basis raises ``SingularBasisError``,
    and a tableau or answer that overflowed raises ``ArithmeticError``.
    """
    keys = _memo_keys(problem)
    answer, start, keep = _memo_lookup(keys)
    if answer is not None:
        return _with_copies(answer)
    # Overflow shows as a non-finite tableau or answer, which raises; numpy
    # need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        sol, stored = _solve(problem, start, keep)
    if keys is not None:
        _memo_store(keys, sol, stored)
    return sol


def _solve(problem, start, keep):
    """solve_lp past the memo lookup: ``start`` is the stored phase-1 result or None.

    Returns the solution and, when ``keep`` is set and phase 1 ran, its
    result for the memo, with a tableau and basis that phase 2 did not
    touch; else None.
    """
    reused = start is not None
    stored = None
    if reused:
        # Phase 2 writes its tableau and basis; the stored ones are read-only.
        tab = basis = work = None
        if start.tab is not None:
            tab, basis = start.tab.copy(), start.basis.copy()
            work = np.empty_like(tab)
    else:
        start, work = _phase1(problem)
        if start is None:
            return LpSolution(status=INFEASIBLE), None
        tab, basis = start.tab, start.basis
        if keep:
            stored = start if tab is None else dataclasses.replace(start, tab=tab.copy(), basis=basis.copy())
    # Unpacked, so that dropping tab below frees the tableau.
    A, b, sense, q = start.A, start.b, start.sense, start.q
    slack_rows, kept, phase1_pivots = start.slack_rows, start.kept, start.pivots
    start = None
    if tab is None:
        return LpSolution(status=INFEASIBLE, pivots=(phase1_pivots, 0), phase1_reused=reused), stored
    k = A.shape[1]
    m, ncols = tab.shape[0] - 1, tab.shape[1] - 1

    c_min = np.zeros(ncols)
    c_min[:k] = -problem.objective
    tab[-1, :ncols] = c_min
    tab[-1, -1] = 0.0
    # Price out the basic rows with a nonzero cost, in row order.
    cb = c_min[basis]
    for p in cb.nonzero()[0]:
        tab[-1] -= cb[p] * tab[p]
    status, phase2_pivots = _run_simplex(tab, basis, ncols, work)
    _check_finite(tab)
    pivots = (phase1_pivots, phase2_pivots)
    if status == "unbounded":
        return LpSolution(status=UNBOUNDED, pivots=pivots, phase1_reused=reused), stored
    tab = work = None

    # Re-factorize the final basis against the original standard-form data
    # so the answer does not inherit accumulated tableau drift.  B's columns
    # are basic columns of A or basic slacks, cut to the kept rows when
    # phase 1 dropped a row.
    struct = basis < k
    slack_of = slack_rows[basis[~struct] - k]
    B = np.zeros((A.shape[0], m))
    B[:, struct] = A[:, basis[struct]]
    B[slack_of, ~struct] = sense[slack_of]
    if kept.size < B.shape[0]:
        B = B[kept]
    b_kept = b[kept]
    # These two dense LU solves are most of a large dual LP's time (three
    # quarters or more of an n = 40 W1 dual) now that pivots touch only
    # their block, and they set its peak memory: B plus the copy of it that
    # LAPACK factorizes, one solve at a time.  Any cheaper factorization (one
    # LU shared by B and B.T, a sparse LU) would change the bits of x and
    # the duals.
    try:
        x_basic = np.linalg.solve(B, b_kept)
        y_min = np.linalg.solve(B.T, c_min[basis])
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(f"final basis matrix is singular: {exc}") from exc
    u = np.zeros(ncols)
    u[basis] = x_basic
    u[np.abs(u) < 1e-12] = 0.0
    if u.min(initial=0.0) < -1e-7:
        raise ArithmeticError("refined basic solution lost nonnegativity")

    x = q + u[:k]
    value = float(problem.objective @ x)
    duals = -y_min
    # The shift x = q + u leaves the objective the constant term objective @ q.
    dual_value = float(duals @ b_kept) + float(problem.objective @ q)
    if not (math.isfinite(value) and math.isfinite(dual_value)):
        raise ArithmeticError(_OVERFLOW)
    _certify(problem, x, value, dual_value)
    return LpSolution(OPTIMAL, x, value, duals, dual_value, pivots, reused), stored


def _certify(problem, x, value, dual_value):
    """Raise ArithmeticError unless x is feasible and the duality gap closes."""
    residual = problem.A @ x - problem.rhs
    violation = np.where(problem.relations == EQ, np.abs(residual), residual)
    tol = FEASIBILITY_TOL * np.maximum(1.0, np.abs(problem.rhs))
    bad = np.flatnonzero(~(violation <= tol))  # a NaN residual fails too
    if bad.size:
        raise ArithmeticError(f"constraint {bad[0]} violated by {violation[bad[0]]:.3e}")
    bad = np.flatnonzero(x < problem.lower - FEASIBILITY_TOL)
    if bad.size:
        raise ArithmeticError(f"lower bound on variable {bad[0]} violated")
    bad = np.flatnonzero(x > problem.upper + FEASIBILITY_TOL)
    if bad.size:
        raise ArithmeticError(f"upper bound on variable {bad[0]} violated")
    gap = abs(value - dual_value)
    # Written so that a NaN gap fails too.
    if not gap <= FEASIBILITY_TOL * (1.0 + abs(value)):
        raise ArithmeticError(f"objective {value!r} and dual objective {dual_value!r} differ by {gap:.3e}")
