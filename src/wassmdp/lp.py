"""Dense two-phase simplex solver for small linear programs.

Maximizes ``objective @ x`` subject to ``A @ x (relations) rhs`` row by
row and ``lower <= x <= upper``, all given as arrays.  Everything is
converted to equality standard form with nonnegative variables, phase 1
drives artificial variables out, and phase 2 optimizes the real
objective.  The final basis is re-factorized against the original data
so the returned point is certified feasible rather than inherited from
accumulated tableau arithmetic.  Problems without constraint rows take
the same path as the others.  A solve holds one dense tableau and one
scratch buffer of the same size, and it releases both before the basis
matrix is gathered from the standard form.  That matrix is cut to the
rows phase 1 kept only when phase 1 dropped one, so the refactorization
of a large dual holds the basis matrix and LAPACK's own copy of it, and
no third matrix of its size.

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
for any cost vector.  A module-level memo keeps one entry per constraint
set, keyed by the exact bytes of ``A`` (with its shape), ``relations``,
``rhs``, ``lower`` and ``upper``, holding the certified answer of each
objective solved on it, keyed by the objective's bytes; one ulp or a
-0.0 for +0.0 misses.  A byte-identical repeat, such as each cell a
finite-difference bump leaves unchanged, gets the stored answer back,
the bits a fresh solve of the deterministic solver would return.  Once
a constraint set comes back with a second objective, its entry also
keeps the standard form and the tableau, basis, kept rows and pivot
count after phase 1 (or the "infeasible" verdict), and later objectives
run phase 2, the refactorization and the certificate from a copy of it.
A W1 primal, seen with one objective, copies no tableau, and the primals
of one size share one copy of their ``A``.  An LP whose phase-1 result
could exceed ``_MEMO_MAX_ELEMENTS`` numbers (1 MiB) is not keyed; all
entries hold at most ``_MEMO_BUDGET`` numbers (2 MiB), least recently
used out first, but an entry alone over it, such as the dual constraint
set of a long VAML fit, sheds its oldest answers and keeps its phase 1.
Stored arrays are read-only, each solve works on its own copies, and a
lock guards the entries, so threads may solve concurrently.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LEQ, EQ, GEQ = "<=", "==", ">="

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
# Tableau size (elements) from which _pivot updates only the nonzero block.
_BLOCK_MIN_SIZE = 30_000
# LP memo: the most numbers one LP's phase-1 result may hold (the key's copy
# of A, the standard-form matrix and the tableau), and the most all entries
# hold together (2 MiB), each answer counting _ANSWER_OVERHEAD numbers for
# its Python objects, about 1 KiB besides its arrays and objective bytes.
_MEMO_MAX_ELEMENTS = 131_072
_MEMO_BUDGET = 262_144
_ANSWER_OVERHEAD = 128


class SingularBasisError(ArithmeticError):
    """The optimal basis is singular, so it cannot be re-factorized against
    the original data and the answer cannot be certified."""


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
    of the optimum, which must agree with ``objective_value``.  ``pivots``
    counts the simplex pivots of phase 1 (artificial drive-out included)
    and of phase 2.  ``phase1_reused`` is true when phase 1 came from the
    memo (``pivots`` still reports its count), and ``answer_reused``, which
    implies it, when the whole answer did, stored by an earlier certified
    solve.  Every field has the bits a fresh solve gives either way, and
    ``x`` and ``duals`` are the caller's own writable arrays.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    dual_objective_value: float | None = None
    pivots: tuple[int, int] = (0, 0)
    phase1_reused: bool = False
    answer_reused: bool = False


@dataclass(frozen=True, eq=False)
class _Standard:
    """Equality standard form plus the affine map back to original variables.

    Each standard column is a signed copy of one original variable:
    x = q + scatter(signs * u over src), which keeps the transform free of
    dense matrix products.  ``first`` is each variable's first column and
    ``split`` lists the free variables, whose second column follows it.
    ``sense`` is the slack sign of each row.  The form holds constraint
    data only; ``costs`` maps an objective onto it.
    """

    A: np.ndarray
    b: np.ndarray
    sense: np.ndarray
    src: np.ndarray
    signs: np.ndarray
    q: np.ndarray
    first: np.ndarray
    split: np.ndarray

    def costs(self, objective):
        """The objective on the standard columns and its constant term objective @ q."""
        return objective[self.src] * self.signs, float(objective @ self.q)

    def recover(self, u):
        # The additions of np.add.at(x, src, v) in its order, first columns
        # then second ones, at a fraction of its per-call cost.
        v = self.signs * u
        x = self.q + v[self.first]
        if self.split.size:
            x[self.split] += v[self.first[self.split] + 1]
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

    return _Standard(A, b, sense, src, signs, q, first, np.flatnonzero(free))


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
        # Ties go to the lowest basis index; an empty set (NaN ratios)
        # raises in argmin, as it always has.
        if idx.size != 1:
            p = int(idx[basis[idx].argmin()])
        _pivot(tab, basis, p, col, work, factors)
    raise ArithmeticError("simplex did not terminate within its pivot budget")


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
    """What phase 1 leaves for phase 2; it depends on the constraints alone.

    ``tab`` is the tableau after phase 1 without artificial columns or
    redundant rows (phase 2 overwrites its cost row), ``basis`` maps its
    rows to columns, ``kept`` lists the standard-form rows it keeps and
    ``pivots`` counts phase 1's pivots, drive-out included.  ``tab`` and
    ``basis`` are None when phase 1 proved the LP infeasible.
    """

    std: _Standard
    slack_rows: np.ndarray
    tab: np.ndarray | None
    basis: np.ndarray | None
    kept: np.ndarray | None
    pivots: int


# Constraint key -> [read-only _Phase1 or None, {objective bytes: answer with
# read-only arrays}, numbers held besides A], least recently used first, each
# dict in use order too; the bytes of A -> [the copy keys share, how many keys
# do]; and the numbers all entries hold together, each shared A counted once.
_memo: collections.OrderedDict = collections.OrderedDict()
_memo_A: dict = {}
_memo_held = 0
_counts = {"solves": 0, "phase1_reused": 0, "answer_reused": 0}
_memo_lock = threading.Lock()


def clear_memo():
    """Forget every stored constraint set with its phase 1 and answers, and
    zero ``memo_counts()``."""
    global _memo_held
    with _memo_lock:
        _memo.clear()
        _memo_A.clear()
        _memo_held = 0
        _counts.update(dict.fromkeys(_counts, 0))


def memo_counts() -> dict:
    """The solves since the last ``clear_memo()``, and how many of them came
    back with ``phase1_reused`` and with ``answer_reused`` set; an answer
    hit counts as a phase-1 hit too, as its flags say."""
    with _memo_lock:
        return dict(_counts)


def _memo_key(problem):
    """The constraint data's exact bytes, or None when an entry could be too large.

    The size bound counts the key's copy of A, the standard-form matrix
    and the tableau with a slack on every row but no artificial column,
    from the problem's shape and bounds alone, before any copy is made.
    """
    m0, nv = problem.A.shape
    has_lo, has_hi = problem.lower > -np.inf, problem.upper < np.inf
    boxed = int(np.count_nonzero(has_lo & has_hi))
    m = m0 + boxed
    k = 2 * nv - int(np.count_nonzero(has_lo | has_hi))
    if m0 * nv + m * k + (m + 1) * (k + m + 1) > _MEMO_MAX_ELEMENTS:
        return None
    parts = (problem.A, problem.relations, problem.rhs, problem.lower, problem.upper)
    return (problem.A.shape,) + tuple(a.tobytes() for a in parts)


def _memo_lookup(key, cost):
    """What the memo holds for one solve, and whether to keep its phase 1.

    Returns (answer, start, keep): the stored answer of a byte-identical
    repeat or None, the stored phase-1 result or None, and ``keep`` true
    when the constraint set is stored with neither, so that it came back
    with another objective.  Counts the solve; an unkeyed LP (``key``
    None) is only counted.
    """
    with _memo_lock:
        _counts["solves"] += 1
        # A dict hit compares the tuples of shapes and bytes exactly too.
        entry = None if key is None else _memo.get(key)
        if entry is None:
            return None, None, False
        _memo.move_to_end(key)
        start, answers, _ = entry
        answer = answers.pop(cost, None)
        if answer is None and start is None:
            return None, None, True
        if answer is not None:
            answers[cost] = answer  # now the most recently used
        _counts["phase1_reused"] += 1
        _counts["answer_reused"] += answer is not None
        return answer, start, False


def _memo_store(key, cost, sol, start):
    """File a read-only copy of ``sol`` under ``cost`` in ``key``'s entry, and
    ``start``, a phase-1 result phase 2 no longer writes, unless it is None
    or the entry has one.  An entry counts its key but A, which entries of
    equal A share and count once, and its arrays and answers.  Until all
    hold at most ``_MEMO_BUDGET`` numbers the least recently used entry
    goes, but the entry in use, left alone, drops its oldest answers and
    keeps its phase 1 and newest answer.
    """
    global _memo_held
    answer = _with_copies(sol, phase1_reused=True, answer_reused=True)
    answer_arrays = _arrays(answer)
    start_arrays = [] if start is None else _arrays(start.std) + _arrays(start)
    for a in answer_arrays + start_arrays:
        a.setflags(write=False)
    with _memo_lock:
        entry = _memo.get(key)
        if entry is None:
            shared = _memo_A.setdefault(key[1], [key[1], 0])
            shared[1] += 1
            key = (key[0], shared[0]) + key[2:]
            entry = _memo[key] = [None, {}, sum(len(part) for part in key[2:]) // 8]
            _memo_held += entry[2] + (len(key[1]) // 8 if shared[1] == 1 else 0)
        _memo.move_to_end(key)
        added = 0
        if cost not in entry[1]:
            entry[1][cost] = answer
            added += _answer_size(cost, answer)
        if start is not None and entry[0] is None:
            entry[0] = start
            added += sum(a.size for a in start_arrays)
        entry[2] += added
        _memo_held += added
        while _memo_held > _MEMO_BUDGET:
            oldest, entry = next(iter(_memo.items()))
            if len(_memo) == 1 and len(entry[1]) > 1:
                dropped = next(iter(entry[1]))
                size = _answer_size(dropped, entry[1].pop(dropped))
                entry[2] -= size
                _memo_held -= size
                continue
            del _memo[oldest]
            _memo_held -= entry[2]
            shared = _memo_A[oldest[1]]
            shared[1] -= 1
            if not shared[1]:
                del _memo_A[oldest[1]]
                _memo_held -= len(oldest[1]) // 8


def _answer_size(cost, answer):
    """The numbers one stored answer counts: its arrays, its objective's
    bytes and ``_ANSWER_OVERHEAD`` for its Python objects."""
    return _ANSWER_OVERHEAD + len(cost) // 8 + sum(a.size for a in _arrays(answer))


def _with_copies(sol, **changes):
    """``sol`` with fresh copies of x and the duals, and ``changes`` applied."""
    x, duals = (None if a is None else a.copy() for a in (sol.x, sol.duals))
    return dataclasses.replace(sol, x=x, duals=duals, **changes)


def _arrays(record):
    """The array fields of a dataclass instance, None fields left out."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return [v for v in values if isinstance(v, np.ndarray)]


def _phase1(std):
    """Build the tableau and run phase 1; returns the _Phase1 and a scratch buffer.

    The returned tableau and basis are the live ones that phase 2 goes on
    with; the buffer is at least as large as the tableau.
    """
    m, k = std.A.shape
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
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :k] = std.A
    tab[slack_rows, slack_cols] = std.sense[slack_rows]
    tab[art_rows, art_cols] = 1.0
    tab[:m, -1] = std.b
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
        if status != "optimal":
            raise ArithmeticError("phase-1 subproblem reported unbounded")
        phase1 = -tab[-1, -1]
        if phase1 > FEASIBILITY_TOL * (1.0 + std.b.max(initial=0.0)):
            return _Phase1(std, slack_rows, None, None, None, pivots), None
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
    return _Phase1(std, slack_rows, tab, basis, kept, pivots), work


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a small dense LP to a certified optimal vertex.

    Every problem, with or without constraint rows, takes the same path,
    and memory stays at one tableau plus one scratch buffer, and on the
    second objective of a constraint set small enough for the memo the
    stored copy of its phase-1 tableau.  From its third objective on,
    phase 1 comes from the memo.  A byte-identical repeat of an LP still
    in the memo returns the stored answer, with fresh copies of its
    arrays.  Infeasibility and unboundedness are reported through the
    status, not by raising; only malformed input raises, and so does an
    optimum that fails its certificate: x must be feasible and the
    objective must agree with the dual objective to ``FEASIBILITY_TOL``
    relative to it.  A singular final basis raises ``SingularBasisError``.
    """
    key = _memo_key(problem)
    cost = problem.objective.tobytes()
    answer, start, keep = _memo_lookup(key, cost)
    if answer is not None:
        return _with_copies(answer)
    sol, stored = _solve(problem, start, keep)
    if key is not None:
        _memo_store(key, cost, sol, stored)
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
        std = _standardize(problem)
        if std is None:
            return LpSolution(status=INFEASIBLE), None
        start, work = _phase1(std)
        tab, basis = start.tab, start.basis
        if keep:
            stored = start if tab is None else dataclasses.replace(start, tab=tab.copy(), basis=basis.copy())
    # Unpacked, so that dropping tab below frees the tableau.
    std, slack_rows, kept, phase1_pivots = start.std, start.slack_rows, start.kept, start.pivots
    start = None
    if tab is None:
        return LpSolution(status=INFEASIBLE, pivots=(phase1_pivots, 0), phase1_reused=reused), stored
    k = std.A.shape[1]
    m, ncols = tab.shape[0] - 1, tab.shape[1] - 1
    c, offset = std.costs(problem.objective)

    c_min = np.zeros(ncols)
    c_min[:k] = -c
    tab[-1, :ncols] = c_min
    tab[-1, -1] = 0.0
    # Price out the basic rows with a nonzero cost, in row order.
    cb = c_min[basis]
    for p in cb.nonzero()[0]:
        tab[-1] -= cb[p] * tab[p]
    status, phase2_pivots = _run_simplex(tab, basis, ncols, work)
    pivots = (phase1_pivots, phase2_pivots)
    if status == "unbounded":
        return LpSolution(status=UNBOUNDED, pivots=pivots, phase1_reused=reused), stored
    tab = work = None

    # Re-factorize the final basis against the original standard-form data
    # so the answer does not inherit accumulated tableau drift.  B's columns
    # are basic columns of std.A or basic slacks, cut to the kept rows when
    # phase 1 dropped a row.
    struct = basis < k
    slack_of = slack_rows[basis[~struct] - k]
    B = np.zeros((std.A.shape[0], m))
    B[:, struct] = std.A[:, basis[struct]]
    B[slack_of, ~struct] = std.sense[slack_of]
    if kept.size < B.shape[0]:
        B = B[kept]
    b_kept = std.b[kept]
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

    x = std.recover(u[:k])
    value = float(problem.objective @ x)
    duals = -y_min
    dual_value = float(duals @ b_kept) + offset
    _certify(problem, x, value, dual_value)
    return LpSolution(OPTIMAL, x, value, duals, dual_value, pivots, reused), stored


def _certify(problem, x, value, dual_value):
    """Raise ArithmeticError unless x is feasible and the duality gap closes."""
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
    gap = abs(value - dual_value)
    # Written so that a NaN gap fails too.
    if not gap <= FEASIBILITY_TOL * (1.0 + abs(value)):
        raise ArithmeticError(f"objective {value!r} and dual objective {dual_value!r} differ by {gap:.3e}")
