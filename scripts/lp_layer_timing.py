#!/usr/bin/env python3
"""Time ``solve_lp`` on the primal and dual W1 programs, layer by layer.

For each size, draws one planar pair from a fixed seed, records the LP
that ``wasserstein_primal`` and ``wasserstein_dual`` hand to ``solve_lp``
and times ``solve_lp`` alone on it, best of ``--repeat``, with the
LP memo emptied before each solve.  A third row, ``dual-hit``, times the
dual of a second pair on the same space: the same constraints under a
third objective, solved right after the first dual and the dual of a
third pair.  The memo keeps phase 1 from a constraint set's second
objective on, so phase 1 comes from the memo where the LP is small
enough for it (the ``reused`` column).  A fourth row, ``answer-hit``,
times the first dual solved a second time: where the LP fits the memo,
the stored answer comes back without a pivot (the ``answer`` column).
Prints the time per solve, the pivots of phase 1 and phase 2, and the
time per pivot, which includes the solve's fixed cost spread over its
pivots.  The ``dense us`` and ``block us`` columns time the
``_pivot`` calls alone, in a second run of ``--repeat`` solves: the mean
microseconds per pivot that took the dense update and per pivot that
took the block update (tableaux of ``_BLOCK_MIN_SIZE`` elements or
more), best of the repeats, and ``-`` for a path no pivot took.  Run it
with ``OPENBLAS_NUM_THREADS=1`` for stable figures:

    PYTHONPATH=src python3 scripts/lp_layer_timing.py --sizes 5 10 20 --repeat 3
"""

import argparse
import time

from wassmdp import lp, transport
from wassmdp.suites import cell_rng, random_distribution, random_metric_space


def w1_problems(n, seed):
    """The primal and dual LpProblems of one planar pair of size n, and the
    duals of a second and a third pair on the same space."""
    rng = cell_rng(seed, n)
    space = random_metric_space(rng, n, "plane")
    mu1, mu2 = random_distribution(rng, n), random_distribution(rng, n)
    mu3, mu4 = random_distribution(rng, n), random_distribution(rng, n)
    mu5, mu6 = random_distribution(rng, n), random_distribution(rng, n)
    problems = []
    solve = lp.solve_lp

    def record(problem):
        problems.append(problem)
        return solve(problem)

    lp.solve_lp = record
    try:
        transport.wasserstein_primal(mu1, mu2, space)
        transport.wasserstein_dual(mu1, mu2, space, 1.0)
        transport.wasserstein_dual(mu3, mu4, space, 1.0)
        transport.wasserstein_dual(mu5, mu6, space, 1.0)
    finally:
        lp.solve_lp = solve
    return problems


def prime(name, primers):
    """Empty the memo; a ``-hit`` row then finds the first dual's answer in it,
    and the phase 1 that the third pair's dual, a second objective, kept."""
    lp.clear_memo()
    if name.endswith("-hit"):
        for problem in primers:
            lp.solve_lp(problem)


def pivot_us(name, problem, primers, repeat):
    """{path: mean microseconds per ``_pivot`` call}, best of ``repeat`` solves,
    for the paths "dense" and "block" that the solve's pivots took."""
    pivot = lp._pivot
    spent = {}

    def timed(tab, *args):
        start = time.perf_counter()
        pivot(tab, *args)
        path = "dense" if tab.size < lp._BLOCK_MIN_SIZE else "block"
        total, calls = spent.get(path, (0.0, 0))
        spent[path] = (total + time.perf_counter() - start, calls + 1)

    best = {}
    lp._pivot = timed
    try:
        for _ in range(repeat):
            prime(name, primers)
            spent.clear()
            lp.solve_lp(problem)
            for path, (total, calls) in spent.items():
                best[path] = min(best.get(path, float("inf")), total * 1e6 / calls)
    finally:
        lp._pivot = pivot
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[5, 10, 15, 20, 30, 40])
    ap.add_argument("--repeat", type=int, default=5, help="timed solves per LP; the best counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(
        f"{'program':10} {'n':>3} {'rows':>5} {'vars':>5} {'ms/solve':>9} "
        f"{'phase 1':>8} {'phase 2':>8} {'us/pivot':>9} {'dense us':>9} {'block us':>9} {'reused':>7} {'answer':>7}"
    )
    for n in args.sizes:
        primal, dual, second, third = w1_problems(n, args.seed)
        primers = (dual, third)
        programs = (("primal", primal), ("dual", dual), ("dual-hit", second), ("answer-hit", dual))
        for name, problem in programs:
            best = float("inf")
            for _ in range(args.repeat):
                prime(name, primers)
                start = time.perf_counter()
                sol = lp.solve_lp(problem)
                best = min(best, time.perf_counter() - start)
            p1, p2 = sol.pivots
            per_pivot = best * 1e6 / max(p1 + p2, 1)
            paths = pivot_us(name, problem, primers, args.repeat)
            dense, block = (f"{paths[path]:9.1f}" if path in paths else f"{'-':>9}" for path in ("dense", "block"))
            rows, nvars = problem.A.shape
            print(
                f"{name:10} {n:3d} {rows:5d} {nvars:5d} {best * 1e3:9.2f} "
                f"{p1:8d} {p2:8d} {per_pivot:9.1f} {dense} {block} "
                f"{str(sol.phase1_reused):>7} {str(sol.answer_reused):>7}"
            )


if __name__ == "__main__":
    main()
