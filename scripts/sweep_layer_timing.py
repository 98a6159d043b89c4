#!/usr/bin/env python3
"""Time one GVI sweep per backup operator and one exact Lipschitz measurement per size.

Sweeps: for each operator of the theorem suite's default grid, runs
``gvi`` on one generator MDP to delta = 1e-10 and prints the time per
sweep, the call's fixed cost spread over its sweeps.  The ``checked``
column times ``theorem_suite`` on the same MDP and operator per sweep:
the sweep, the suite's per-sweep Lipschitz recursion check and its
final bound check.  Lipschitz: on one random planar space per size,
times ``lipschitz_constant`` on one field and
``uniform_lipschitz_constant`` on the columns of an n x m table passed
as ``q.T``, as the theorem check passes them.  Every figure is the best
of ``--repeat``.  Run it with ``OPENBLAS_NUM_THREADS=1`` for stable
figures:

    PYTHONPATH=src python3 scripts/sweep_layer_timing.py --sizes 4 9 20 40 --repeat 5
"""

import argparse
import time

from wassmdp.mdp import generate_lipschitz_mdp
from wassmdp.metric import lipschitz_constant, uniform_lipschitz_constant
from wassmdp.planner import gvi, operator_spec
from wassmdp.suites import _default_operator_grid, cell_rng, random_metric_space, theorem_suite


def best_us(fn, per, repeat):
    """Best of ``repeat`` timed calls of fn, in microseconds per ``per``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6 / per


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--states", type=int, default=9, help="states of the swept MDP")
    ap.add_argument("--actions", type=int, default=3, help="actions of the MDP and columns of the table")
    ap.add_argument("--gamma", type=float, default=0.9)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 9, 20, 40], help="space sizes n")
    ap.add_argument("--calls", type=int, default=2000, help="Lipschitz calls per timed batch")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per figure; the best counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    mdp = generate_lipschitz_mdp(args.states, args.actions, args.gamma, 0.5, args.seed)
    if args.gamma * mdp.measured_kernel_constant >= 1.0:
        raise SystemExit("gamma * K_W >= 1, so theorem_suite would skip this MDP; try another --seed")
    print(f"GVI to delta 1e-10 on n = {args.states}, m = {args.actions}, gamma = {args.gamma}")
    print(f"{'operator':14} {'sweeps':>7} {'us/sweep':>9} {'checked':>9}")
    for op in _default_operator_grid():
        sweeps = gvi(mdp, op, delta=1e-10).iterations
        bare = best_us(lambda op=op: gvi(mdp, op, delta=1e-10), sweeps, args.repeat)
        checked = best_us(
            lambda op=op: theorem_suite(trials=1, operators=[op], mdps=[mdp]), sweeps, args.repeat
        )
        print(f"{operator_spec(op):14} {sweeps:7d} {bare:9.1f} {checked:9.1f}")

    print(f"\nExact Lipschitz constants, {args.calls} calls per batch; family of m = {args.actions}")
    print(f"{'n':>3} {'pairs':>6} {'us/call':>8} {'us/uniform':>11}")
    for n in args.sizes:
        rng = cell_rng(args.seed, n)
        space = random_metric_space(rng, n, "plane")
        f = rng.normal(size=n)
        q = rng.normal(size=(n, args.actions))

        def single():
            for _ in range(args.calls):
                lipschitz_constant(f, space)

        def uniform():
            for _ in range(args.calls):
                uniform_lipschitz_constant(q.T, space)

        print(
            f"{n:3d} {n * (n - 1) // 2:6d} {best_us(single, args.calls, args.repeat):8.2f} "
            f"{best_us(uniform, args.calls, args.repeat):11.2f}"
        )


if __name__ == "__main__":
    main()
