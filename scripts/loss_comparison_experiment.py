#!/usr/bin/env python3
"""Fit KL-, Wasserstein-, and value-aware models to one MDP and compare.

Runs the comparison twice: once with the realizable full-rank softmax
model and once with a rank-limited model class, where the true kernel is
out of reach and the choice of loss starts to matter.  Outputs the
per-kind tables, cross-evaluations, and planning gaps as CSV.
"""

import argparse
import dataclasses
import os

from wassmdp.learner import (
    FitConfig,
    KL_LOSS,
    WASSERSTEIN_LOSS,
    compare_losses,
    loss_kind_spec,
    vaml_loss_kind,
)
from wassmdp.mdp import generate_lipschitz_mdp
from wassmdp.vaml import value_lipschitz_bound


def run(mdp, rank, config, out_dir, tag):
    c = value_lipschitz_bound(mdp).c
    kinds = [KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind(c)]
    comparison = compare_losses(mdp, kinds, dataclasses.replace(config, model_rank=rank))
    comparison.write_csv(os.path.join(out_dir, f"comparison_{tag}.csv"))
    comparison.write_cross_csv(os.path.join(out_dir, f"cross_eval_{tag}.csv"))
    print(f"[{tag}] value bound C = {comparison.value_bound:.4f}, "
          f"gamma*K_W = {comparison.gamma_kernel:.4f}")
    for report in comparison.rows:
        print(
            f"[{tag}] {loss_kind_spec(report.kind):>12}: "
            f"final loss {report.loss_curve[-1]:.3e}, "
            f"planning gap {report.planning_gap:.3e}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--states", type=int, default=6)
    ap.add_argument("--actions", type=int, default=2)
    ap.add_argument("--gamma", type=float, default=0.9)
    ap.add_argument("--smoothing", type=float, default=0.4)
    ap.add_argument("--rank", type=int, default=2, help="basis rows for the limited class")
    ap.add_argument("--iters", type=int, default=60)
    ap.add_argument("--step-size", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="comparison_out")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    mdp = generate_lipschitz_mdp(
        args.states, args.actions, args.gamma, args.smoothing, seed=args.seed
    )
    base = FitConfig(iters=args.iters, step_size=args.step_size, seed=args.seed, log_every=20)
    run(mdp, None, base, args.out, "full_rank")
    run(mdp, args.rank, base, args.out, f"rank_{args.rank}")
    print(f"wrote tables under {args.out}/")


if __name__ == "__main__":
    main()
