"""End-to-end acceptance checks.

Each test instantiates one of the library's target identities or
inequalities on a seeded grid at its final tolerance and prints a
machine-greppable pass/fail line (run with ``pytest -s`` to stream them).
"""

from dataclasses import replace

import numpy as np

from wassmdp.learner import FitConfig, KL_LOSS, fit_model
from wassmdp.mdp import generate_lipschitz_mdp
from wassmdp.planner import MAX, gvi
from wassmdp.suites import (
    cell_rng,
    duality_suite,
    equivalence_suite,
    lemmas_suite,
    operators_suite,
    random_metric_space,
    random_model_tensor,
    theorem_suite,
)
from wassmdp.transport import Distribution, kl_divergence, sinkhorn, wasserstein_primal
from wassmdp.vaml import (
    ValueClassBound,
    holder_pinsker_bounds,
    pointwise_model_error,
    value_lipschitz_bound,
    vaml_loss,
    verify_equivalence,
)

SEED = 20240817


def report(name, passed, detail):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed


def test_criterion_1_kantorovich_rubinstein_duality():
    rep = duality_suite(seed=SEED, trials=100, max_states=20, tol=1e-6)
    report(
        "1 KR duality (100 triples, n<=20, abs 1e-6)",
        rep.passed,
        f"max |primal - dual| = {rep.max_violation:.3e}",
    )


def test_criterion_2_central_equivalence():
    rep = equivalence_suite(seed=SEED, trials=50, max_states=15, max_actions=3, tol=1e-6)
    report(
        "2 equivalence L = (C W)^2 (50 pairs, rel 1e-6)",
        rep.passed,
        f"max relative gap = {rep.max_violation:.3e}",
    )


def test_criterion_3_value_smoothness_bound():
    rep = theorem_suite(seed=SEED, trials=40, tol=1e-8, recursion_tol=1e-9)
    recursion = rep.details["recursion_max_excess"]
    report(
        "3 GVI fixed-point bound (40 MDPs x 6 operators)",
        rep.passed and not rep.skipped,
        f"max normalized excess = {rep.max_violation:.3e}, "
        f"per-sweep recursion excess = {recursion:.3e}",
    )


def test_criterion_4_operator_non_expansion():
    rep = operators_suite(seed=SEED, trials=1000, tol=1e-12)
    report(
        "4 non-expansion (1000 pairs per operator cell)",
        rep.passed,
        f"max excess over sup-norm = {rep.max_violation:.3e}",
    )


def test_criterion_5_holder_pinsker_chain():
    rep = lemmas_suite(seed=SEED, trials=100, chain_trials=200, tol=1e-12)
    chain = rep.details["holder_pinsker_max_excess"]
    report(
        "5 Holder/Pinsker chain (200 cells, abs 1e-12)",
        chain <= 1e-12,
        f"max chain excess = {chain:.3e}",
    )


def test_criterion_6_composition_summation_lemmas():
    rep = lemmas_suite(seed=SEED + 1, trials=100, chain_trials=1, tol=1e-12)
    comp = rep.details["composition_max_excess"]
    summ = rep.details["summation_max_excess"]
    report(
        "6 composition/summation lemmas (100 each, abs 1e-12)",
        comp <= 1e-12 and summ <= 1e-12,
        f"composition excess = {comp:.3e}, summation excess = {summ:.3e}",
    )


def test_criterion_7_constant_value_degeneracy():
    rng = cell_rng(SEED, 7)
    mdp = generate_lipschitz_mdp(6, 1, 0.9, 0.4, seed=int(rng.integers(0, 2**31)))
    v_const = np.full(mdp.n_states, 2.5)
    exact_zero = True
    slack_shown = True
    for _ in range(50):
        model = replace(mdp, transition=random_model_tensor(rng, mdp))
        s = int(rng.integers(0, mdp.n_states))
        err = pointwise_model_error(mdp, model, v_const, s, 0)
        exact_zero &= err == 0.0
        sup_zero, _ = vaml_loss(mdp, model, ValueClassBound(0.0), s, 0)
        kl = kl_divergence(mdp.transition_dist(s, 0), model.transition_dist(s, 0))
        _, l1_bound, _ = holder_pinsker_bounds(mdp, model, v_const, s, 0)
        slack_shown &= sup_zero == 0.0 and kl > 0.0 and l1_bound > 0.0
    report(
        "7 constant-value degeneracy (50 models)",
        exact_zero and slack_shown,
        "pointwise error exactly 0; radius-0 sup-loss 0 while KL and L1 bounds stay positive",
    )


def test_criterion_8_sinkhorn_consistency():
    worst = 0.0
    for t in range(20):
        rng = cell_rng(SEED, 800 + t)
        space = random_metric_space(rng, 10)
        mu1 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, 10)))
        mu2 = Distribution(rng.dirichlet(rng.uniform(0.5, 3.0, 10)))
        exact, _ = wasserstein_primal(mu1, mu2, space)
        approx = sinkhorn(mu1, mu2, space, epsilon=1e-3, max_iter=200_000, tol=1e-8)
        worst = max(worst, abs(approx - exact))
    report(
        "8 Sinkhorn at eps=1e-3 (20 ten-point pairs, abs 1e-3)",
        worst <= 1e-3,
        f"max |sinkhorn - W| = {worst:.3e}",
    )


def test_criterion_9_learner_sanity():
    mdp = generate_lipschitz_mdp(8, 2, 0.9, 0.5, seed=SEED % 1000)
    assert mdp.transition.min() > 0.0  # realizable, strictly positive target
    fit = fit_model(mdp, KL_LOSS, FitConfig(iters=2000, step_size=1.0, log_every=200))
    v_star = gvi(mdp, MAX).v.values
    gap_ok = fit.planning_gap <= 1e-3 * np.abs(v_star).max()
    kl_ok = fit.loss_curve[-1] <= 1e-4
    bound = value_lipschitz_bound(mdp).c
    equiv_ok = True
    worst_rel = 0.0
    for _, model in fit.snapshots:
        rep = verify_equivalence(mdp, model.transition_tensor(), bound)
        for cell in rep.cells:
            rel = cell.gap / (1.0 + cell.vaml)
            worst_rel = max(worst_rel, rel)
            equiv_ok &= rel <= 1e-5
    report(
        "9 learner sanity (8 states, 2 actions, KL fit)",
        kl_ok and gap_ok and equiv_ok,
        f"final KL = {fit.loss_curve[-1]:.3e}, planning gap = {fit.planning_gap:.3e}, "
        f"equivalence max rel gap over {len(fit.snapshots)} snapshots = {worst_rel:.3e}",
    )
