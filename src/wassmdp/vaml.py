"""Value-aware model loss calculus on finite MDPs.

Covers the pointwise model error of a fixed value function, its Holder
and Pinsker relaxations, the worst-case squared error over a Lipschitz
ball of value functions (computed exactly as a transport dual LP), the
certified Lipschitz radius of value functions produced by generalized
value iteration, and the verification that the worst-case loss equals
the squared scaled Wasserstein distance cell by cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mdp import FiniteMdp
from .metric import ScalarField, field_values, lipschitz_constant, uniform_lipschitz_constant
from .planner import BackupOperator, gvi
from .transport import (
    Distribution,
    SupportViolationError,
    kl_divergence,
    wasserstein_dual,
    wasserstein_primal,
)


class ContractionPreconditionError(ValueError):
    """gamma * K_W >= 1, so the geometric value-smoothness series diverges."""


@dataclass(frozen=True)
class ValueClassBound:
    """Lipschitz radius of the admissible value-function ball.

    Zero is allowed: constant rewards certify a radius of zero, and the
    worst-case loss over constant functions vanishes.
    """

    c: float

    def __post_init__(self):
        if not np.isfinite(self.c) or self.c < 0.0:
            raise ValueError(f"class bound must be finite and >= 0, got {self.c!r}")


def _bound_value(c) -> float:
    return float(c.c if isinstance(c, ValueClassBound) else c)


def pointwise_model_error(mdp: FiniteMdp, model: FiniteMdp, v, s: int, a: int) -> float:
    """Signed discounted expectation gap of v under the true kernel and the
    model kernel ``model`` (an MDP of the same shape) at cell (s, a).

    Computed against the field re-centered at its first value; both rows
    sum to one, so this is the same number but constant fields come out
    exactly zero.
    """
    if model.transition.shape != mdp.transition.shape:
        raise ValueError(f"model kernel shape {model.transition.shape} does not match {mdp.transition.shape}")
    gap = mdp.transition_dist(s, a).p - model.transition_dist(s, a).p
    values = field_values(v, mdp.n_states)
    return float(mdp.gamma * np.dot(gap, values - values[0]))


class HolderPinskerBounds(NamedTuple):
    error: float
    l1_bound: float
    kl_bound: float


def holder_pinsker_bounds(mdp: FiniteMdp, model: FiniteMdp, v, s: int, a: int) -> HolderPinskerBounds:
    """|error| and its L1 (Holder) and KL (Pinsker) relaxations at cell (s, a)
    of the true kernel and the model kernel ``model``.

    The chain |error| <= l1_bound <= kl_bound is what justifies fitting a
    model by maximum likelihood; a support violation makes the KL bound
    infinite rather than failing.
    """
    if model.transition.shape != mdp.transition.shape:
        raise ValueError(f"model kernel shape {model.transition.shape} does not match {mdp.transition.shape}")
    true, fitted = mdp.transition_dist(s, a), model.transition_dist(s, a)
    gap = true.p - fitted.p
    values = field_values(v, mdp.n_states)
    err = abs(float(mdp.gamma * np.dot(gap, values - values[0])))
    v_inf = float(np.abs(values).max())
    l1 = float(mdp.gamma * np.abs(gap).sum() * v_inf)
    try:
        kl_bound = float(mdp.gamma * math.sqrt(2.0 * kl_divergence(true, fitted)) * v_inf)
    except SupportViolationError:
        kl_bound = math.inf
    return HolderPinskerBounds(err, l1, kl_bound)


def cell_loss(true: Distribution, model: Distribution, space, c: float):
    """(loss, maximizing potential): the worst squared expectation gap of a true
    and a model next-state row over the c-Lipschitz value ball.

    The supremum is a transport dual LP with Lipschitz bound c; its square is
    the loss.  At c = 0 the loss is 0 and no LP runs.
    """
    if c == 0.0:
        return 0.0, ScalarField(np.zeros(space.n))
    value, potential = wasserstein_dual(true, model, space, c)
    return float(value * value), potential.f


def vaml_loss(mdp: FiniteMdp, model: FiniteMdp, c, s: int, a: int):
    """``cell_loss`` of the (s, a) rows of the true kernel and the model kernel
    ``model``, an MDP of the same shape."""
    if model.transition.shape != mdp.transition.shape:
        raise ValueError(f"model kernel shape {model.transition.shape} does not match {mdp.transition.shape}")
    return cell_loss(mdp.transition_dist(s, a), model.transition_dist(s, a), mdp.space, _bound_value(c))


def value_lipschitz_bound(mdp: FiniteMdp) -> ValueClassBound:
    """Certified Lipschitz radius K(R) / (1 - gamma K_W) from the MDP's measured constants."""
    kr = mdp.measured_reward_constant
    kw = mdp.measured_kernel_constant
    if mdp.gamma * kw >= 1.0:
        raise ContractionPreconditionError(
            f"gamma * K_W = {mdp.gamma * kw!r} >= 1; no finite value class bound"
        )
    return ValueClassBound(kr / (1.0 - mdp.gamma * kw))


@dataclass(frozen=True)
class ValueLipschitzCheck:
    measured_kq: float
    measured_kv: float
    bound: float
    passed: bool


def verify_value_lipschitz(
    mdp: FiniteMdp, op: BackupOperator, delta: float = 1e-10, on_sweep=None
) -> ValueLipschitzCheck:
    """Run GVI (``on_sweep`` goes to it) and compare the fixed point's smoothness to the bound."""
    bound = value_lipschitz_bound(mdp).c
    result = gvi(mdp, op, delta=delta, on_sweep=on_sweep)
    kq = uniform_lipschitz_constant(result.q.q.T, mdp.space).constant
    kv = lipschitz_constant(result.v, mdp.space).constant
    slack = 1e-8 * (1.0 + bound)
    passed = kq <= bound + slack and kv <= bound + slack
    return ValueLipschitzCheck(kq, kv, bound, passed)


@dataclass(frozen=True)
class EquivalenceCell:
    s: int
    a: int
    vaml: float
    wasserstein: float
    c: float
    gap: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Per state-action comparison of the two loss routes.

    ``vaml`` comes from the dual LP over the Lipschitz ball, ``wasserstein``
    from the primal coupling LP; ``gap`` is |vaml - (c W)^2|.
    """

    cells: tuple[EquivalenceCell, ...]
    max_gap: float

    def to_json_dict(self) -> dict:
        return {
            "max_gap": self.max_gap,
            "cells": [
                {
                    "s": cell.s,
                    "a": cell.a,
                    "vaml": cell.vaml,
                    "wasserstein": cell.wasserstein,
                    "c": cell.c,
                    "gap": cell.gap,
                }
                for cell in self.cells
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "a", "vaml", "wasserstein", "c", "gap"])
            for cell in self.cells:
                writer.writerow([cell.s, cell.a, cell.vaml, cell.wasserstein, cell.c, cell.gap])


def verify_equivalence(mdp: FiniteMdp, that, c) -> EquivalenceReport:
    """Exercise the loss identity at every (s, a) of the MDP and the model
    tensor ``that``, whose rows are checked once, as a model kernel.

    For each cell the worst-case loss is computed through the dual LP and
    the transport distance through the primal LP; the two solvers are
    independent formulations, so a small max_gap certifies the identity
    rather than restating one computation.
    """
    bound = _bound_value(c)
    model = replace(mdp, transition=that)
    cells = []
    max_gap = 0.0
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            loss, _ = vaml_loss(mdp, model, bound, s, a)
            w, _ = wasserstein_primal(mdp.transition_dist(s, a), model.transition_dist(s, a), mdp.space)
            gap = abs(loss - (bound * w) ** 2)
            max_gap = max(max_gap, gap)
            cells.append(EquivalenceCell(s, a, loss, w, bound, gap))
    return EquivalenceReport(tuple(cells), max_gap)
