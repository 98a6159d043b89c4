"""Exact Wasserstein-1 distances between distributions on a shared
finite metric space, via two independently formulated linear programs,
plus KL divergence and a log-domain Sinkhorn approximation.

The primal program optimizes over couplings, the dual over Lipschitz
potentials; each acts as the other's oracle in the test suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .metric import MetricSpace, ScalarField, lipschitz_constant

PROB_TOL = 1e-12
MARGINAL_TOL = 1e-9


class SupportViolationError(ValueError):
    """KL divergence is infinite: mu1 puts mass where mu2 has none."""


class SinkhornConvergenceError(RuntimeError):
    """Sinkhorn ran out of iterations; carries the last marginal violation."""

    def __init__(self, marginal_violation, iterations):
        self.marginal_violation = float(marginal_violation)
        self.iterations = int(iterations)
        super().__init__(
            f"no convergence after {iterations} iterations, "
            f"marginal violation {marginal_violation:.3e}"
        )


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over the points of a metric space."""

    p: np.ndarray

    def __post_init__(self):
        v = np.array(self.p, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("empty probability vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("distribution contains non-finite entries")
        if v.min() < 0.0:
            i = int(np.argmin(v))
            raise ValueError(f"negative probability {v[i]!r} at index {i}")
        s = v.sum()
        if abs(s - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {s!r}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "p", v)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def point_mass(cls, n: int, i: int) -> "Distribution":
        v = np.zeros(n)
        v[i] = 1.0
        return cls(v)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_weights(cls, w) -> "Distribution":
        w = np.asarray(w, dtype=float).ravel()
        if w.min(initial=0.0) < 0.0 or w.sum() <= 0.0:
            raise ValueError("weights must be nonnegative with positive total")
        return cls(w / w.sum())


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint distribution whose marginals are the two compared distributions."""

    plan: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        j = np.array(self.plan, dtype=float)
        a = np.asarray(self.mu1, dtype=float).ravel()
        b = np.asarray(self.mu2, dtype=float).ravel()
        if j.shape != (a.size, b.size):
            raise ValueError(f"plan shape {j.shape} does not match marginals")
        if j.min() < -PROB_TOL:
            raise ValueError(f"coupling entry {j.min()!r} below zero")
        row_err = np.abs(j.sum(axis=1) - a).max()
        col_err = np.abs(j.sum(axis=0) - b).max()
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise ValueError(
                f"marginals violated: row error {row_err:.3e}, column error {col_err:.3e}"
            )
        j.setflags(write=False)
        object.__setattr__(self, "plan", j)
        object.__setattr__(self, "mu1", a)
        object.__setattr__(self, "mu2", b)


@dataclass(frozen=True, eq=False)
class DualPotential:
    """Lipschitz test function attaining the dual transport value."""

    f: ScalarField
    lipschitz_bound: float
    space: MetricSpace

    def __post_init__(self):
        measured = lipschitz_constant(self.f, self.space).constant
        if measured > self.lipschitz_bound + 1e-9:
            raise ValueError(
                f"potential has Lipschitz constant {measured!r}, "
                f"bound is {self.lipschitz_bound!r}"
            )


def _check_pair(mu1, mu2, space):
    if mu1.n != space.n or mu2.n != space.n:
        raise ValueError(
            f"distributions of sizes {mu1.n}, {mu2.n} on a space with {space.n} points"
        )


def wasserstein_primal(mu1: Distribution, mu2: Distribution, space: MetricSpace):
    """Minimum-cost coupling between mu1 and mu2 under the space's metric.

    Returns (cost, plan).  The cost is the exact optimum of the coupling
    linear program; the plan attains it.
    """
    _check_pair(mu1, mu2, space)
    n = space.n
    if n == 1:
        return 0.0, Coupling(np.ones((1, 1)), mu1.p, mu2.p)
    # Row i of the plan sums to mu1[i], column j to mu2[j].
    marginals = np.vstack([np.repeat(np.eye(n), n, axis=1), np.tile(np.eye(n), n)])
    rhs = np.concatenate([mu1.p, mu2.p])
    problem = lp.LpProblem(-space.dist.ravel(), marginals, (lp.EQ,) * (2 * n), rhs, lower=0.0)
    sol = lp.solve_lp(problem)
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"transport primal LP reported {sol.status}")
    cost = -sol.objective_value
    if cost < 0.0:
        if cost < -1e-9:
            raise ArithmeticError(f"negative transport cost {cost!r}")
        cost = 0.0
    plan = Coupling(sol.x.reshape(n, n), mu1.p, mu2.p)
    return float(cost), plan


def wasserstein_dual(mu1: Distribution, mu2: Distribution, space: MetricSpace, c_bound: float):
    """Best mean-difference over potentials with Lipschitz constant <= c_bound.

    Solved as an LP in the potential values with one-sided pairwise
    constraints f(s1) - f(s2) <= c_bound * dist(s1, s2).  The gauge freedom
    is fixed by pinning f at point 0, which the LP eliminates outright.
    Returns (value, potential); at c_bound = 1 the value equals the primal
    cost by Kantorovich-Rubinstein duality.
    """
    _check_pair(mu1, mu2, space)
    if not (c_bound > 0.0) or not np.isfinite(c_bound):
        raise ValueError(f"c_bound must be positive and finite, got {c_bound!r}")
    n = space.n
    if n == 1:
        pot = DualPotential(ScalarField(np.zeros(1)), float(c_bound), space)
        return 0.0, pot
    w = mu1.p - mu2.p
    # One row f(s1) - f(s2) <= c * d(s1, s2) per ordered pair of unpinned
    # points, s1-major; pairs through the pinned point become box bounds.
    s1, s2 = np.nonzero(~np.eye(n - 1, dtype=bool))
    rows = np.arange(s1.shape[0])
    pairs = np.zeros((s1.shape[0], n - 1))
    pairs[rows, s1] = 1.0
    pairs[rows, s2] = -1.0
    rhs = c_bound * space.dist[1:, 1:][s1, s2]
    reach = c_bound * space.dist[0, 1:]
    problem = lp.LpProblem(w[1:], pairs, (lp.LEQ,) * rows.shape[0], rhs, -reach, reach)
    sol = lp.solve_lp(problem)
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"transport dual LP reported {sol.status}")
    value = sol.objective_value
    if value < 0.0:
        if value < -1e-9:
            raise ArithmeticError(f"negative dual transport value {value!r}")
        value = 0.0
    f = ScalarField(np.concatenate(([0.0], sol.x)))
    return float(value), DualPotential(f, float(c_bound), space)


def kl_divergence(mu1: Distribution, mu2: Distribution) -> float:
    """Kullback-Leibler divergence KL(mu1 || mu2) with 0 log 0 = 0.

    Raises SupportViolationError instead of returning a silent infinity
    when mu1 has mass outside mu2's support.
    """
    p = mu1.p
    q = mu2.p
    if p.shape != q.shape:
        raise ValueError(f"distributions of sizes {p.size} and {q.size}")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        i = int(np.flatnonzero(mask & (q <= 0.0))[0])
        raise SupportViolationError(
            f"mu2 has zero mass at point {i} where mu1 is positive; KL is infinite"
        )
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(val, 0.0)


def _logsumexp(mat, axis):
    m = mat.max(axis=axis, keepdims=True)
    out = np.log(np.exp(mat - m).sum(axis=axis)) + m.squeeze(axis)
    return out


def sinkhorn(
    mu1: Distribution,
    mu2: Distribution,
    space: MetricSpace,
    epsilon: float,
    max_iter: int = 100_000,
    tol: float = 1e-9,
) -> float:
    """Entropically regularized transport cost by alternating scaling.

    Runs entirely in the log domain (epsilon down to 1e-3 and below
    underflows the naive kernel) and warm-starts the target epsilon
    through a geometric annealing schedule, which is what makes small
    regularizations converge in a practical number of sweeps.  The
    iteration stops once the unmatched row marginal falls below ``tol``
    in L1; running out of ``max_iter`` raises with the last violation.
    Zero-mass points are dropped up front, so point masses are handled
    without the caller smoothing them first.
    """
    _check_pair(mu1, mu2, space)
    if not (epsilon > 0.0) or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ia = np.flatnonzero(mu1.p > 0.0)
    ib = np.flatnonzero(mu2.p > 0.0)
    a = mu1.p[ia]
    b = mu2.p[ib]
    cost_mat = space.dist[np.ix_(ia, ib)]
    if cost_mat.max(initial=0.0) == 0.0:
        return 0.0
    log_a = np.log(a)
    log_b = np.log(b)

    schedule = []
    eps = max(epsilon, cost_mat.max() / 2.0)
    while eps > 4.0 * epsilon:
        schedule.append(eps)
        eps /= 4.0
    schedule.append(epsilon)

    f = np.zeros(a.size)
    g = np.zeros(b.size)
    iters = 0
    violation = math.inf
    for stage, eps in enumerate(schedule):
        warm = stage < len(schedule) - 1
        stage_iters = 40 if warm else max_iter
        for _ in range(stage_iters):
            if iters >= max_iter:
                raise SinkhornConvergenceError(violation, iters)
            f = eps * (log_a - _logsumexp((g[None, :] - cost_mat) / eps, axis=1))
            g = eps * (log_b - _logsumexp((f[:, None] - cost_mat) / eps, axis=0))
            iters += 1
            if not warm:
                plan = np.exp((f[:, None] + g[None, :] - cost_mat) / eps)
                violation = np.abs(plan.sum(axis=1) - a).sum()
                if violation < tol:
                    return float((plan * cost_mat).sum())
    raise SinkhornConvergenceError(violation, iters)
