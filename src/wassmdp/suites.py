"""Seeded verification suites over random problem grids.

Each suite instantiates one of the library's exact identities or
inequalities on a reproducible random grid and reports the worst
violation observed.  Cell randomness comes from composite seed
sequences (master seed, cell index), so cells are independent of
execution order and any failure can be regenerated standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .mdp import FiniteMdp, generate_lipschitz_mdp
from .metric import MetricSpace, lipschitz_constant, uniform_lipschitz_constant
from .planner import MAX, MEAN, BackupOperator, apply_operator, eps_greedy, mellowmax, operator_spec
from .planner import check_gvi_settings
from .transport import Distribution, wasserstein_dual, wasserstein_primal
from .vaml import holder_pinsker_bounds, value_lipschitz_bound, verify_equivalence, verify_value_lipschitz


def cell_rng(seed: int, index: int) -> np.random.Generator:
    """Order-independent per-cell generator from a master seed."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def random_metric_space(rng, n: int, kind: str | None = None) -> MetricSpace:
    """Random space: jittered line, shortest-path-closed matrix, or planar points."""
    if kind is None:
        kind = rng.choice(["line", "closure", "plane"])
    if kind == "line":
        gaps = rng.uniform(0.05, 1.0, size=max(n - 1, 0))
        return MetricSpace.line(np.concatenate(([0.0], np.cumsum(gaps))))
    if kind == "closure":
        raw = rng.uniform(0.1, 1.0, size=(n, n))
        d = (raw + raw.T) / 2.0
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            # min-plus closure enforces the triangle inequality exactly
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
        return MetricSpace.from_matrix(d)
    if kind == "plane":
        while True:
            pts = rng.uniform(0.0, 3.0, size=(n, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dist, 1.0)
            if dist.min() > 1e-2:
                return MetricSpace.grid2d(pts)
    raise ValueError(f"unknown space kind {kind!r}")


def random_distribution(rng, n: int, allow_zeros: bool = True) -> Distribution:
    p = rng.dirichlet(rng.uniform(0.3, 3.0, size=n))
    if allow_zeros and n > 1 and rng.random() < 0.4:
        keep = rng.random(n) > 0.35
        if not keep.any():
            keep[int(rng.integers(0, n))] = True
        p = np.where(keep, p, 0.0)
        if p.sum() == 0.0:
            return Distribution.point_mass(n, int(rng.integers(0, n)))
        p = p / p.sum()
    return Distribution(p)


def random_model_tensor(rng, mdp: FiniteMdp) -> np.ndarray:
    """Strictly positive alternative kernel: fresh softmax or a perturbation."""
    n, m = mdp.n_states, mdp.n_actions
    if rng.random() < 0.5:
        logits = rng.normal(0.0, 1.5, size=(n, m, n))
        z = np.exp(logits - logits.max(axis=2, keepdims=True))
        return z / z.sum(axis=2, keepdims=True)
    bumped = mdp.transition + rng.uniform(0.01, 0.4, size=mdp.transition.shape)
    return bumped / bumped.sum(axis=2, keepdims=True)


@dataclass
class SuiteReport:
    """Grid outcome: worst violation, pass flag, and reproduction details."""

    suite: str
    trials: int
    tol: float
    seed: int
    max_violation: float
    passed: bool
    worst: dict | None = None
    skipped: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "tol": self.tol,
            "seed": self.seed,
            "max_violation": self.max_violation,
            "pass": self.passed,
            "worst": self.worst,
            "skipped": self.skipped,
            "details": self.details,
        }


# The least value of each integer setting of each suite, besides ``seed: 0``.
_MINIMA = {
    "duality": {"trials": 1, "max_states": 2},
    "equivalence": {"trials": 1, "max_states": 4, "max_actions": 1},
    "theorem": {"trials": 1},
    "operators": {"trials": 1},
    "lemmas": {"trials": 1, "chain_trials": 1},
}


def check_settings(suite: str, settings: dict) -> None:
    """Raise ValueError, naming the setting, on a value ``suite`` cannot run with.

    Every suite calls this on entry, before it draws or generates anything;
    ``settings`` maps keyword names to values and may leave any out.  A
    tolerance (``tol``, the theorem suite's ``recursion_tol``) must be
    finite and at least 0.  The theorem suite's ``delta`` goes to gvi,
    which owns its rule.  Every setting is a number, and a bool is not one.
    """
    for key, value in settings.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{key}: must be a number, not a bool, got {value!r}")
    for key, least in {"seed": 0, **_MINIMA[suite]}.items():
        if key in settings and settings[key] < least:
            raise ValueError(f"{key}: must be at least {least}, got {settings[key]}")
    for key in ("tol", "recursion_tol"):
        if key in settings and not (0.0 <= settings[key] < np.inf):
            raise ValueError(f"{key}: must be finite and at least 0, got {settings[key]!r}")
    check_gvi_settings(settings)


def duality_suite(seed: int = 0, trials: int = 100, max_states: int = 20, tol: float = 1e-6) -> SuiteReport:
    """Primal coupling cost versus dual potential value at unit bound."""
    check_settings("duality", {"seed": seed, "trials": trials, "max_states": max_states, "tol": tol})
    max_violation = -np.inf
    worst = None
    for t in range(trials):
        rng = cell_rng(seed, t)
        n = int(rng.integers(2, max_states + 1))
        space = random_metric_space(rng, n)
        mu1 = random_distribution(rng, n)
        mu2 = random_distribution(rng, n)
        primal, _ = wasserstein_primal(mu1, mu2, space)
        dual, _ = wasserstein_dual(mu1, mu2, space, 1.0)
        gap = abs(primal - dual)
        if gap > max_violation:
            max_violation = gap
            worst = {"cell": t, "n": n, "primal": primal, "dual": dual}
    return SuiteReport("duality", trials, tol, seed, float(max_violation), bool(max_violation <= tol), worst)


def equivalence_suite(
    seed: int = 0,
    trials: int = 50,
    max_states: int = 15,
    max_actions: int = 3,
    tol: float = 1e-6,
) -> SuiteReport:
    """Worst-case loss over the certified Lipschitz ball vs squared scaled
    transport distance, relative gap per state-action cell."""
    check_settings(
        "equivalence",
        {"seed": seed, "trials": trials, "max_states": max_states, "max_actions": max_actions, "tol": tol},
    )
    max_violation = -np.inf
    worst = None
    for t in range(trials):
        rng = cell_rng(seed, t)
        n = int(rng.integers(4, max_states + 1))
        m = int(rng.integers(1, max_actions + 1))
        gamma = float(rng.choice([0.8, 0.9, 0.95]))
        smoothing = float(rng.uniform(0.15, 0.9))
        mdp = generate_lipschitz_mdp(n, m, gamma, smoothing, int(rng.integers(0, 2**31)))
        bound = value_lipschitz_bound(mdp).c
        that = random_model_tensor(rng, mdp)
        report = verify_equivalence(mdp, that, bound)
        for cell in report.cells:
            rel = cell.gap / (1.0 + cell.vaml)
            if rel > max_violation:
                max_violation = rel
                worst = {
                    "cell": t,
                    "n": n,
                    "m": m,
                    "gamma": gamma,
                    "smoothing": smoothing,
                    "s": cell.s,
                    "a": cell.a,
                    "vaml": cell.vaml,
                    "wasserstein": cell.wasserstein,
                    "c": cell.c,
                }
    return SuiteReport(
        "equivalence", trials, tol, seed, float(max_violation), bool(max_violation <= tol), worst
    )


def _default_operator_grid() -> list[BackupOperator]:
    return [MAX, MEAN, eps_greedy(0.0), eps_greedy(0.3), mellowmax(1.0), mellowmax(10.0)]


def theorem_suite(
    seed: int = 0,
    trials: int = 40,
    operators: list[BackupOperator] | None = None,
    delta: float = 1e-10,
    tol: float = 1e-8,
    recursion_tol: float = 1e-9,
    mdps: list[FiniteMdp] | None = None,
) -> SuiteReport:
    """Fixed-point smoothness against K(R)/(1 - gamma K_W), with the
    per-sweep recursion K(Q_next) <= K(R) + gamma K_W K(Q) checked at
    every sweep.  Cells whose discounted kernel constant reaches 1 are
    excluded as outside the bound's precondition and reported as skipped.
    """
    check_settings(
        "theorem", {"seed": seed, "trials": trials, "delta": delta, "tol": tol, "recursion_tol": recursion_tol}
    )
    if mdps is not None and not mdps:
        raise ValueError("mdps: must hold at least one MDP, or be None to generate them")
    operators = operators if operators is not None else _default_operator_grid()
    if mdps is not None:
        trials = min(trials, len(mdps))
    max_violation = -np.inf
    recursion_max = -np.inf
    # Sweep 1 gives Q = R, where the recursion holds with equality on
    # generator MDPs; the least slack of the later sweeps shows their margin.
    recursion_sweeps = 0
    recursion_min_slack = np.inf
    worst = None
    skipped = []
    for t in range(trials):
        if mdps is not None:
            mdp = mdps[t]
            params = {"cell": t, "provided": True}
        else:
            rng = cell_rng(seed, t)
            n = int(rng.integers(4, 10))
            m = int(rng.integers(1, 4))
            gamma = float(rng.choice([0.7, 0.9, 0.95]))
            smoothing = float(rng.uniform(0.2, 0.9))
            mdp = generate_lipschitz_mdp(n, m, gamma, smoothing, int(rng.integers(0, 2**31)))
            params = {"cell": t, "n": n, "m": m, "gamma": gamma, "smoothing": smoothing}
        kw = mdp.measured_kernel_constant
        kr = mdp.measured_reward_constant
        if mdp.gamma * kw >= 1.0:
            skipped.append({**params, "reason": "gamma * K_W >= 1", "gamma_kw": mdp.gamma * kw})
            continue
        for op in operators:
            prev = 0.0

            def on_sweep(it, q, _diff, space=mdp.space, kr=kr, gamma_kw=mdp.gamma * kw):
                nonlocal recursion_max, recursion_sweeps, recursion_min_slack, prev
                kq = uniform_lipschitz_constant(q.T, space).constant
                allowed = kr + gamma_kw * prev
                recursion_max = max(recursion_max, kq - allowed)
                recursion_sweeps += 1
                if it >= 2:
                    recursion_min_slack = min(recursion_min_slack, allowed - kq)
                prev = kq

            check = verify_value_lipschitz(mdp, op, delta, on_sweep)
            kq, kv, bound = check.measured_kq, check.measured_kv, check.bound
            viol = (max(kq, kv) - bound) / (1.0 + bound)
            if viol > max_violation:
                max_violation = viol
                worst = {**params, "operator": operator_spec(op), "kq": kq, "kv": kv, "bound": bound}
    if not np.isfinite(max_violation):
        max_violation = 0.0  # every cell was precondition-excluded
    if not np.isfinite(recursion_max):
        recursion_max = 0.0
    passed = max_violation <= tol and recursion_max <= recursion_tol
    return SuiteReport(
        "theorem",
        trials,
        tol,
        seed,
        float(max_violation),
        bool(passed),
        worst,
        skipped,
        details={
            "recursion_max_excess": float(recursion_max),
            "recursion_tol": recursion_tol,
            "recursion_sweeps": recursion_sweeps,
            # None when no run took a second sweep.
            "recursion_min_slack": float(recursion_min_slack) if np.isfinite(recursion_min_slack) else None,
        },
    )


def operators_suite(seed: int = 0, trials: int = 1000, tol: float = 1e-12) -> SuiteReport:
    """Non-expansion of every backup operator across its parameter grid."""
    check_settings("operators", {"seed": seed, "trials": trials, "tol": tol})
    grid = [
        MAX,
        MEAN,
        eps_greedy(0.0),
        eps_greedy(0.3),
        eps_greedy(1.0),
        mellowmax(0.1),
        mellowmax(1.0),
        mellowmax(10.0),
        mellowmax(100.0),
    ]
    max_violation = -np.inf
    worst = None
    for cell, op in enumerate(grid):
        rng = cell_rng(seed, cell)
        for t in range(trials):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(-10.0, 10.0, size=dim)
            y = rng.uniform(-10.0, 10.0, size=dim)
            excess = abs(apply_operator(op, x) - apply_operator(op, y)) - np.abs(x - y).max()
            if excess > max_violation:
                max_violation = excess
                worst = {"operator": operator_spec(op), "trial": t, "dim": dim}
    return SuiteReport(
        "operators",
        trials,
        tol,
        seed,
        float(max_violation),
        bool(max_violation <= tol),
        worst,
        details={"cells": [operator_spec(op) for op in grid]},
    )


def lemmas_suite(
    seed: int = 0,
    trials: int = 100,
    chain_trials: int = 200,
    tol: float = 1e-12,
) -> SuiteReport:
    """Composition and summation bounds for measured Lipschitz constants,
    plus the Holder/Pinsker relaxation chain of the pointwise model error."""
    check_settings("lemmas", {"seed": seed, "trials": trials, "chain_trials": chain_trials, "tol": tol})
    comp_max = -np.inf
    sum_max = -np.inf
    chain_max = -np.inf
    worst = None

    for t in range(trials):
        rng = cell_rng(seed, t)
        n = int(rng.integers(3, 13))
        space = random_metric_space(rng, n)
        g = rng.uniform(-2.0, 2.0, size=n)
        grid = np.unique(g)
        if grid.size == 1:
            composed_excess = 0.0
        else:
            mid = MetricSpace.line(grid)
            f_mid = rng.uniform(-2.0, 2.0, size=grid.size)
            kf = lipschitz_constant(f_mid, mid).constant
            kg = lipschitz_constant(g, space).constant
            h = f_mid[np.searchsorted(grid, g)]
            kh = lipschitz_constant(h, space).constant
            composed_excess = kh - kf * kg
        if composed_excess > comp_max:
            comp_max = composed_excess
            if composed_excess > tol:
                worst = {"check": "composition", "cell": t, "n": n}
        f1 = rng.uniform(-2.0, 2.0, size=n)
        f2 = rng.uniform(-2.0, 2.0, size=n)
        sum_excess = (
            lipschitz_constant(f1 + f2, space).constant
            - lipschitz_constant(f1, space).constant
            - lipschitz_constant(f2, space).constant
        )
        if sum_excess > sum_max:
            sum_max = sum_excess
            if sum_excess > tol:
                worst = {"check": "summation", "cell": t, "n": n}

    for t in range(chain_trials):
        rng = cell_rng(seed, trials + t)
        n = int(rng.integers(2, 13))
        space = random_metric_space(rng, n)
        t_row = random_distribution(rng, n).p
        that_row = rng.dirichlet(rng.uniform(0.5, 3.0, size=n))
        transition = t_row[None, None, :].repeat(n, axis=0)
        that = that_row[None, None, :].repeat(n, axis=0)
        mdp = FiniteMdp(space, np.zeros((n, 1)), transition, float(rng.uniform(0.1, 0.99)))
        v = rng.uniform(-3.0, 3.0, size=n)
        s = int(rng.integers(0, n))
        err, l1, klb = holder_pinsker_bounds(mdp, replace(mdp, transition=that), v, s, 0)
        excess = max(err - l1, l1 - klb)
        if excess > chain_max:
            chain_max = excess
            if excess > tol:
                worst = {"check": "holder-pinsker", "cell": t, "n": n}

    max_violation = max(comp_max, sum_max, chain_max)
    return SuiteReport(
        "lemmas",
        trials,
        tol,
        seed,
        float(max_violation),
        bool(max_violation <= tol),
        worst,
        details={
            "composition_max_excess": float(comp_max),
            "summation_max_excess": float(sum_max),
            "holder_pinsker_max_excess": float(chain_max),
            "chain_trials": chain_trials,
        },
    )


SUITES = {
    "duality": duality_suite,
    "equivalence": equivalence_suite,
    "theorem": theorem_suite,
    "operators": operators_suite,
    "lemmas": lemmas_suite,
}
