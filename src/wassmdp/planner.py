"""Generalized value iteration with pluggable non-expansion backup
operators, plus greedy policy extraction and exact policy evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import FiniteMdp
from .metric import ScalarField

_OPERATOR_KINDS = ("max", "mean", "eps-greedy", "mellowmax")
# Below this inverse temperature the closed-form limit (the mean) is more
# accurate than the log-sum-exp evaluation.
_MELLOWMAX_MEAN_CUTOFF = 1e-8


@dataclass(frozen=True)
class BackupOperator:
    """Backup rule applied to a state's action values.

    max and mean take no parameter; eps-greedy interpolates mean and max
    with weight epsilon in [0, 1] on the mean; mellowmax is the
    log-mean-exponential with inverse temperature beta > 0.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("max", "mean"):
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.kind == "eps-greedy":
            if self.param is None or not (0.0 <= self.param <= 1.0):
                raise ValueError(f"eps-greedy needs epsilon in [0, 1], got {self.param!r}")
        else:
            if self.param is None or not (self.param > 0.0) or not np.isfinite(self.param):
                raise ValueError(f"mellowmax needs beta > 0, got {self.param!r}")


MAX = BackupOperator("max")
MEAN = BackupOperator("mean")


def eps_greedy(epsilon: float) -> BackupOperator:
    return BackupOperator("eps-greedy", float(epsilon))


def mellowmax(beta: float) -> BackupOperator:
    return BackupOperator("mellowmax", float(beta))


def parse_operator(text: str) -> BackupOperator:
    """Parse the CLI/config form: "max", "mean", "eps-greedy:0.1", "mellowmax:5.0"."""
    name, sep, arg = text.partition(":")
    name = name.strip()
    if name in ("max", "mean"):
        if sep:
            raise ValueError(f"{name} takes no parameter, got {text!r}")
        return BackupOperator(name)
    if name in ("eps-greedy", "mellowmax"):
        if not sep:
            raise ValueError(f"{name} needs a parameter, e.g. {name}:0.5")
        return BackupOperator(name, float(arg))
    raise ValueError(f"unknown operator spec {text!r}")


def operator_spec(op: BackupOperator) -> str:
    if op.param is None:
        return op.kind
    return f"{op.kind}:{op.param:g}"


def _row_max(q):
    return np.maximum.reduce(q, axis=1)


def _row_mean(q):
    return np.add.reduce(q, axis=1) / q.shape[1]  # the two steps of q.mean(axis=1)


def _row_backup(op: BackupOperator):
    """The operator as a function of a 2-D array, one value per row.

    The kind is resolved here, once.  Each function makes the IEEE
    operations of ``q.max(axis=1)``, ``q.mean(axis=1)`` and ``np.clip`` in
    the same order, calling the ufuncs without numpy's Python wrappers.
    """
    if op.kind == "max":
        return _row_max
    if op.kind == "mean" or (op.kind == "mellowmax" and op.param < _MELLOWMAX_MEAN_CUTOFF):
        return _row_mean
    if op.kind == "eps-greedy":
        eps = op.param
        return lambda q: eps * _row_mean(q) + (1.0 - eps) * _row_max(q)
    beta = op.param

    def mellowmax(q):
        top = _row_max(q)
        out = top + np.log(_row_mean(np.exp(beta * (q - top[:, None])))) / beta
        return np.minimum(np.maximum(out, np.minimum.reduce(q, axis=1)), top)  # np.clip's bits

    return mellowmax


def _apply_rows(op: BackupOperator, q: np.ndarray) -> np.ndarray:
    """Apply the operator to every row of a 2-D array."""
    return _row_backup(op)(q)


def apply_operator(op: BackupOperator, x) -> float:
    """Scalar form of the backup; result lies within [min(x), max(x)]."""
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("operator applied to an empty vector")
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise ValueError("operator applied to non-finite values")
    return _apply_rows(op, v[None, :]).item(0)


@dataclass(frozen=True, eq=False)
class QFunction:
    """State-action value table."""

    q: np.ndarray

    def __post_init__(self):
        arr = np.array(self.q, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"q must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("q contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "q", arr)


@dataclass(frozen=True, eq=False)
class GviResult:
    q: QFunction
    v: ScalarField
    iterations: int
    final_diff: float


class GviConvergenceError(RuntimeError):
    """GVI ran out of sweeps; carries the last sweep's max change."""

    def __init__(self, last_diff, max_iter):
        self.last_diff = float(last_diff)
        self.max_iter = int(max_iter)
        super().__init__(
            f"no convergence after {max_iter} sweeps, last diff {last_diff:.3e}"
        )


def gvi(
    mdp: FiniteMdp,
    op: BackupOperator,
    delta: float = 1e-10,
    q0: QFunction | np.ndarray | None = None,
    max_iter: int = 1_000_000,
    in_place: bool = False,
    on_sweep=None,
) -> GviResult:
    """Iterate Q <- R + gamma * T f(Q) until the largest per-entry change
    in a sweep drops below delta.

    Sweeps are synchronous by default: the whole iterate is rebuilt from
    the previous one, which makes the per-sweep Lipschitz recursion exact
    for the property checks.  ``in_place=True`` instead updates cell by
    cell with the freshest values.  ``on_sweep(iteration, q, diff)`` is
    invoked after every sweep.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not (max_iter >= 1):
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n, m = mdp.n_states, mdp.n_actions
    if q0 is None:
        q = np.zeros((n, m))
    else:
        q = np.array(q0.q if isinstance(q0, QFunction) else q0, dtype=float)
        if q.shape != (n, m):
            raise ValueError(f"q0 has shape {q.shape}, expected {(n, m)}")
    t_flat = mdp.transition.reshape(n * m, n)
    r = mdp.reward
    gamma = mdp.gamma
    backup = _row_backup(op)
    diff = np.inf
    for sweep in range(1, max_iter + 1):
        if in_place:
            diff = 0.0
            q = q.copy()
            v_now = backup(q)
            for s in range(n):
                for a in range(m):
                    new = r[s, a] + gamma * float(mdp.transition[s, a] @ v_now)
                    diff = max(diff, abs(new - q[s, a]))
                    q[s, a] = new
                    v_now[s] = backup(q[s : s + 1])[0]  # only row s changed
        else:
            v_now = backup(q)
            q_next = r + gamma * (t_flat @ v_now).reshape(n, m)
            diff = np.maximum.reduce(np.abs(q_next - q), axis=None).item()
            q = q_next
        if on_sweep is not None:
            on_sweep(sweep, q.copy(), diff)
        if diff < delta:
            return GviResult(QFunction(q), ScalarField(backup(q)), sweep, diff)
    raise GviConvergenceError(diff, max_iter)


def greedy_policy(q: QFunction | np.ndarray) -> np.ndarray:
    """Per-state argmax over actions; ties go to the lowest action index."""
    arr = q.q if isinstance(q, QFunction) else np.asarray(q, dtype=float)
    return np.argmax(arr, axis=1)


def evaluate_policy(mdp: FiniteMdp, policy) -> ScalarField:
    """Exact V^pi from the linear system V = R_pi + gamma T_pi V."""
    pol = np.asarray(policy, dtype=int).ravel()
    n, m = mdp.n_states, mdp.n_actions
    if pol.shape[0] != n:
        raise ValueError(f"policy has {pol.shape[0]} entries for {n} states")
    if pol.min() < 0 or pol.max() >= m:
        raise ValueError(f"policy actions must lie in [0, {m})")
    t_pi = mdp.transition[np.arange(n), pol]
    r_pi = mdp.reward[np.arange(n), pol]
    v = np.linalg.solve(np.eye(n) - mdp.gamma * t_pi, r_pi)
    residual = np.abs(v - (r_pi + mdp.gamma * t_pi @ v)).max()
    if residual > 1e-9:
        raise ArithmeticError(f"policy evaluation residual {residual:.3e}")
    return ScalarField(v)
