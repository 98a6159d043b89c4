"""Reference computations that share no code with ``wassmdp``.

The benchmark checks the program's outputs against these: the closed-form
Wasserstein-1 distance on a line, Lipschitz constants by a double loop
over point pairs, its own value iteration and policy evaluation, and,
where scipy can be imported, the transport LP solved by HiGHS.  Only
numpy is needed; scipy is optional and never imported at module load.
"""

from __future__ import annotations

import math

import numpy as np


def w1_line(p, q, coords) -> float:
    """W1 between p and q on points of the real line: sum |F1 - F2| * gap."""
    x = np.asarray(coords, dtype=float)
    order = np.argsort(x, kind="stable")
    cdf_gap = np.cumsum(np.asarray(p, dtype=float)[order] - np.asarray(q, dtype=float)[order])
    return float(np.sum(np.abs(cdf_gap[:-1]) * np.diff(x[order])))


def line_coords(coords, dist) -> np.ndarray:
    """``coords`` as an array, after checking that |x_i - x_j| reproduces ``dist``."""
    x = np.asarray(coords, dtype=float)
    d = np.asarray(dist, dtype=float)
    if np.abs(np.abs(x[:, None] - x[None, :]) - d).max() > 1e-12 * (1.0 + d.max()):
        raise ValueError("coordinates do not reproduce the distance matrix")
    return x


def lipschitz_brute(values, dist) -> float:
    """max |v_i - v_j| / d_ij over all pairs i < j, by a double loop.

    ``values`` may be (n,) or (n, k); with k columns the result is the
    largest constant over the columns.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    d = np.asarray(dist, dtype=float)
    n = v.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(v.shape[1]):
                ratio = abs(v[i, k] - v[j, k]) / d[i, j]
                if ratio > best:
                    best = ratio
    return best


def lipschitz_all_pairs(values, dist) -> float:
    """The same constant as ``lipschitz_brute``, over the full pair matrix at once."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    d = np.asarray(dist, dtype=float).copy()
    np.fill_diagonal(d, np.inf)
    return float((np.abs(v[:, None, :] - v[None, :, :]) / d[:, :, None]).max())


def backup(kind: str, param, q) -> np.ndarray:
    """Per-state backup of an (n, m) action-value table.

    max, mean, eps-greedy (weight ``param`` on the mean) and mellowmax
    (log of the mean of exp(beta * q), over beta).
    """
    q = np.asarray(q, dtype=float)
    if kind == "max":
        return q.max(axis=1)
    if kind == "mean":
        return q.mean(axis=1)
    if kind == "eps-greedy":
        return param * q.mean(axis=1) + (1.0 - param) * q.max(axis=1)
    if kind == "mellowmax":
        top = q.max(axis=1)
        return top + np.log(np.exp(param * (q - top[:, None])).sum(axis=1) / q.shape[1]) / param
    raise ValueError(f"unknown backup {kind!r}")


def value_iteration(transition, reward, gamma, kind="max", param=None, tol=1e-12, on_sweep=None):
    """Synchronous Q <- R + gamma * T backup(Q) from zero until the change is below tol.

    ``on_sweep(q)`` sees every iterate.  Returns the final Q table.
    """
    t = np.asarray(transition, dtype=float)
    r = np.asarray(reward, dtype=float)
    n, m = r.shape
    q = np.zeros((n, m))
    for _ in range(100_000):
        q_next = r + gamma * np.einsum("san,n->sa", t, backup(kind, param, q))
        if on_sweep is not None:
            on_sweep(q_next)
        change = np.abs(q_next - q).max()
        q = q_next
        if change < tol:
            return q
    raise ArithmeticError("reference value iteration did not converge")


def policy_evaluation(transition, reward, gamma, policy) -> np.ndarray:
    """V of a deterministic policy from (I - gamma T_pi) V = R_pi."""
    t = np.asarray(transition, dtype=float)
    r = np.asarray(reward, dtype=float)
    idx = np.arange(r.shape[0])
    pol = np.asarray(policy, dtype=int)
    return np.linalg.solve(np.eye(r.shape[0]) - gamma * t[idx, pol], r[idx, pol])


def planning_gaps(transition, model, reward, gamma, margin=1e-9) -> list[float]:
    """max |V* - V^pi| in the true MDP for every policy greedy for the model.

    Actions whose model values lie within ``margin`` of the best are all
    counted as greedy, so a tie that two solvers may break differently
    yields one gap per choice.
    """
    q_model = value_iteration(model, reward, gamma)
    v_star = backup("max", None, value_iteration(transition, reward, gamma))
    best = q_model.max(axis=1, keepdims=True)
    choices = [np.flatnonzero(row >= b - margin) for row, b in zip(q_model, best[:, 0])]
    if math.prod(len(c) for c in choices) > 64:
        raise ArithmeticError("too many tied greedy policies to enumerate")
    policies = [[]]
    for c in choices:
        policies = [p + [int(a)] for p in policies for a in c]
    return [
        float(np.abs(v_star - policy_evaluation(transition, reward, gamma, p)).max())
        for p in policies
    ]


def softmax(z, axis=-1) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    return max(float(np.sum(p[mask] * np.log(p[mask] / q[mask]))), 0.0)


def highs_w1(p, q, dist) -> float | None:
    """W1 by scipy's HiGHS on the coupling LP, or None when scipy is absent."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    rows = np.zeros((2 * n, n * n))
    for i in range(n):
        rows[i, i * n : (i + 1) * n] = 1.0
        rows[n + i, i::n] = 1.0
    res = linprog(
        d.ravel(),
        A_eq=rows,
        b_eq=np.concatenate([p, q]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"HiGHS reported status {res.status}: {res.message}")
    return float(res.fun)
