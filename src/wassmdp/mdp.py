"""Finite MDPs on metric state spaces: data model, JSON persistence,
random Lipschitz instance generation, and exact smoothness constants of
rewards and transition kernels (the latter under the Wasserstein metric
on next-state distributions).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .metric import (
    LipschitzReport,
    MetricSpace,
    _json_number,
    _number_array,
    space_from_json,
    uniform_lipschitz_constant,
)
from .transport import PROB_TOL, Distribution, wasserstein_primal

ROW_SUM_TOL = 1e-9   # acceptance tolerance for rows read from files


class MdpFormatError(ValueError):
    """An MDP file violates the schema or the model invariants."""


@dataclass(frozen=True, eq=False)
class FiniteMdp:
    """States with a metric, actions, rewards, transition tensor, discount.

    ``transition[s, a]`` is the next-state distribution for taking action
    ``a`` in state ``s``.  Construction checks each row once, as the
    ``Distribution`` that ``transition_dist(s, a)`` returns, and a bad row
    fails naming its state and action.  A model kernel is an MDP too:
    ``dataclasses.replace(mdp, transition=model_tensor)``.  The MDP
    measures its own kernel and reward Lipschitz constants, K_W and K_R,
    on first read and keeps them; they are not fields, so no caller can
    set them and a copy made with ``dataclasses.replace`` measures its own.
    """

    space: MetricSpace
    reward: np.ndarray
    transition: np.ndarray
    gamma: float

    def __post_init__(self):
        r = np.array(self.reward, dtype=float)
        t = np.array(self.transition, dtype=float)
        n = self.space.n
        if r.ndim != 2 or r.shape[0] != n:
            raise ValueError(f"reward must be (n_states, n_actions), got {r.shape}")
        m = r.shape[1]
        if m < 1:
            raise ValueError("need at least one action")
        if t.shape != (n, m, n):
            raise ValueError(f"transition must have shape {(n, m, n)}, got {t.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("reward matrix contains non-finite entries")
        rows = []
        for s in range(n):
            for a in range(m):
                try:
                    rows.append(Distribution(t[s, a]))
                except ValueError as exc:
                    raise ValueError(f"transition row for state {s}, action {a}: {exc}") from exc
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma!r}")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def n_states(self) -> int:
        return self.space.n

    @property
    def n_actions(self) -> int:
        return self.reward.shape[1]

    def transition_dist(self, s: int, a: int) -> Distribution:
        """The row ``transition[s, a]`` as the Distribution checked at construction."""
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range [0, {self.n_states})")
        if not 0 <= a < self.n_actions:
            raise IndexError(f"action {a} out of range [0, {self.n_actions})")
        return self._rows[s * self.n_actions + a]

    @functools.cached_property
    def measured_kernel_constant(self) -> float:
        """K_W, from ``kernel_lipschitz``: measured on first read, then kept."""
        return kernel_lipschitz(self).constant

    @functools.cached_property
    def measured_reward_constant(self) -> float:
        """K_R, from ``reward_lipschitz``: measured on first read, then kept."""
        return reward_lipschitz(self).constant


@dataclass(frozen=True)
class KernelLipschitzReport:
    """Worst ratio of next-state Wasserstein distance to state distance.

    The witness is (action, (s1, s2)); a single-state space has no pairs
    and reports 0 with no witness.
    """

    constant: float
    witness: tuple[int, tuple[int, int]] | None


def reward_lipschitz(mdp: FiniteMdp) -> LipschitzReport:
    """Uniform Lipschitz constant of the reward columns over the state metric."""
    return uniform_lipschitz_constant(mdp.reward.T, mdp.space)


def kernel_lipschitz(mdp: FiniteMdp) -> KernelLipschitzReport:
    """Exact kernel smoothness K_W by exhaustive primal transport solves.

    Row pairs that repeat across the sweep (common for kernels built from
    a deterministic map plus smoothing) are solved once: the transport
    distance depends only on the pair of rows, and symmetrically so.
    """
    n, m = mdp.n_states, mdp.n_actions
    if n == 1:
        return KernelLipschitzReport(0.0, None)
    row_dist = mdp.transition_dist
    cache: dict = {}
    best = -1.0
    witness = None
    for a in range(m):
        for s1 in range(n):
            row1 = mdp.transition[s1, a]
            for s2 in range(s1 + 1, n):
                row2 = mdp.transition[s2, a]
                if np.array_equal(row1, row2):
                    w = 0.0
                else:
                    k1, k2 = row1.tobytes(), row2.tobytes()
                    key = (k1, k2) if k1 <= k2 else (k2, k1)
                    w = cache.get(key)
                    if w is None:
                        w, _ = wasserstein_primal(row_dist(s1, a), row_dist(s2, a), mdp.space)
                        cache[key] = w
                ratio = w / mdp.space.dist[s1, s2]
                if ratio > best:
                    best = ratio
                    witness = (a, (s1, s2))
    return KernelLipschitzReport(float(best), witness)


def _base_map(rng, n, space_kind, base):
    if base == "identity":
        return np.arange(n)
    if space_kind == "line":
        # Clipped random walk: adjacent images differ by at most one grid
        # step, so the map is 1-Lipschitz for the line metric.
        steps = rng.integers(-1, 2, size=n - 1) if n > 1 else np.zeros(0, dtype=int)
        g = int(rng.integers(0, n)) + np.concatenate(([0], np.cumsum(steps)))
        return np.clip(g, 0, n - 1)
    if space_kind == "circle":
        # Rotations (optionally reflected) are isometries of the circle.
        shift = int(rng.integers(0, n))
        g = (np.arange(n) + shift) % n
        if rng.random() < 0.5:
            g = g[::-1].copy()
        return g
    # grid2d: clipped lattice translation, 1-Lipschitz per axis.
    side = int(np.ceil(np.sqrt(n)))
    idx = np.arange(n)
    rows, cols = idx // side, idx % side
    dr, dc = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
    rows = np.clip(rows + dr, 0, (n - 1) // side)
    cols = np.clip(cols + dc, 0, side - 1)
    g = rows * side + cols
    return np.minimum(g, n - 1)


def generate_lipschitz_mdp(
    n: int,
    m: int,
    gamma: float,
    smoothing: float,
    seed: int,
    *,
    reward_lipschitz_target: float = 1.0,
    base: str = "walk",
    space_kind: str = "line",
    measure: bool = True,
) -> FiniteMdp:
    """Random MDP whose kernel smoothness is capped by construction.

    States sit on a unit-spaced line by default (circle and planar-grid
    variants available).  Each action's kernel convexly mixes a
    deterministic 1-Lipschitz map with the uniform distribution, weight
    ``smoothing`` toward uniform, which caps K_W at 1 - smoothing.
    Rewards are drawn in [-1, 1] and rescaled to the target reward
    Lipschitz constant.  Controlling K_W exactly is hard, so downstream
    bound checks use the realized constants the MDP measures, not the
    construction target.  With ``measure`` (the default) both are measured
    before the MDP is returned; without it, on first read.  Deterministic
    in ``seed``.
    """
    if n < 2 or m < 1:
        raise ValueError("need at least two states and one action")
    if not (0.0 <= smoothing <= 1.0):
        raise ValueError(f"smoothing must lie in [0, 1], got {smoothing!r}")
    if base not in ("walk", "identity"):
        raise ValueError(f"unknown base map kind {base!r}")
    rng = np.random.default_rng(seed)
    if space_kind == "line":
        space = MetricSpace.unit_line(n)
    elif space_kind == "circle":
        space = MetricSpace.circle(2.0 * np.pi * np.arange(n) / n)
    elif space_kind == "grid2d":
        side = int(np.ceil(np.sqrt(n)))
        pts = [(float(i // side), float(i % side)) for i in range(n)]
        space = MetricSpace.grid2d(pts)
    else:
        raise ValueError(f"unknown space kind {space_kind!r}")

    transition = np.empty((n, m, n))
    for a in range(m):
        g = _base_map(rng, n, space_kind, base)
        rows = np.full((n, n), smoothing / n)
        rows[np.arange(n), g] += 1.0 - smoothing
        transition[:, a, :] = rows

    reward = rng.uniform(-1.0, 1.0, size=(n, m))
    reward = np.clip(reward, -1.0, 1.0)
    k0 = uniform_lipschitz_constant(reward.T, space).constant
    if k0 > 0.0:
        reward = reward * (reward_lipschitz_target / k0)

    out = FiniteMdp(space, reward, transition, gamma)
    if measure:  # the first read measures, so read both as part of generation
        _ = out.measured_kernel_constant, out.measured_reward_constant
    return out


def save_mdp(mdp: FiniteMdp, path) -> None:
    """Write the MDP JSON form; floats round-trip at full precision."""
    doc = {
        "space": mdp.space.to_json_dict(),
        "actions": mdp.n_actions,
        "gamma": float(mdp.gamma),
        "reward": [[float(v) for v in row] for row in mdp.reward],
        "transition": [
            [[float(v) for v in row] for row in per_state] for per_state in mdp.transition
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _field(doc, key, convert):
    """convert(doc[key]), with a failure as an MdpFormatError naming the field."""
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MdpFormatError(f"{key}: {exc}") from exc


def load_mdp(path) -> FiniteMdp:
    """Parse an MDP JSON file; FiniteMdp validates the model it describes.

    Rows are accepted when they sum to 1 within 1e-9 and renormalized only
    when they are not already exact, so files written by save_mdp load
    back bit-identically.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise MdpFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MdpFormatError(f"{path}: top level must be an object")
    for key in ("space", "actions", "gamma", "reward", "transition"):
        if key not in doc:
            raise MdpFormatError(f"{path}: missing field {key!r}")
    space = _field(doc, "space", space_from_json)
    gamma = _field(doc, "gamma", _json_number)
    reward = _field(doc, "reward", _number_array)
    transition = _field(doc, "transition", _number_array)
    if transition.ndim == 3:  # FiniteMdp rejects any other shape
        sums = transition.sum(axis=2, keepdims=True)
        err = np.abs(sums - 1.0)
        if (err > ROW_SUM_TOL).any():
            s, a, _ = np.argwhere(err > ROW_SUM_TOL)[0]
            raise MdpFormatError(f"transition[{s}][{a}]: probabilities sum to {sums[s, a, 0].item()!r}")
        transition = np.where(err > PROB_TOL, transition / sums, transition)
    try:
        mdp = FiniteMdp(space, reward, transition, gamma)
    except ValueError as exc:
        raise MdpFormatError(str(exc)) from exc
    actions = doc["actions"]
    if isinstance(actions, bool) or actions != mdp.n_actions:
        raise MdpFormatError(f"actions: must equal the reward's {mdp.n_actions} columns, got {actions!r}")
    return mdp
