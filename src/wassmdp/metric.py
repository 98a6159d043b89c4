"""Finite metric spaces and exact Lipschitz constants on them.

Every space is a finite point set with an explicit pairwise distance
matrix, and every Lipschitz constant is an exact supremum over point
pairs.  Function outputs live on the real line with the absolute
difference as their metric, which is what makes the downstream bound
checks tight rather than estimated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass

import numpy as np

# Construction-time tolerance for the metric axioms.
AXIOM_TOL = 1e-12


class MetricError(ValueError):
    """Raised when a distance matrix violates the metric axioms, or the labels are not
    one distinct string per point."""


def _norm_labels(labels, n):
    """labels as a tuple of n distinct strings, or None; anything else is a MetricError."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)):
        raise MetricError(f"labels must be a list of {n} strings, got {type(labels).__name__}")
    if len(labels) != n:
        raise MetricError(f"expected {n} labels, got {len(labels)}")
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise MetricError(f"labels[{i}] must be a string, got {label!r}")
    if len(set(labels)) != n:
        repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
        raise MetricError(f"labels must be distinct, {repeated!r} repeats")
    return tuple(labels)


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Finite point set with a full pairwise distance matrix.

    Points must be distinct: a zero distance between different indices is
    rejected at construction so that every pairwise ratio downstream is
    well defined.  The triangle-inequality check takes O(n^3) time and
    O(n^2) memory and can be skipped by the embedded-space constructors,
    where it holds by construction.  The pairs i < j and their distances
    are gathered once per space, on first use, and kept: O(n^2) memory
    that every later Lipschitz measurement on the space reuses.
    """

    dist: np.ndarray
    labels: tuple[str, ...] | None = None
    embedding: dict | None = None
    check_triangle: InitVar[bool] = True

    def __post_init__(self, check_triangle):
        d = np.array(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n == 0:
            raise MetricError("a metric space needs at least one point")
        if not np.all(np.isfinite(d)):
            raise MetricError("distance matrix contains non-finite entries")
        diag = np.abs(np.diag(d))
        if diag.max(initial=0.0) > AXIOM_TOL:
            i = int(np.argmax(diag))
            raise MetricError(f"dist[{i}][{i}] = {d.item(i, i)!r}, diagonal must be zero")
        with np.errstate(over="ignore"):  # opposite signs past the largest float differ by inf
            asym = np.abs(d - d.T)
        if asym.max(initial=0.0) > AXIOM_TOL:
            i, j = np.unravel_index(int(np.argmax(asym)), d.shape)
            raise MetricError(
                f"asymmetric distances for pair ({i}, {j}): {d.item(i, j)!r} vs {d.item(j, i)!r}"
            )
        off = d.copy()
        np.fill_diagonal(off, 1.0)
        if np.any(off <= 0.0):
            i, j = (int(v) for v in np.argwhere(off <= 0.0)[0])
            raise MetricError(
                f"points {i} and {j} are distinct but at distance {d.item(i, j)!r}"
            )
        if check_triangle and n >= 3:
            through = np.full_like(d, np.inf)
            with np.errstate(over="ignore"):  # a sum past the largest float is inf, as it should be
                for k in range(n):  # min over k of d[i, k] + d[k, j] in O(n^2) memory
                    np.minimum(through, d[:, k, None] + d[k], out=through)
            gap = d - through
            if gap.max() > AXIOM_TOL:
                i, j = np.unravel_index(int(np.argmax(gap)), d.shape)
                raise MetricError(f"triangle inequality fails for pair ({i}, {j})")
        object.__setattr__(self, "labels", _norm_labels(self.labels, n))
        d.setflags(write=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @functools.cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (iu, ju, d): the pairs i < j in triu order and dist[iu, ju]."""
        iu, ju = np.triu_indices(self.n, k=1)
        d = self.dist[iu, ju]
        for arr in (iu, ju, d):
            arr.setflags(write=False)
        return iu, ju, d

    @classmethod
    def from_matrix(cls, dist, labels=None) -> "MetricSpace":
        """Build from an explicit matrix, running the full axiom checks."""
        return cls(np.asarray(dist, dtype=float), labels)

    @classmethod
    def line(cls, coords, labels=None) -> "MetricSpace":
        """Points on the real line, distance = absolute difference."""
        x = np.asarray(coords, dtype=float).ravel()
        d = np.abs(x[:, None] - x[None, :])
        emb = {"kind": "line", "coords": [float(v) for v in x]}
        return cls(d, labels, emb, check_triangle=False)

    @classmethod
    def unit_line(cls, n: int, labels=None) -> "MetricSpace":
        return cls.line(np.arange(n, dtype=float), labels)

    @classmethod
    def circle(cls, angles, labels=None) -> "MetricSpace":
        """Points on the unit circle at the given angles, arc-length metric."""
        t = np.asarray(angles, dtype=float).ravel()
        delta = np.abs(t[:, None] - t[None, :]) % (2.0 * math.pi)
        d = np.minimum(delta, 2.0 * math.pi - delta)
        np.fill_diagonal(d, 0.0)
        emb = {"kind": "circle", "coords": [float(v) for v in t]}
        return cls(d, labels, emb, check_triangle=False)

    @classmethod
    def grid2d(cls, coords, labels=None) -> "MetricSpace":
        """Points in the plane, Euclidean metric."""
        pts = np.asarray(coords, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MetricError(f"grid2d coordinates must have shape (n, 2), got {pts.shape}")
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        emb = {"kind": "grid2d", "coords": [[float(a), float(b)] for a, b in pts]}
        return cls(d, labels, emb, check_triangle=False)

    def to_json_dict(self) -> dict:
        if self.embedding is not None:
            out = {"embedding": dict(self.embedding)}
        else:
            out = {"n": self.n, "dist": [[float(v) for v in row] for row in self.dist]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def _json_number(value) -> float:
    """value as a float, which it must be as a JSON number: what float() refuses
    raises float()'s own error, and a string or a bool that float() would
    convert is refused too."""
    number = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"could not convert {value!r} to float: not a JSON number")
    return number


def _number_array(value) -> np.ndarray:
    """value as a float array; every entry of its nested lists goes through
    ``_json_number``, so a string or a bool is refused even where numpy would
    convert it."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            _json_number(item)
    return np.array(value, float)


def space_from_json(obj) -> MetricSpace:
    """Parse the MetricSpace JSON form (matrix or embedding flavour); coordinates,
    distances and ``n`` must be JSON numbers."""
    if not isinstance(obj, dict):
        raise MetricError(f"metric space must be a JSON object, got {type(obj).__name__}")
    labels = obj.get("labels")
    if "embedding" in obj:
        emb = obj["embedding"]
        if not isinstance(emb, dict) or "kind" not in emb or "coords" not in emb:
            raise MetricError("embedding needs 'kind' and 'coords' fields")
        kind = emb["kind"]
        if kind not in ("line", "circle", "grid2d"):
            raise MetricError(f"unknown embedding kind {kind!r}")
        return getattr(MetricSpace, kind)(_number_array(emb["coords"]), labels)
    if "dist" not in obj:
        raise MetricError("metric space needs either 'dist' or 'embedding'")
    space = MetricSpace.from_matrix(_number_array(obj["dist"]), labels)
    if "n" in obj and _json_number(obj["n"]) != space.n:
        raise MetricError(f"declared n = {obj['n']} but dist matrix is {space.n}x{space.n}")
    return space


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-valued function on the points of an associated MetricSpace."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def field_values(f, n: int | None = None) -> np.ndarray:
    """Coerce a ScalarField or array-like to a validated 1-D float array."""
    v = f.values if isinstance(f, ScalarField) else np.asarray(f, dtype=float).ravel()
    if np.count_nonzero(np.isfinite(v)) < v.shape[0]:  # np.all(np.isfinite(v)), faster
        raise ValueError("scalar field contains non-finite values")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"field has {v.shape[0]} values but the space has {n} points")
    return v


@dataclass(frozen=True)
class LipschitzReport:
    """Exact Lipschitz constant with the pair (and family member) achieving it."""

    constant: float
    witness: tuple[int, int]
    family_index: int | None = None


def lipschitz_constant(f, space: MetricSpace) -> LipschitzReport:
    """Exact Lipschitz constant of a scalar field by pair enumeration.

    Returns the maximum of |f(i) - f(j)| / dist(i, j) over all unordered
    pairs, together with an achieving pair.  A single-point space has no
    pairs and reports 0.
    """
    v = field_values(f, space.n)
    iu, ju, d = space.pairs
    if not d.shape[0]:
        return LipschitzReport(0.0, (0, 0))
    ratios = v[iu]
    ratios -= v[ju]
    np.abs(ratios, out=ratios)
    ratios /= d
    k = ratios.argmax()
    return LipschitzReport(ratios.item(k), (iu.item(k), ju.item(k)))


def uniform_lipschitz_constant(family, space: MetricSpace) -> LipschitzReport:
    """Largest per-member Lipschitz constant over a family of fields.

    Members are anything ``lipschitz_constant`` takes, so the columns of
    a table ``q`` can be passed as ``q.T``.  The witness records both the
    achieving pair and the index of the maximizing family member.
    """
    best = None
    for idx, f in enumerate(family):
        rep = lipschitz_constant(f, space)
        if best is None or rep.constant > best.constant:
            best, best_idx = rep, idx
    if best is None:
        raise ValueError("uniform Lipschitz constant of an empty family")
    return LipschitzReport(best.constant, best.witness, family_index=best_idx)
