"""Model fitting against exact transition tensors.

Fits a softmax-parameterized transition model to a true MDP by gradient
descent on a KL, Wasserstein, or value-aware objective, then measures
how much planning with the learned model costs in the true MDP.  The
LP-valued losses have no convenient gradients, so those are driven by
central finite differences; the fit is deterministic in the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mdp import FiniteMdp, kernel_lipschitz
from .planner import MAX, evaluate_policy, greedy_policy, gvi
from .transport import Distribution, SupportViolationError, kl_divergence, wasserstein_dual, wasserstein_primal
from .vaml import value_lipschitz_bound

_LOSS_KINDS = ("kl", "wasserstein", "vaml")

# Standard deviation of the initial logits drawn from the fit's seed.
_INIT_SCALE = 0.01


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""

    def __init__(self, iteration):
        self.iteration = int(iteration)
        super().__init__(f"loss became non-finite at iteration {iteration}")


def _softmax(z, axis=-1):
    shifted = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=axis, keepdims=True)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full-rank model: one row of logits per (state, action)."""

    logits: np.ndarray

    def __post_init__(self):
        z = np.array(self.logits, dtype=float)
        if z.ndim != 3 or z.shape[0] != z.shape[2]:
            raise ValueError(f"logits must have shape (n, m, n), got {z.shape}")
        z.setflags(write=False)
        object.__setattr__(self, "logits", z)

    def transition_tensor(self) -> np.ndarray:
        return _softmax(self.logits, axis=2)

    def flat(self) -> np.ndarray:
        return self.logits.ravel().copy()

    def with_flat(self, vec) -> "ModelParams":
        return ModelParams(np.asarray(vec, dtype=float).reshape(self.logits.shape))


@dataclass(frozen=True, eq=False)
class RankLimitedModelParams:
    """Shared-basis model: k basis rows mixed per (state, action).

    With k below the state count the true kernel generally falls outside
    the class, which is the regime where the choice of loss starts to
    matter.
    """

    basis_logits: np.ndarray    # (k, n)
    weight_logits: np.ndarray   # (n, m, k)

    def __post_init__(self):
        bz = np.array(self.basis_logits, dtype=float)
        wz = np.array(self.weight_logits, dtype=float)
        if bz.ndim != 2 or wz.ndim != 3 or wz.shape[2] != bz.shape[0]:
            raise ValueError(
                f"incompatible shapes {bz.shape} and {wz.shape} for a rank-limited model"
            )
        if wz.shape[0] != bz.shape[1]:
            raise ValueError("basis rows must live on the model's state space")
        bz.setflags(write=False)
        wz.setflags(write=False)
        object.__setattr__(self, "basis_logits", bz)
        object.__setattr__(self, "weight_logits", wz)

    def transition_tensor(self) -> np.ndarray:
        basis = _softmax(self.basis_logits, axis=1)      # (k, n)
        weights = _softmax(self.weight_logits, axis=2)   # (n, m, k)
        return np.einsum("smk,kn->smn", weights, basis)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.basis_logits.ravel(), self.weight_logits.ravel()])

    def with_flat(self, vec) -> "RankLimitedModelParams":
        vec = np.asarray(vec, dtype=float)
        nb = self.basis_logits.size
        return RankLimitedModelParams(
            vec[:nb].reshape(self.basis_logits.shape),
            vec[nb:].reshape(self.weight_logits.shape),
        )


@dataclass(frozen=True)
class LossKind:
    """Which divergence drives the fit: kl, wasserstein, or vaml.

    For vaml, ``c`` is the Lipschitz radius of the value class; when left
    None it is resolved from the MDP's certified value bound at fit time.
    """

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind != "vaml" and self.c is not None:
            raise ValueError(f"{self.kind} takes no parameter")
        if self.c is not None and (not np.isfinite(self.c) or self.c < 0.0):
            raise ValueError(f"vaml radius must be finite and >= 0, got {self.c!r}")


KL_LOSS = LossKind("kl")
WASSERSTEIN_LOSS = LossKind("wasserstein")


def vaml_loss_kind(c: float | None = None) -> LossKind:
    return LossKind("vaml", c)


def parse_loss_kind(text: str) -> LossKind:
    name, sep, arg = text.partition(":")
    name = name.strip()
    if name in ("kl", "wasserstein"):
        if sep:
            raise ValueError(f"{name} takes no parameter, got {text!r}")
        return LossKind(name)
    if name == "vaml":
        return LossKind("vaml", float(arg) if sep else None)
    raise ValueError(f"unknown loss kind {text!r}")


def loss_kind_spec(kind: LossKind) -> str:
    if kind.kind == "vaml" and kind.c is not None:
        return f"vaml:{kind.c:g}"
    return kind.kind


def _resolve_c(mdp, kind) -> float | None:
    if kind.kind != "vaml":
        return None
    if kind.c is not None:
        return float(kind.c)
    return value_lipschitz_bound(mdp).c


def _pair_loss(mdp, kind, c, t_row, m_row) -> float:
    if kind.kind == "kl":
        try:
            return kl_divergence(Distribution(t_row), Distribution(m_row))
        except SupportViolationError:
            # A model row that underflowed to zero where the true row has
            # mass; the infinite loss makes the line search halve its step.
            return np.inf
    if kind.kind == "wasserstein":
        w, _ = wasserstein_primal(Distribution(t_row), Distribution(m_row), mdp.space)
        return w
    if c == 0.0:
        return 0.0
    value, _ = wasserstein_dual(Distribution(t_row), Distribution(m_row), mdp.space, c)
    return float(value * value)


def _mean_loss(mdp, kind, c, that) -> float:
    n, m = mdp.n_states, mdp.n_actions
    total = 0.0
    for s in range(n):
        for a in range(m):
            total += _pair_loss(mdp, kind, c, mdp.transition[s, a], that[s, a])
    return total / (n * m)


def aggregate_loss(mdp: FiniteMdp, model, kind: LossKind) -> float:
    """Mean over all (s, a) of the chosen divergence between true and model rows."""
    if hasattr(model, "transition_tensor"):
        that = model.transition_tensor()
    else:
        that = np.asarray(model, dtype=float)
    c = _resolve_c(mdp, kind)
    return _mean_loss(mdp, kind, c, that)


@dataclass(frozen=True)
class FitConfig:
    """Gradient-descent settings.

    The step applies to the per-cell summed loss, so the effective pace
    does not shrink as the state-action grid grows.  ``log_every``
    controls how often model snapshots are kept for post-hoc checks;
    ``model_rank`` switches to the shared-basis model class.
    """

    iters: int = 2000
    step_size: float = 0.1
    seed: int = 0
    fd_epsilon: float = 1e-5
    log_every: int = 100
    model_rank: int | None = None

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if not (self.step_size > 0.0):
            raise ValueError("step_size must be positive")
        if not (self.fd_epsilon > 0.0):
            raise ValueError("fd_epsilon must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


@dataclass(frozen=True, eq=False)
class TrainReport:
    kind: LossKind
    config: FitConfig
    loss_curve: np.ndarray
    final_model: object
    per_cell_losses: np.ndarray
    planning_gap: float
    snapshots: tuple
    iterations_run: int
    stopped_early: bool
    c_used: float | None

    def to_json_dict(self) -> dict:
        return {
            "kind": loss_kind_spec(self.kind),
            "c_used": self.c_used,
            "iterations_run": self.iterations_run,
            "stopped_early": self.stopped_early,
            "final_loss": float(self.loss_curve[-1]),
            "loss_curve": [float(v) for v in self.loss_curve],
            "per_cell_losses": [[float(v) for v in row] for row in self.per_cell_losses],
            "planning_gap": self.planning_gap,
            "snapshot_iterations": [int(it) for it, _ in self.snapshots],
        }

    def write_loss_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss"])
            for i, v in enumerate(self.loss_curve):
                writer.writerow([i, float(v)])


def _summed_loss(mdp, kind, c, model) -> float:
    that = model.transition_tensor()
    if not np.isfinite(that).all():
        # Non-finite logits give NaN rows, which no loss takes: a NaN loss
        # makes the fit report divergence or halve its step.
        return np.nan
    return _mean_loss(mdp, kind, c, that) * (mdp.n_states * mdp.n_actions)


def _kl_gradient_full(mdp, model) -> np.ndarray:
    # d/dz of sum over (s,a) of KL(T || softmax(z)) is softmax(z) - T.
    return model.transition_tensor() - mdp.transition


def _fd_gradient_full(mdp, kind, c, model, fd_eps) -> np.ndarray:
    # A logit only moves its own (s, a) row, so central differences of the
    # summed loss reduce to differences of single cells.
    logits = model.logits
    n, m, _ = logits.shape
    grad = np.zeros_like(logits)
    for s in range(n):
        for a in range(m):
            t_row = mdp.transition[s, a]
            for j in range(n):
                z = logits[s, a].copy()
                z[j] += fd_eps
                hi = _pair_loss(mdp, kind, c, t_row, _softmax(z))
                z[j] -= 2.0 * fd_eps
                lo = _pair_loss(mdp, kind, c, t_row, _softmax(z))
                grad[s, a, j] = (hi - lo) / (2.0 * fd_eps)
    return grad


def _fd_gradient_flat(mdp, kind, c, model, fd_eps) -> np.ndarray:
    vec = model.flat()
    grad = np.zeros_like(vec)
    for j in range(vec.size):
        bump = vec.copy()
        bump[j] += fd_eps
        hi = _summed_loss(mdp, kind, c, model.with_flat(bump))
        bump[j] -= 2.0 * fd_eps
        lo = _summed_loss(mdp, kind, c, model.with_flat(bump))
        grad[j] = (hi - lo) / (2.0 * fd_eps)
    return grad


def _gradient(mdp, kind, c, model, fd_eps) -> np.ndarray:
    if isinstance(model, ModelParams):
        if kind.kind == "kl":
            return _kl_gradient_full(mdp, model).ravel()
        return _fd_gradient_full(mdp, kind, c, model, fd_eps).ravel()
    return _fd_gradient_flat(mdp, kind, c, model, fd_eps)


def _planning_gap(mdp, that) -> float:
    model_mdp = FiniteMdp(mdp.space, mdp.reward, that, mdp.gamma)
    policy = greedy_policy(gvi(model_mdp, MAX).q)
    v_policy = evaluate_policy(mdp, policy).values
    v_star = gvi(mdp, MAX).v.values
    return float(np.abs(v_star - v_policy).max())


def fit_model(
    mdp: FiniteMdp,
    kind: LossKind,
    config: FitConfig = FitConfig(),
    init_model=None,
) -> TrainReport:
    """Gradient descent on model logits under the chosen loss.

    KL uses its analytic gradient; the LP-valued losses use central
    finite differences, which stay affordable because every LP involved
    is tiny.  Steps that fail to decrease the summed loss are halved
    (deterministically) before being taken, so the recorded loss curve is
    nonincreasing; when no decrease is possible the fit stops early.
    The planning gap compares the optimal values of the true MDP with the
    true-MDP values of the policy that is greedy for the learned model.
    """
    rng = np.random.default_rng(config.seed)
    n, m = mdp.n_states, mdp.n_actions
    if init_model is not None:
        model = init_model
    elif config.model_rank is None:
        model = ModelParams(rng.normal(0.0, _INIT_SCALE, size=(n, m, n)))
    else:
        k = int(config.model_rank)
        if not (1 <= k <= n):
            raise ValueError(f"model_rank must lie in [1, {n}], got {k}")
        model = RankLimitedModelParams(
            rng.normal(0.0, _INIT_SCALE, size=(k, n)),
            rng.normal(0.0, _INIT_SCALE, size=(n, m, k)),
        )
    c = _resolve_c(mdp, kind)
    cells = n * m

    loss = _summed_loss(mdp, kind, c, model)
    if not np.isfinite(loss):
        raise TrainingDivergedError(0)
    curve = [loss / cells]
    snapshots = [(0, model)]
    stopped_early = False
    iterations = 0
    for it in range(1, config.iters + 1):
        grad = _gradient(mdp, kind, c, model, config.fd_epsilon)
        if not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(it)
        vec = model.flat()
        step = config.step_size
        accepted = None
        for _ in range(40):
            candidate = model.with_flat(vec - step * grad)
            cand_loss = _summed_loss(mdp, kind, c, candidate)
            if np.isfinite(cand_loss) and cand_loss <= loss + 1e-12:
                accepted = (candidate, cand_loss)
                break
            step *= 0.5
        if accepted is None:
            stopped_early = True
            break
        model, loss = accepted
        iterations = it
        curve.append(loss / cells)
        if it % config.log_every == 0:
            snapshots.append((it, model))
    if snapshots[-1][0] != iterations:
        snapshots.append((iterations, model))

    that = model.transition_tensor()
    per_cell = np.array(
        [
            [_pair_loss(mdp, kind, c, mdp.transition[s, a], that[s, a]) for a in range(m)]
            for s in range(n)
        ]
    )
    return TrainReport(
        kind=kind,
        config=config,
        loss_curve=np.asarray(curve),
        final_model=model,
        per_cell_losses=per_cell,
        planning_gap=_planning_gap(mdp, that),
        snapshots=tuple(snapshots),
        iterations_run=iterations,
        stopped_early=stopped_early,
        c_used=c,
    )


@dataclass(frozen=True, eq=False)
class LossComparison:
    """Side-by-side fits under identical budgets; no winner is asserted."""

    rows: tuple
    cross_losses: dict
    value_bound: float
    gamma_kernel: float

    def to_json_dict(self) -> dict:
        metrics = sorted({k[1] for k in self.cross_losses})
        return {
            "context": {
                "value_bound": self.value_bound,
                "gamma_times_kernel_constant": self.gamma_kernel,
            },
            "rows": [
                {
                    "kind": loss_kind_spec(report.kind),
                    "final_loss": float(report.loss_curve[-1]),
                    "planning_gap": report.planning_gap,
                    "iterations_run": report.iterations_run,
                    "cross": {
                        metric: self.cross_losses[(loss_kind_spec(report.kind), metric)]
                        for metric in metrics
                    },
                }
                for report in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "final_loss", "planning_gap", "iterations_run"])
            for report in self.rows:
                writer.writerow(
                    [
                        loss_kind_spec(report.kind),
                        float(report.loss_curve[-1]),
                        report.planning_gap,
                        report.iterations_run,
                    ]
                )

    def write_cross_csv(self, path) -> None:
        metrics = sorted({k[1] for k in self.cross_losses})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model"] + metrics)
            for report in self.rows:
                name = loss_kind_spec(report.kind)
                writer.writerow([name] + [self.cross_losses[(name, met)] for met in metrics])


def compare_losses(mdp: FiniteMdp, kinds, config: FitConfig = FitConfig()) -> LossComparison:
    """Fit one model per loss kind under the same budget and cross-evaluate.

    Every fitted model is scored under every requested metric, alongside
    its planning gap and the MDP's smoothness context, leaving the
    reading of the table to the caller.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("need at least one loss kind to compare")
    # The value bound and gamma * K_W come first, so an MDP outside the
    # bound's precondition raises ContractionPreconditionError before any fit.
    bound = value_lipschitz_bound(mdp).c
    kw = mdp.measured_kernel_constant
    if kw is None:
        kw = kernel_lipschitz(mdp).constant
    reports = [fit_model(mdp, kind, config) for kind in kinds]
    cross = {}
    for report in reports:
        name = loss_kind_spec(report.kind)
        for kind in kinds:
            cross[(name, loss_kind_spec(kind))] = aggregate_loss(mdp, report.final_model, kind)
    return LossComparison(tuple(reports), cross, bound, mdp.gamma * kw)
