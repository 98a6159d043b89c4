"""Model fitting against exact transition tensors.

Fits a softmax-parameterized transition model to a true MDP by gradient
descent on a KL, Wasserstein, or value-aware objective, then measures
how much planning with the learned model costs in the true MDP.  The
LP-valued losses have no convenient gradients, so those are driven by
central finite differences; the fit is deterministic in the seed.
Every loss it reports, trains on or aggregates comes from one array of
cell losses; a VAML cell's is ``vaml.cell_loss``.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .mdp import FiniteMdp
from .planner import MAX, evaluate_policy, greedy_policy, gvi
from .transport import Distribution, SupportViolationError, kl_divergence, wasserstein_primal
from .vaml import cell_loss, value_lipschitz_bound

_LOSS_KINDS = ("kl", "wasserstein", "vaml")

# Standard deviation of the initial logits drawn from the fit's seed.
_INIT_SCALE = 0.01
# Step of the central finite differences.
_FD_EPSILON = 1e-5


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""

    def __init__(self, iteration):
        self.iteration = int(iteration)
        super().__init__(f"loss became non-finite at iteration {iteration}")


def _softmax(z, axis=-1):
    # A logit gap past the largest float gives exp(-inf) = 0; an infinite logit a NaN row no loss takes.
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(z - z.max(axis=axis, keepdims=True))
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
    """Parse the CLI/config form: "kl", "wasserstein", "vaml", "vaml:2.5";
    LossKind checks the kind and its parameter."""
    name, sep, arg = text.partition(":")
    return LossKind(name.strip(), float(arg) if sep else None)


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


def _pair_loss(mdp, kind, c, s, a, m_dist) -> float:
    t_dist = mdp.transition_dist(s, a)
    if kind.kind == "kl":
        try:
            return kl_divergence(t_dist, m_dist)
        except SupportViolationError:
            # A model row that underflowed to zero where the true row has
            # mass; the infinite loss makes the line search halve its step.
            return np.inf
    if kind.kind == "wasserstein":
        w, _ = wasserstein_primal(t_dist, m_dist, mdp.space)
        return w
    return cell_loss(t_dist, m_dist, mdp.space, c)[0]


def _cell_losses(mdp, kind, c, model) -> np.ndarray:
    """The loss of every (s, a) cell of the model kernel ``model``, indexed [s, a]."""
    n, m = mdp.n_states, mdp.n_actions
    return np.array(
        [[_pair_loss(mdp, kind, c, s, a, model.transition_dist(s, a)) for a in range(m)] for s in range(n)]
    )


def _mean(cells) -> float:
    # One addition at a time in row order fixes the reported bits; np.sum adds pairwise.
    total = 0.0
    for v in cells.ravel().tolist():
        total += v
    return total / cells.size


def aggregate_loss(mdp: FiniteMdp, model, kind: LossKind) -> float:
    """Mean over all (s, a) of the chosen divergence between true and model rows;
    ``model`` is a fitted model or an (n, m, n) tensor."""
    that = model.transition_tensor() if hasattr(model, "transition_tensor") else model
    return _mean(_cell_losses(mdp, kind, _resolve_c(mdp, kind), replace(mdp, transition=that)))


@dataclass(frozen=True)
class FitConfig:
    """Gradient-descent settings.

    The step applies to the per-cell summed loss, so the effective pace
    does not shrink as the state-action grid grows.  ``log_every``
    controls how often model snapshots are kept for post-hoc checks;
    ``model_rank`` switches to the shared-basis model class.  ``iters``,
    ``seed``, ``log_every`` and ``model_rank`` (or None) are integers and
    ``step_size`` is a number, none of them a bool.
    """

    iters: int = 2000
    step_size: float = 0.1
    seed: int = 0
    log_every: int = 100
    model_rank: int | None = None

    def __post_init__(self):
        for name in ("iters", "seed", "log_every", "model_rank"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral or (name == "model_rank" and value is None)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if isinstance(self.step_size, (bool, np.bool_)):
            raise ValueError(f"step_size must be a number, not a bool, got {self.step_size!r}")
        if not (0.0 < self.step_size < np.inf):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size!r}")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


def check_fit_settings(mdp: FiniteMdp, config: FitConfig) -> None:
    """Raise ValueError, naming the setting, on a ``model_rank`` outside [1, n]
    for the MDP's n states; FitConfig checks the settings that need no MDP."""
    k = config.model_rank
    if k is not None and not (1 <= k <= mdp.n_states):
        raise ValueError(f"model_rank: must lie in [1, {mdp.n_states}], got {k}")


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
    cells = _cell_losses(mdp, kind, c, replace(mdp, transition=that))
    return _mean(cells) * cells.size  # not the bare total: the line search's bits depend on it


def _kl_gradient_full(mdp, model) -> np.ndarray:
    # d/dz of sum over (s,a) of KL(T || softmax(z)) is softmax(z) - T.
    return model.transition_tensor() - mdp.transition


def _fd_gradient_full(mdp, kind, c, model) -> np.ndarray:
    # A logit only moves its own (s, a) row, so central differences of the
    # summed loss reduce to differences of single cells.
    logits = model.logits
    n, m, _ = logits.shape
    grad = np.zeros_like(logits)
    for s in range(n):
        for a in range(m):
            for j in range(n):
                z = logits[s, a].copy()
                z[j] += _FD_EPSILON
                hi = _pair_loss(mdp, kind, c, s, a, Distribution(_softmax(z)))
                z[j] -= 2.0 * _FD_EPSILON
                lo = _pair_loss(mdp, kind, c, s, a, Distribution(_softmax(z)))
                grad[s, a, j] = (hi - lo) / (2.0 * _FD_EPSILON)
    return grad


def _fd_gradient_flat(mdp, kind, c, model) -> np.ndarray:
    vec = model.flat()
    grad = np.zeros_like(vec)
    for j in range(vec.size):
        bump = vec.copy()
        bump[j] += _FD_EPSILON
        hi = _summed_loss(mdp, kind, c, model.with_flat(bump))
        bump[j] -= 2.0 * _FD_EPSILON
        lo = _summed_loss(mdp, kind, c, model.with_flat(bump))
        grad[j] = (hi - lo) / (2.0 * _FD_EPSILON)
    return grad


def _gradient(mdp, kind, c, model) -> np.ndarray:
    if isinstance(model, ModelParams):
        if kind.kind == "kl":
            return _kl_gradient_full(mdp, model).ravel()
        return _fd_gradient_full(mdp, kind, c, model).ravel()
    return _fd_gradient_flat(mdp, kind, c, model)


def _planning_gap(mdp, model) -> float:
    policy = greedy_policy(gvi(model, MAX).q)
    v_policy = evaluate_policy(mdp, policy).values
    v_star = gvi(mdp, MAX).v.values
    return float(np.abs(v_star - v_policy).max())


def fit_model(
    mdp: FiniteMdp,
    kind: LossKind,
    config: FitConfig = FitConfig(),
) -> TrainReport:
    """Gradient descent on model logits drawn from ``config.seed``, under the chosen loss.

    KL uses its analytic gradient; the LP-valued losses use central
    finite differences, which stay affordable because every LP involved
    is tiny.  Steps that fail to decrease the summed loss are halved
    (deterministically) before being taken, so the recorded loss curve is
    nonincreasing; when no decrease is possible the fit stops early.
    The planning gap compares the optimal values of the true MDP with the
    true-MDP values of the policy that is greedy for the learned model.
    A non-finite starting loss raises ``TrainingDivergedError`` at iteration 0.
    """
    check_fit_settings(mdp, config)
    rng = np.random.default_rng(config.seed)
    n, m = mdp.n_states, mdp.n_actions
    if config.model_rank is None:
        model = ModelParams(rng.normal(0.0, _INIT_SCALE, size=(n, m, n)))
    else:
        k = int(config.model_rank)
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
        grad = _gradient(mdp, kind, c, model)
        if not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(it)
        vec = model.flat()
        step = config.step_size
        accepted = None
        for _ in range(40):
            with np.errstate(over="ignore"):  # infinite logits give a NaN loss, which halves the step
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

    kernel = replace(mdp, transition=model.transition_tensor())
    return TrainReport(
        kind=kind,
        config=config,
        loss_curve=np.asarray(curve),
        final_model=model,
        per_cell_losses=_cell_losses(mdp, kind, c, kernel),
        planning_gap=_planning_gap(mdp, kernel),
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
    check_fit_settings(mdp, config)
    kinds = list(kinds)
    if not kinds:
        raise ValueError("need at least one loss kind to compare")
    # The value bound comes first, so ContractionPreconditionError comes before any fit.
    bound = value_lipschitz_bound(mdp).c
    reports = [fit_model(mdp, kind, config) for kind in kinds]
    cross = {}
    for report in reports:
        name = loss_kind_spec(report.kind)
        for kind in kinds:
            cross[(name, loss_kind_spec(kind))] = aggregate_loss(mdp, report.final_model, kind)
    return LossComparison(tuple(reports), cross, bound, mdp.gamma * mdp.measured_kernel_constant)
