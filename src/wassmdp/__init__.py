"""Exact Wasserstein-1 transport, Lipschitz value analysis, and
value-aware model learning on finite metric MDPs."""

from .learner import (
    FitConfig,
    KL_LOSS,
    LossComparison,
    LossKind,
    ModelParams,
    RankLimitedModelParams,
    TrainReport,
    TrainingDivergedError,
    WASSERSTEIN_LOSS,
    aggregate_loss,
    compare_losses,
    fit_model,
    parse_loss_kind,
    vaml_loss_kind,
)
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, SingularBasisError, solve_lp
from .mdp import (
    FiniteMdp,
    KernelLipschitzReport,
    MdpFormatError,
    generate_lipschitz_mdp,
    kernel_lipschitz,
    load_mdp,
    reward_lipschitz,
    save_mdp,
)
from .metric import (
    LipschitzReport,
    MetricError,
    MetricSpace,
    ScalarField,
    lipschitz_constant,
    space_from_json,
    uniform_lipschitz_constant,
)
from .planner import (
    BackupOperator,
    GviConvergenceError,
    GviResult,
    MAX,
    MEAN,
    QFunction,
    apply_operator,
    eps_greedy,
    evaluate_policy,
    greedy_policy,
    gvi,
    mellowmax,
    parse_operator,
)
from .transport import (
    Coupling,
    Distribution,
    DualPotential,
    SinkhornConvergenceError,
    SupportViolationError,
    kl_divergence,
    sinkhorn,
    wasserstein_dual,
    wasserstein_primal,
)
from .vaml import (
    ContractionPreconditionError,
    EquivalenceReport,
    HolderPinskerBounds,
    ValueClassBound,
    ValueLipschitzCheck,
    holder_pinsker_bounds,
    pointwise_model_error,
    value_lipschitz_bound,
    vaml_loss,
    verify_equivalence,
    verify_value_lipschitz,
)

__version__ = "0.1.0"
