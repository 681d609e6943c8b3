"""Sparse linear one-vs-all extreme multi-label classification.

Training is a truncated conjugate-gradient Newton solve per label over a
shared read-only design matrix, with margin losses whose vanishing tails
make the Hessian-vector products touch only the instances that still have
nonzero loss. Four initialization strategies (zero, scaled bias, a shared
all-negative solve, and an average-of-positives start) are provided along
with the instrumentation to compare them.
"""

from .dataio import (
    Dataset,
    LabelStats,
    augment_bias,
    compute_label_stats,
    generate_synthetic,
    load_xmc_dataset,
    split_dataset,
    write_xmc_dataset,
)
from .initializers import AopPrecompute, InitStrategy, aop_init, bias_init, zero_init
from .losses import ActiveSet, MarginLoss, active_set, ddphi, dphi, phi
from .metrics import EvalResult, evaluate, macro_binary_pr, precision_at_k
from .solver import (
    BinaryProblem,
    SolverConfig,
    SolverTrace,
    cg_solve,
    gradient,
    hessian_vec,
    newton_cg,
    objective,
)
from .sparse import DenseVector, SparseMatrix, SparseVector
from .trainer import (
    OvaModel,
    TrainConfig,
    TrainReport,
    load_model,
    predict_topk,
    save_model,
    train_ova,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "AopPrecompute",
    "BinaryProblem",
    "Dataset",
    "DenseVector",
    "EvalResult",
    "InitStrategy",
    "LabelStats",
    "MarginLoss",
    "OvaModel",
    "SolverConfig",
    "SolverTrace",
    "SparseMatrix",
    "SparseVector",
    "TrainConfig",
    "TrainReport",
    "active_set",
    "aop_init",
    "augment_bias",
    "bias_init",
    "cg_solve",
    "compute_label_stats",
    "ddphi",
    "dphi",
    "evaluate",
    "generate_synthetic",
    "gradient",
    "hessian_vec",
    "load_model",
    "load_xmc_dataset",
    "macro_binary_pr",
    "newton_cg",
    "objective",
    "phi",
    "precision_at_k",
    "predict_topk",
    "save_model",
    "split_dataset",
    "train_ova",
    "write_xmc_dataset",
    "zero_init",
]
