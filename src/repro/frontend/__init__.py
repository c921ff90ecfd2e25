"""Front-end branch prediction stack (paper Section IV).

Public entry point: :class:`~repro.frontend.predictor.BranchUnit`, the
per-generation composition; individual mechanisms are importable for
study/ablation (SHP, uBTB, VPC, BTB hierarchy, MRB, accelerators).
"""

from .accel import RedirectAccelerator  # noqa: F401
from .baselines import (  # noqa: F401
    BimodalPredictor,
    GsharePredictor,
    ShpDirectionAdapter,
    measure_conditional_mpki,
)
from .btb import BTBEntry, BTBHierarchy  # noqa: F401
from .confidence import ConfidenceEstimator  # noqa: F401
from .history import (  # noqa: F401
    GlobalHistory,
    IndirectTargetHistory,
    PathHistory,
    fold_bits,
    geometric_intervals,
    pc_hash,
)
from .lhp import LocalHashedPerceptron  # noqa: F401
from .mrb import MispredictRecoveryBuffer  # noqa: F401
from .predictor import BranchStats, BranchUnit  # noqa: F401
from .ras import ReturnAddressStack  # noqa: F401
from .shp import ScaledHashedPerceptron  # noqa: F401
from .storage import (  # noqa: F401
    PAPER_TABLE2,
    StorageBudget,
    generation_budget,
    storage_budget,
)
from .ubtb import MicroBTB, UBTBNode  # noqa: F401
from .vpc import IndirectPrediction, VPCPredictor  # noqa: F401
