"""The paper's primary contribution: Quick-IK and its step-size machinery."""

from repro.core.alpha import (
    FALLBACK_ALPHA,
    SCHEDULE_NAMES,
    buss_alpha,
    get_schedule,
)
from repro.core.base import IterativeIKSolver, RowUpdateSolver
from repro.core.hybrid import HybridSpeculativeSolver
from repro.core.multistart import SpeculativeRestartSolver, best_seed
from repro.core.quick_ik import DEFAULT_SPECULATIONS, QuickIKSolver
from repro.core.result import IKResult, SolverConfig, StepOutcome

__all__ = [
    "FALLBACK_ALPHA",
    "SCHEDULE_NAMES",
    "buss_alpha",
    "get_schedule",
    "IterativeIKSolver",
    "RowUpdateSolver",
    "DEFAULT_SPECULATIONS",
    "QuickIKSolver",
    "HybridSpeculativeSolver",
    "SpeculativeRestartSolver",
    "best_seed",
    "IKResult",
    "SolverConfig",
    "StepOutcome",
]
