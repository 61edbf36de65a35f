"""The paper's primary contribution: Quick-IK and its step-size machinery."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.alpha": (
        "FALLBACK_ALPHA",
        "SCHEDULE_NAMES",
        "buss_alpha",
        "get_schedule",
    ),
    "repro.core.base": ("IterativeIKSolver", "RowUpdateSolver"),
    "repro.core.quick_ik": ("DEFAULT_SPECULATIONS", "QuickIKSolver"),
    "repro.core.hybrid": ("HybridSpeculativeSolver",),
    "repro.core.multistart": ("SpeculativeRestartSolver", "best_seed"),
    "repro.core.result": ("IKResult", "SolverConfig", "StepOutcome"),
})
