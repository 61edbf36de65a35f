"""Baseline IK solvers the paper compares against, plus extensions.

The Quick-IK solver itself lives in :mod:`repro.core.quick_ik`; it is
re-exported here so ``repro.solvers`` is the one-stop module for every solver.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.base": ("IterativeIKSolver", "RowUpdateSolver"),
    "repro.core.quick_ik": ("QuickIKSolver",),
    "repro.core.hybrid": ("HybridSpeculativeSolver",),
    "repro.solvers.analytic": ("PlanarTwoLinkSolver", "planar_two_link_ik"),
    "repro.core.result": ("BatchResult",),
    "repro.solvers.batched": (
        "BatchedQuickIK",
        "BatchedRowSolver",
        "LockStepEngine",
    ),
    "repro.solvers.ccd": ("CyclicCoordinateDescentSolver",),
    "repro.solvers.dls": ("DampedLeastSquaresSolver",),
    "repro.solvers.fdik": ("ForwardDynamicsSolver",),
    "repro.solvers.jacobian_transpose": ("JacobianTransposeSolver",),
    "repro.solvers.mdik": ("MirrorDescentSolver",),
    "repro.solvers.nullspace": ("NullSpaceSolver", "limit_centering_gradient"),
    "repro.solvers.pose_ik": ("PoseQuickIKSolver",),
    "repro.solvers.pseudoinverse": ("PseudoinverseSolver", "damped_pinv"),
    "repro.solvers.restarts": ("RandomRestartSolver",),
    "repro.solvers.sdls": ("SelectivelyDampedSolver",),
    "repro.solvers.registry": (
        "SOLVER_REGISTRY",
        "BATCH_REGISTRY",
        "make_solver",
        "make_batch_solver",
        "solver_options",
        "describe_solver_options",
    ),
})
