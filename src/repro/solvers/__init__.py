"""Baseline IK solvers the paper compares against, plus extensions.

The Quick-IK solver itself lives in :mod:`repro.core.quick_ik`; it is
re-exported here so ``repro.solvers`` is the one-stop module for every solver.
"""

from repro.core.base import IterativeIKSolver, RowUpdateSolver
from repro.core.hybrid import HybridSpeculativeSolver
from repro.core.quick_ik import QuickIKSolver
from repro.core.result import BatchResult
from repro.solvers.analytic import PlanarTwoLinkSolver, planar_two_link_ik
from repro.solvers.batched import (
    BatchedQuickIK,
    BatchedRowSolver,
    LockStepEngine,
)
from repro.solvers.ccd import CyclicCoordinateDescentSolver
from repro.solvers.dls import DampedLeastSquaresSolver
from repro.solvers.fdik import ForwardDynamicsSolver
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.mdik import MirrorDescentSolver
from repro.solvers.nullspace import NullSpaceSolver, limit_centering_gradient
from repro.solvers.pose_ik import PoseQuickIKSolver
from repro.solvers.pseudoinverse import PseudoinverseSolver, damped_pinv
from repro.solvers.registry import (
    BATCH_REGISTRY,
    SOLVER_REGISTRY,
    describe_solver_options,
    make_batch_solver,
    make_solver,
    solver_options,
)
from repro.solvers.restarts import RandomRestartSolver
from repro.solvers.sdls import SelectivelyDampedSolver

__all__ = [
    "IterativeIKSolver",
    "RowUpdateSolver",
    "QuickIKSolver",
    "HybridSpeculativeSolver",
    "PlanarTwoLinkSolver",
    "planar_two_link_ik",
    "BatchResult",
    "BatchedQuickIK",
    "BatchedRowSolver",
    "LockStepEngine",
    "CyclicCoordinateDescentSolver",
    "DampedLeastSquaresSolver",
    "ForwardDynamicsSolver",
    "JacobianTransposeSolver",
    "MirrorDescentSolver",
    "NullSpaceSolver",
    "limit_centering_gradient",
    "PoseQuickIKSolver",
    "PseudoinverseSolver",
    "damped_pinv",
    "RandomRestartSolver",
    "SelectivelyDampedSolver",
    "SOLVER_REGISTRY",
    "BATCH_REGISTRY",
    "make_solver",
    "make_batch_solver",
    "solver_options",
    "describe_solver_options",
]
