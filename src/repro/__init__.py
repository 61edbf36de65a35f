"""repro — reproduction of "Dadu: Accelerating Inverse Kinematics for
High-DOF Robots" (Lian et al., DAC 2017).

The package provides:

* a kinematics substrate (:mod:`repro.kinematics`);
* the Quick-IK algorithm (:mod:`repro.core`) and the baseline solvers the
  paper compares against (:mod:`repro.solvers`);
* a cycle-level simulator of the IKAcc accelerator (:mod:`repro.ikacc`);
* platform cost/energy models for Atom, TX1 and IKAcc
  (:mod:`repro.platforms`);
* workload generators and the paper's evaluation harness
  (:mod:`repro.workloads`, :mod:`repro.evaluation`).

Quickstart::

    from repro import api

    result = api.solve("dadu-100dof", [0.4, 0.2, 0.6], seed=0)
    print(result.summary())

(:func:`repro.api.solve` / :func:`repro.api.solve_batch` wrap the robot zoo,
the solver registries and the convergence config in one call; the classes
below remain available for hand-wiring.)
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro": ("api", "telemetry"),
    "repro.api": ("serve", "solve", "solve_batch"),
    "repro.core": ("IKResult", "QuickIKSolver", "SolverConfig"),
    "repro.core.result": ("BatchResult",),
    "repro.execution": ("ExecutionOptions", "KernelSpec"),
    "repro.kinematics": (
        "PAPER_DOFS",
        "KinematicChain",
        "Joint",
        "JointLimits",
        "hyper_redundant_chain",
        "named_robot",
        "paper_chain",
        "planar_chain",
        "puma560",
        "random_chain",
        "seven_dof_arm",
        "stanford_arm",
    ),
    "repro.solvers": (
        "CyclicCoordinateDescentSolver",
        "DampedLeastSquaresSolver",
        "JacobianTransposeSolver",
        "NullSpaceSolver",
        "PoseQuickIKSolver",
        "PseudoinverseSolver",
        "RandomRestartSolver",
        "SelectivelyDampedSolver",
        "make_solver",
        "make_batch_solver",
    ),
    "repro.control": ("TrajectoryFollower",),
})
__all__.append("__version__")
