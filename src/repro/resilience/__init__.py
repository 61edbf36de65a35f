"""Resilient solve pipeline: guards, watchdogs, fallback chains, faults.

The supervision layer around the solver zoo and the process pool
(ROADMAP: production-scale service).  Four pieces:

* **Input guards** (:mod:`repro.resilience.guards`) — classify targets at
  the API boundary (non-finite / wrong shape / beyond the workspace bound)
  into structured :class:`FailureRecord` s instead of exploding deep inside
  a worker.
* **Watchdogs** (:mod:`repro.resilience.watchdogs`) — per-solve wall-clock
  deadline, divergence and stall detectors hooked into the shared iterative
  driver via ``SolverConfig.watchdog``; trips become typed
  ``IKResult.status`` values and telemetry counters.
* **Fallback chains** (:mod:`repro.resilience.resilient`) —
  :class:`ResilientSolver` degrades ``JT-Speculation -> JT-DLS -> J-1-SVD``
  (configurable via the registry) with per-attempt reseeding; exposed as
  ``api.solve(..., resilience=...)`` and the batch ``on_error="fallback"``
  mode, where a poisoned problem degrades alone instead of failing its
  shard.
* **Fault injection** (:mod:`repro.resilience.faults`) — deterministic NaN
  Jacobians, exploding/stalled/sleepy steps, and crash / hang / SIGKILL /
  unpicklable worker faults driving the ``pytest -m chaos`` tier.

Usage::

    from repro import api
    from repro.resilience import ResilienceConfig, WatchdogConfig

    batch = api.solve_batch(
        "dadu-50dof", targets, workers=4, seed=7,
        on_error="fallback",
        resilience=ResilienceConfig(
            watchdog=WatchdogConfig(divergence_window=25),
        ),
    )
    print(batch.failures.summary())

See ``docs/robustness.md`` for the failure taxonomy and knobs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.faults": (
        "FAULT_KINDS",
        "DivergingSolver",
        "FlakySolver",
        "NaNJacobianChain",
        "SleepyStepSolver",
        "StallingSolver",
        "TargetTrigger",
        "poison_indices",
    ),
    "repro.resilience.guards": (
        "FATAL_GUARD_KINDS",
        "GuardViolation",
        "guard_target",
        "guard_targets",
        "reach_bound",
        "rejected_result",
    ),
    "repro.resilience.report": (
        "STAGE_GUARD",
        "STAGE_SOLVER",
        "STAGE_WATCHDOG",
        "STAGE_WORKER",
        "FailureRecord",
        "FailureReport",
    ),
    "repro.resilience.resilient": (
        "DEFAULT_FALLBACK_CHAIN",
        "ResilienceConfig",
        "ResilientSolver",
    ),
    "repro.resilience.watchdogs": (
        "WATCHDOG_STATUSES",
        "Watchdog",
        "WatchdogConfig",
    ),
})
