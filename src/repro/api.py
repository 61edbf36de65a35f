"""One-call facade over the solver zoo: ``repro.api.solve`` / ``solve_batch``.

Every example used to hand-wire the same four steps — resolve a robot with
:func:`~repro.kinematics.robots.named_robot`, build a
:class:`~repro.core.result.SolverConfig`, look the solver up in
``SOLVER_REGISTRY``, then call its ``solve``.  This module folds that
boilerplate into two functions::

    from repro import api

    result = api.solve("dadu-25dof", [0.3, 0.2, 0.4])
    batch = api.solve_batch("dadu-100dof", targets, solver="JT-Serial")

Both accept a robot *name* (``"dadu-25dof"``, ``"puma560"``,
``"snake-40dof"``, …) or an already-built
:class:`~repro.kinematics.chain.KinematicChain`, any solver name in
``SOLVER_REGISTRY`` / ``BATCH_REGISTRY``, per-solver options as plain
keywords (validated — a typo names the solver and lists what it accepts),
and an optional telemetry tracer (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import numpy as np

from repro.core.result import BatchResult, IKResult, SolverConfig
from repro.execution import ExecutionOptions
from repro.kinematics.chain import KinematicChain
from repro.kinematics.robots import named_robot
from repro.solvers.registry import make_batch_solver, make_solver
from repro.telemetry.tracer import Tracer

__all__ = ["solve", "solve_batch", "serve", "resolve_robot"]

#: Default solver: the paper's contribution.
DEFAULT_SOLVER = "JT-Speculation"


def resolve_robot(robot: str | KinematicChain) -> KinematicChain:
    """Accept a robot name (``repro robots`` lists them) or a chain."""
    if isinstance(robot, KinematicChain):
        return robot
    if isinstance(robot, str):
        return named_robot(robot)
    raise TypeError(
        f"robot must be a name or a KinematicChain, got {type(robot).__name__}"
    )


def _resolve_config(
    config: SolverConfig | None,
    tolerance: float | None,
    max_iterations: int | None,
) -> SolverConfig | None:
    if config is not None:
        if tolerance is not None or max_iterations is not None:
            raise ValueError(
                "pass either config or tolerance/max_iterations, not both"
            )
        return config
    if tolerance is None and max_iterations is None:
        return None
    defaults = SolverConfig()
    return SolverConfig(
        tolerance=tolerance if tolerance is not None else defaults.tolerance,
        max_iterations=(
            max_iterations
            if max_iterations is not None
            else defaults.max_iterations
        ),
    )


def _resolve_rng(
    rng: np.random.Generator | None, seed: int | None
) -> np.random.Generator | None:
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if seed is not None:
        return np.random.default_rng(seed)
    return rng


def solve(
    robot: str | KinematicChain,
    target,
    solver: str = DEFAULT_SOLVER,
    *,
    q0=None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    config: SolverConfig | None = None,
    tolerance: float | None = None,
    max_iterations: int | None = None,
    restarts: int = 1,
    tracer: Tracer | None = None,
    options: ExecutionOptions | None = None,
    **solver_options,
) -> IKResult:
    """Solve one IK target.

    Parameters
    ----------
    robot:
        Robot name (see ``repro robots``) or a :class:`KinematicChain`.
    target:
        Target end-effector position (3-vector).
    solver:
        Any ``SOLVER_REGISTRY`` name (default: the paper's Quick-IK).
    q0:
        Optional starting configuration; random when omitted.
    rng / seed:
        Randomness for the initial configuration (mutually exclusive).
    config / tolerance / max_iterations:
        Convergence policy: a full :class:`SolverConfig`, or the common
        fields directly (mutually exclusive with ``config``).
    options:
        Typed execution policy (:class:`~repro.execution.ExecutionOptions`).
        ``options.kernel`` selects the FK/Jacobian kernel (``"scalar"`` —
        the default oracle — or ``"vectorized"``, optionally with a dtype
        as ``"vectorized:float32"``; see ``docs/performance.md``).
        ``options.resilience`` opts into the resilient pipeline: a
        :class:`~repro.resilience.ResilienceConfig` (or ``True`` for the
        stock policy) wraps the solver in a
        :class:`~repro.resilience.ResilientSolver` — input guards, optional
        watchdogs, and the registry fallback chain, every fallback running
        on the same kernel.  The call then never raises for bad targets or
        failing attempts; the returned result's ``status`` tells the
        story.  Mutually exclusive with ``restarts``.  ``workers`` /
        ``timeout`` / ``on_error`` route the target through
        :func:`solve_batch`.
    restarts:
        When > 1, wrap the solver in a
        :class:`~repro.solvers.restarts.RandomRestartSolver` with this
        attempt budget.
    tracer:
        Telemetry sink (see :mod:`repro.telemetry`); defaults to the
        process-global tracer.
    solver_options:
        Per-solver options (e.g. ``speculations=64`` for Quick-IK); unknown
        ones raise ``TypeError`` naming the solver's accepted options.
    """
    chain = resolve_robot(robot)
    opts = ExecutionOptions.coerce(options)
    if opts.workers is not None or opts.on_error != "raise" or opts.timeout is not None:
        # Sharding / failure-policy fields only make sense through the batch
        # machinery: route the single target through solve_batch and unwrap.
        if restarts > 1:
            raise ValueError(
                "restarts does not combine with workers/on_error/timeout"
            )
        batch = solve_batch(
            chain, np.atleast_2d(np.asarray(target, dtype=float)), solver,
            q0=q0, rng=rng, seed=seed, config=config, tolerance=tolerance,
            max_iterations=max_iterations, tracer=tracer, options=opts,
            **solver_options,
        )
        return batch[0]
    if opts.kernel is not None:
        chain = opts.kernel.apply(chain)
    ik = make_solver(
        solver, chain,
        config=_resolve_config(config, tolerance, max_iterations),
        **solver_options,
    )
    res_cfg = opts.resolved_resilience()
    if res_cfg is not None:
        if restarts > 1:
            raise ValueError("pass either restarts or resilience, not both")
        from repro.resilience import ResilientSolver

        ik = ResilientSolver(
            chain, primary=ik, config=ik.config, resilience=res_cfg
        )
    elif restarts > 1:
        from repro.solvers.restarts import RandomRestartSolver

        ik = RandomRestartSolver(ik, max_restarts=restarts)
    return ik.solve(target, q0=q0, rng=_resolve_rng(rng, seed), tracer=tracer)


def solve_batch(
    robot: str | KinematicChain,
    targets,
    solver: str = DEFAULT_SOLVER,
    *,
    q0=None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    config: SolverConfig | None = None,
    tolerance: float | None = None,
    max_iterations: int | None = None,
    tracer: Tracer | None = None,
    options: ExecutionOptions | None = None,
    **solver_options,
) -> BatchResult:
    """Solve a batch of IK targets; returns a :class:`BatchResult`.

    Accepts the same arguments as :func:`solve` (minus ``restarts``).
    Solvers with a lock-step engine in ``BATCH_REGISTRY`` (Quick-IK,
    JT-Serial, JT-DLS, J-1-SVD, JT-SDLS, fdik, mdik) advance all
    unconverged problems simultaneously, with one prefix-frame pass per
    iteration; each result equals :func:`solve` of its target from the same
    start bit for bit, on either dtype.  CCD, J-1-SVD+nullspace,
    JT-Hybrid, and any ``config`` carrying a ``watchdog``, solve per target
    through the shared driver.

    ``options`` is the typed execution policy
    (:class:`~repro.execution.ExecutionOptions`) bundling the kernel spec
    (mode / dtype / chunk), sharding and failure policy; the kernel spec is
    applied to the chain once per call.

    ``options.workers`` shards the batch across that many subprocesses
    (:mod:`repro.parallel`); results are bit-identical for any worker count
    under the same seed, on either kernel, and identical to the unsharded
    default (a lock-step row never depends on the batch it rides in).
    ``options.timeout`` bounds one pooled batch in seconds — on expiry, every
    unfinished shard is reported in a
    :class:`~repro.parallel.ParallelExecutionError`.

    ``options.on_error`` selects the failure policy: ``"raise"`` (default,
    historical behaviour), ``"skip"`` (rejected / failed problems become
    placeholder results, ``batch.failures`` carries a
    :class:`~repro.resilience.FailureReport`), or ``"fallback"`` (failed
    problems are additionally retried solo through the
    ``resilience.fallback_chain``).  ``options.resilience`` tunes the
    fallback chain, watchdog and guard margin; either option routes the batch
    through the sharded path (``workers=1`` inline when unset).
    """
    engine = make_batch_solver(
        solver, resolve_robot(robot),
        config=_resolve_config(config, tolerance, max_iterations),
        options=options,
        **solver_options,
    )
    return engine.solve_batch(
        targets, q0=q0, rng=_resolve_rng(rng, seed), tracer=tracer
    )


def serve(config=None, *, tracer=None, start=True, **overrides):
    """Build (and by default start) an in-process IK request server.

    The online counterpart of :func:`solve_batch`: individual
    :class:`~repro.serving.SolveRequest` submissions are coalesced into
    the same vectorized lock-step batches the offline path runs, under
    the server's ``ServerConfig.options`` (kernel, sharding, failure
    policy; see ``docs/serving.md``).  Batching is continuous: a queued
    request starts the moment a dispatch loop is free, and a request for
    a lock-step solver joins its key's live run at the next iteration.
    Serving defaults lean online: the IKSel-style warm-start seed cache
    and SLO shedding are **on** (pass ``warm_start=False`` for
    bit-equivalence with offline solves), and ``dispatch_workers=N`` runs
    N concurrent dispatch loops so an in-flight batch does not block
    starting the next.

    Pass a full :class:`~repro.serving.ServerConfig` or its fields as
    keywords (mutually exclusive)::

        with api.serve(max_batch_size=64, dispatch_workers=2) as srv:
            future = srv.submit(SolveRequest("dadu-50dof", target, seed=0))

    ``start=False`` returns the server without launching its dispatch
    loops (they auto-start on the first submission anyway).
    """
    from repro.serving import IKServer, ServerConfig

    if config is not None and overrides:
        raise ValueError("pass either config or ServerConfig fields, not both")
    if config is None:
        config = ServerConfig(**overrides)
    server = IKServer(config, tracer=tracer)
    return server.start() if start else server
