"""Solver registries and validated factories.

Two registries, parallel by name:

* :data:`SOLVER_REGISTRY` — scalar solvers keyed by the paper's Table 1
  names (plus extensions); built by :func:`make_solver`.
* :data:`BATCH_REGISTRY` — the names that solve lock-step, keyed to their
  engine: Quick-IK's :class:`~repro.solvers.batched.BatchedQuickIK`, and
  :class:`~repro.solvers.batched.BatchedRowSolver` for every solver whose
  iteration is a row update (:class:`~repro.core.base.RowUpdateSolver`).
  :func:`make_batch_solver` builds them, and falls back to the scalar
  solver's per-target loop for the other names (so every
  ``SOLVER_REGISTRY`` name is also a valid batch name).

Both factories validate their keyword arguments against the target
constructor's signature and reject unknown ones with an error naming the
solver and listing what it accepts — previously a typo like
``speculation=64`` surfaced as a bare ``TypeError`` from ``__init__``.
:func:`describe_solver_options` renders the same information as help text
for ``repro solve --help`` / ``repro robots``.
"""

from __future__ import annotations

import inspect
from typing import Any

from repro.core.base import RowUpdateSolver
from repro.core.hybrid import HybridSpeculativeSolver
from repro.core.quick_ik import QuickIKSolver
from repro.execution import ExecutionOptions
from repro.solvers.batched import BatchedQuickIK, BatchedRowSolver
from repro.solvers.ccd import CyclicCoordinateDescentSolver
from repro.solvers.dls import DampedLeastSquaresSolver
from repro.solvers.fdik import ForwardDynamicsSolver
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.mdik import MirrorDescentSolver
from repro.solvers.nullspace import NullSpaceSolver
from repro.solvers.pseudoinverse import PseudoinverseSolver
from repro.solvers.sdls import SelectivelyDampedSolver

__all__ = [
    "SOLVER_REGISTRY",
    "BATCH_REGISTRY",
    "make_solver",
    "make_batch_solver",
    "solver_options",
    "describe_solver_options",
]

#: Solver factories keyed by the names used in the paper's Table 1 (plus
#: extensions).  Each factory takes ``(chain, config=None, **kwargs)``.
SOLVER_REGISTRY = {
    "JT-Serial": JacobianTransposeSolver,
    "J-1-SVD": PseudoinverseSolver,
    "JT-Speculation": QuickIKSolver,
    "JT-DLS": DampedLeastSquaresSolver,
    "JT-SDLS": SelectivelyDampedSolver,
    "CCD": CyclicCoordinateDescentSolver,
    "J-1-SVD+nullspace": NullSpaceSolver,
    "JT-Hybrid": HybridSpeculativeSolver,
    "fdik": ForwardDynamicsSolver,
    "mdik": MirrorDescentSolver,
}

#: Lock-step batch engines, keyed by the scalar solver they drive.
#: CCD, J-1-SVD+nullspace and JT-Hybrid keep the per-target loop.
BATCH_REGISTRY = {
    "JT-Speculation": BatchedQuickIK,
    **{
        name: BatchedRowSolver
        for name, factory in SOLVER_REGISTRY.items()
        if issubclass(factory, RowUpdateSolver)
    },
}

#: Constructor parameters that are not user-tunable options (the chain is
#: positional; ``config`` carries the convergence policy).
_NON_OPTION_PARAMS = ("self", "chain", "config")


def solver_options(name: str, registry: dict | None = None) -> dict[str, inspect.Parameter]:
    """The tunable keyword parameters of a registered solver's constructor.

    Returns ``{parameter name: inspect.Parameter}`` (defaults included),
    excluding the chain and ``config``.
    """
    registry = registry if registry is not None else SOLVER_REGISTRY
    try:
        factory = registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown solver {name!r}; known: {known}") from None
    return {
        pname: param
        for pname, param in inspect.signature(factory).parameters.items()
        if pname not in _NON_OPTION_PARAMS
        and param.kind
        not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    }


def _validate_kwargs(name: str, factory: Any, kwargs: dict, registry: dict) -> None:
    """Reject keyword arguments the solver's constructor does not accept."""
    params = inspect.signature(factory).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return
    accepted = solver_options(name, registry)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        options = ", ".join(sorted(accepted)) or "(none)"
        raise TypeError(
            f"solver {name!r} got unexpected option(s) {unknown}; "
            f"accepted options: {options}"
        )


def make_solver(name: str, chain, config=None, **kwargs):
    """Instantiate a scalar solver by its Table 1 name.

    Extra keyword arguments are forwarded to the solver constructor (e.g.
    ``speculations=64`` for ``"JT-Speculation"``); unknown ones raise a
    ``TypeError`` naming the solver and its accepted options.
    """
    try:
        factory = SOLVER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SOLVER_REGISTRY))
        raise KeyError(f"unknown solver {name!r}; known: {known}") from None
    _validate_kwargs(name, factory, kwargs, SOLVER_REGISTRY)
    return factory(chain, config=config, **kwargs)


def make_batch_solver(name: str, chain, config=None, options=None, **kwargs):
    """Instantiate a batch solver by name.

    Names in :data:`BATCH_REGISTRY` get a lock-step engine: Quick-IK its
    own, every row-update family (JT-Serial, JT-DLS, J-1-SVD, JT-SDLS,
    fdik, mdik) the scalar solver built by :func:`make_solver` — with its
    own validated options — driven by
    :class:`~repro.solvers.batched.BatchedRowSolver`.  Any other
    :data:`SOLVER_REGISTRY` name, and any name whose ``config`` carries a
    ``watchdog`` (only the per-target driver arms one), falls back to the
    scalar solver, whose inherited ``solve_batch`` loops per target.
    Either way the result exposes ``solve_batch(targets, q0=None,
    rng=None, tracer=None) -> BatchResult``, and a lock-step row equals the
    scalar solve of its target from the same start.

    ``options`` is the typed execution policy
    (:class:`~repro.execution.ExecutionOptions`).  Its kernel spec is
    applied to ``chain`` once, here, and the spec's ``chunk`` goes to
    Quick-IK's engine unless its ``chunk`` option is passed explicitly.

    With ``options.workers`` set, the solver is wrapped in a
    :class:`~repro.parallel.ShardedBatchSolver` that shards every batch
    across that many subprocesses (``workers=1`` runs the identical shard
    path inline); results are bit-identical for any worker count under the
    same seed.  ``options.timeout`` bounds one pooled batch in seconds.

    ``options.on_error`` selects the failure policy (``"raise"`` /
    ``"skip"`` / ``"fallback"``, see
    :class:`~repro.parallel.ShardedBatchSolver`) and
    ``options.resilience`` is an optional
    :class:`~repro.resilience.ResilienceConfig`.  Requesting either without
    ``workers`` wraps the solver in a single-worker sharded solver so the
    guard / failure-report machinery still applies.
    """
    options = ExecutionOptions.coerce(options)
    spec = options.kernel
    if spec is not None:
        chain = spec.apply(chain)
    # Only the per-target driver arms a watchdog.
    engine = (
        BATCH_REGISTRY.get(name)
        if config is None or config.watchdog is None
        else None
    )
    if engine is BatchedQuickIK:
        _validate_kwargs(name, engine, kwargs, BATCH_REGISTRY)
        if spec is not None and spec.chunk is not None:
            kwargs.setdefault("chunk", spec.chunk)
        solver = engine(chain, config=config, **kwargs)
    else:
        solver = make_solver(name, chain, config=config, **kwargs)
        if engine is BatchedRowSolver:
            solver = BatchedRowSolver(solver)
    if not options.needs_sharding:
        return solver
    from repro.parallel import ShardedBatchSolver

    return ShardedBatchSolver(
        solver,
        workers=options.workers if options.workers is not None else 1,
        timeout=options.timeout,
        on_error=options.on_error,
        resilience=options.resolved_resilience(),
    )


def describe_solver_options(registry: dict | None = None) -> str:
    """Render every registered solver's options as indented help text."""
    registry = registry if registry is not None else SOLVER_REGISTRY
    lines = []
    for name in sorted(registry):
        options = solver_options(name, registry)
        if options:
            rendered = ", ".join(
                pname
                if param.default is inspect.Parameter.empty
                else f"{pname}={param.default!r}"
                for pname, param in options.items()
            )
        else:
            rendered = "(no options)"
        lines.append(f"  {name}: {rendered}")
    return "\n".join(lines)
