"""Request shape and rejection taxonomy for the in-process IK server.

A :class:`SolveRequest` is one user's IK problem plus everything
:func:`repro.api.solve` would have taken as keywords: the robot, the solver
name, the convergence config (or its common fields), a seed for the random
initial configuration, per-solver options, and a serving-only ``deadline_s``
latency budget.

Rejections are *structured*: every refusal carries a
:class:`~repro.resilience.report.FailureRecord` (the PR-3 failure shape, new
stage ``"serving"``), so a caller — or a ``FailureReport`` aggregating many
rejections — sees machine-readable ``stage``/``kind`` fields instead of
string-matching exception messages:

* :class:`Overloaded` — the bounded request queue is full (backpressure);
* :class:`DeadlineExceeded` — the latency budget expired, either at
  admission (``deadline_s <= 0``) or while the request waited in the queue;
* :class:`SloShed` — the budget had *not yet* expired at dispatch, but the
  server's execution-time estimate predicted the solve would finish past
  the deadline, so the request was shed instead of solved late (SLO-aware
  admission control; see ``ServerConfig.slo_shedding``);
* :class:`ServerClosed` — submitted to (or still pending in) a server that
  is shutting down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.resilience.report import FailureRecord

__all__ = [
    "SolveRequest",
    "ServingRejected",
    "Overloaded",
    "DeadlineExceeded",
    "SloShed",
    "ServerClosed",
    "STAGE_SERVING",
]

#: Pipeline stage tag for serving-layer failure records (extends the PR-3
#: guard / solver / watchdog / worker taxonomy).
STAGE_SERVING = "serving"

#: Default solver mirrors the facade (the paper's contribution).
DEFAULT_SOLVER = "JT-Speculation"


@dataclass
class SolveRequest:
    """One IK problem as an online request.

    Parameters
    ----------
    robot:
        Robot name (``"dadu-50dof"``, …) or a built
        :class:`~repro.kinematics.chain.KinematicChain`.  Requests for the
        same robot / solver / config coalesce into one batch.
    target:
        Target end-effector position (3-vector).
    solver:
        Any ``SOLVER_REGISTRY`` name (default: Quick-IK).
    q0:
        Optional explicit starting configuration (skips both the seed draw
        and the warm-start cache).
    seed:
        Seed for the random initial configuration.  A request with
        ``seed=s`` resolves the *same* ``q0`` a direct
        ``api.solve(robot, target, solver, seed=s)`` call would, which is
        what makes served results comparable one-to-one with offline solves.
    config / tolerance / max_iterations:
        Convergence policy, exactly as :func:`repro.api.solve` takes it
        (``config`` is mutually exclusive with the individual fields).  The
        kernel is the server's (``ServerConfig.options.kernel``).
    deadline_s:
        Latency budget in seconds, measured from submission.  ``None``
        means no deadline; a non-positive budget is rejected at admission;
        a request whose budget expires while queued is completed
        exceptionally with :class:`DeadlineExceeded` instead of being
        solved late.
    warm_start:
        Tri-state: ``None`` inherits the server's policy, ``True``/``False``
        force the warm-start seed cache on/off for this request.  Warm
        starting replaces the seed draw with the cached solution of the
        nearest previously-served target (see
        :mod:`repro.serving.seeds`) — usually fewer iterations, but no
        longer bit-comparable to the equivalent offline solve.
    options:
        Per-solver options (e.g. ``{"speculations": 64}``), validated by
        the registry factory exactly like the facade's ``**options``.
    """

    robot: Any
    target: Any
    solver: str = DEFAULT_SOLVER
    q0: Any = None
    seed: int | None = None
    config: Any = None
    tolerance: float | None = None
    max_iterations: int | None = None
    deadline_s: float | None = None
    warm_start: bool | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def target_array(self) -> np.ndarray:
        """The target as a float 3-vector (raises on a malformed shape)."""
        target = np.asarray(self.target, dtype=float)
        if target.shape != (3,):
            raise ValueError(
                f"target must be a 3-vector, got shape {target.shape}"
            )
        return target


class ServingRejected(RuntimeError):
    """Base class: the server refused (or abandoned) a request.

    ``record`` is the structured :class:`FailureRecord` (stage
    ``"serving"``); the exception message is its human rendering.
    """

    kind = "rejected"

    def __init__(self, record: FailureRecord) -> None:
        self.record = record
        super().__init__(record.describe())

    @classmethod
    def from_request(cls, message: str, solver: str = "") -> "ServingRejected":
        return cls(FailureRecord(
            index=-1, stage=STAGE_SERVING, kind=cls.kind,
            message=message, solver=solver,
        ))


class Overloaded(ServingRejected):
    """Backpressure: the bounded request queue is full."""

    kind = "overloaded"


class DeadlineExceeded(ServingRejected):
    """The request's latency budget expired before it could be solved."""

    kind = "deadline_exceeded"


class SloShed(ServingRejected):
    """Shed at dispatch: predicted (not yet observed) to miss its deadline.

    Distinct from :class:`DeadlineExceeded` — the budget was still live,
    but the per-group execution-time estimate said solving would blow it,
    so the server refused the work instead of spending solver time on an
    answer the client would discard.
    """

    kind = "slo_shed"


class ServerClosed(ServingRejected):
    """The server is shutting down (or already closed)."""

    kind = "server_closed"
