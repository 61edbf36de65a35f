"""In-process IK serving with continuous batching (see docs/serving.md).

The online entry point to the solver stack: individual
:class:`SolveRequest`\\ s go in, per-request ``IKResult`` futures come out,
and in between compatible requests share the vectorized lock-step
batches the offline path runs.  A queued request starts the moment a
dispatch loop is free; a request for a lock-step solver joins its key's
live run at the next iteration and completes when its own row retires.

Quickstart::

    from repro.serving import IKServer, ServerConfig, SolveRequest

    with IKServer(ServerConfig(max_batch_size=64)) as srv:
        future = srv.submit(SolveRequest("dadu-50dof", [0.4, 0.2, 0.6], seed=0))
        print(future.result().summary())

(or ``repro.api.serve(...)`` for the facade form.)
"""

from repro.serving.batcher import GroupKey, MicroBatch, MicroBatcher, PendingEntry
from repro.serving.loadgen import run_serve_bench
from repro.serving.request import (
    STAGE_SERVING,
    DeadlineExceeded,
    Overloaded,
    ServerClosed,
    ServingRejected,
    SloShed,
    SolveRequest,
)
from repro.serving.seeds import SeedCache, SeedCacheStats, chain_fingerprint
from repro.serving.server import IKServer, ServerConfig, ServingStats
from repro.serving.sessions import (
    SessionClosed,
    SessionConfig,
    SessionExpired,
    SessionLimit,
    SessionManager,
    SessionRejected,
    SessionStats,
    TrackingSession,
)

__all__ = [
    "IKServer",
    "ServerConfig",
    "ServingStats",
    "SolveRequest",
    "ServingRejected",
    "Overloaded",
    "DeadlineExceeded",
    "SloShed",
    "ServerClosed",
    "STAGE_SERVING",
    "SeedCache",
    "SeedCacheStats",
    "chain_fingerprint",
    "MicroBatcher",
    "MicroBatch",
    "GroupKey",
    "PendingEntry",
    "run_serve_bench",
    "SessionManager",
    "TrackingSession",
    "SessionConfig",
    "SessionStats",
    "SessionRejected",
    "SessionLimit",
    "SessionExpired",
    "SessionClosed",
]
