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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serving.server": ("IKServer", "ServerConfig", "ServingStats"),
    "repro.serving.request": (
        "SolveRequest",
        "ServingRejected",
        "Overloaded",
        "DeadlineExceeded",
        "SloShed",
        "ServerClosed",
        "STAGE_SERVING",
    ),
    "repro.serving.seeds": ("SeedCache", "SeedCacheStats", "chain_fingerprint"),
    "repro.serving.batcher": (
        "MicroBatcher",
        "MicroBatch",
        "GroupKey",
        "PendingEntry",
    ),
    "repro.serving.loadgen": ("run_serve_bench",),
    "repro.serving.sessions": (
        "SessionManager",
        "TrackingSession",
        "SessionConfig",
        "SessionStats",
        "SessionRejected",
        "SessionLimit",
        "SessionExpired",
        "SessionClosed",
    ),
})
