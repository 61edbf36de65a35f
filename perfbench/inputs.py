"""Seeded inputs: every target and start configuration comes from the seed.

The program under test sees only the arrays made here.  Targets are forward
kinematics of seeded configurations, evaluated on the scalar oracle chain,
so every target is reachable and none depends on the kernel under test.
Each unit of work draws from its own ``SeedSequence([seed, stream, unit])``
child, so unit ``u`` is the same whichever units ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ROBOT",
    "BATCH",
    "SESSIONS",
    "WALK_STEP",
    "offline_batch",
    "tracking_walks",
]

#: The robot every workload solves for: the paper's 50-DOF chain.
ROBOT = "dadu-50dof"

#: Targets per offline ``api.solve_batch`` call.
BATCH = 32

#: Concurrent tracking sessions in the serving workload.
SESSIONS = 8

#: Per-joint step of the tracking random walk, in radians.
WALK_STEP = 0.05

#: Independent random streams, one per kind of input.
STREAM_OFFLINE = 1
STREAM_TRACKING = 2


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _uniform(rng: np.random.Generator, oracle, rows: int) -> np.ndarray:
    return rng.uniform(
        oracle.lower_limits, oracle.upper_limits, size=(rows, oracle.dof)
    )


def offline_batch(oracle, seed: int, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """``(targets (BATCH, 3), q0 (BATCH, N))`` of one offline unit: targets
    at seeded reachable positions, cold random starts."""
    rng = _rng(seed, STREAM_OFFLINE, unit)
    targets = oracle.end_positions_batch(_uniform(rng, oracle, BATCH))
    return targets, _uniform(rng, oracle, BATCH)


def tracking_walks(
    oracle, seed: int, unit: int, ticks: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts (S, N), targets (S, ticks, 3))`` of one tracking round.

    Session ``s`` starts at a seeded configuration and walks in joint space:
    each tick moves every joint by ``±WALK_STEP`` (seeded signs), clamped to
    the joint limits; its targets are the forward kinematics of the walk.
    """
    lower, upper = oracle.lower_limits, oracle.upper_limits
    starts = np.empty((SESSIONS, oracle.dof))
    targets = np.empty((SESSIONS, ticks, 3))
    for s in range(SESSIONS):
        rng = _rng(seed, STREAM_TRACKING, unit, s)
        q = _uniform(rng, oracle, 1)[0]
        starts[s] = q
        signs = rng.choice((-1.0, 1.0), size=(ticks, oracle.dof))
        walk = np.empty((ticks, oracle.dof))
        for k in range(ticks):
            q = np.clip(q + WALK_STEP * signs[k], lower, upper)
            walk[k] = q
        targets[s] = oracle.end_positions_batch(walk)
    return starts, targets
