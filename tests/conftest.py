"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import quick_ik
from repro.core.result import SolverConfig
from repro.kinematics import paper_chain, planar_chain, puma560, random_chain
from repro.kinematics.kernels import SpeculationGrid


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def planar3():
    """Three-link planar arm with 1 m reach (hand-checkable FK)."""
    return planar_chain(3, total_reach=1.0)


@pytest.fixture
def puma():
    """PUMA-560."""
    return puma560()


@pytest.fixture
def dadu12():
    """The paper's 12-DOF evaluation chain."""
    return paper_chain(12)


@pytest.fixture
def mixed_chain(rng):
    """Random chain containing prismatic joints."""
    return random_chain(6, rng, prismatic_probability=0.4)


@pytest.fixture
def fast_config() -> SolverConfig:
    """Solver config with a small iteration cap for quick tests."""
    return SolverConfig(max_iterations=2000)


@pytest.fixture
def broadcasts(monkeypatch):
    """The grids Quick-IK's shared step sweeps, in order, during the test.

    On the IKAcc simulator an iteration's grid is what the scheduler
    broadcasts to the SSU array: ``theta`` (``grid.q``), ``dtheta_base``
    (``grid.direction``), ``alpha_base`` and the Eq. 9 ``alpha_k``, all on
    the simulator's float32 twin.
    """
    grids = []

    class Recorded(SpeculationGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    monkeypatch.setattr(quick_ik, "SpeculationGrid", Recorded)
    return grids
