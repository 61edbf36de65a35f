"""Quick-IK: speculative parallel Jacobian-transpose IK (paper Section 4).

Each iteration (Algorithm 1):

1. compute the Jacobian ``J`` and the base update ``dtheta_base = J^T e``;
2. compute the Buss base step size ``alpha_base`` (Eq. 8);
3. *speculate* ``Max`` candidate step sizes ``alpha_k = (k/Max) alpha_base``
   (Eq. 9), evaluate the true forward kinematics of every candidate
   ``theta + alpha_k dtheta_base``;
4. return immediately if any candidate meets the accuracy constraint
   (lines 12-13, first such ``k`` in enumeration order), otherwise keep the
   candidate with the smallest true error (line 16).

Because ``k = Max`` reproduces the plain Buss step, the greedy choice is never
worse per iteration than JT-Serial — that is the mechanism behind the 97%
iteration reduction.  All ``Max`` forward-kinematics evaluations are
independent, which is what IKAcc's SSU array exploits in hardware; here they
are evaluated as one batched numpy FK.  Under the paper's linear schedule
the candidates lie on one ray, so the sweep hands the FK a
:class:`~repro.kinematics.kernels.SpeculationGrid` and builds only the
winner's configuration; :func:`speculate` is that sweep for ``B`` problems,
shared with the lock-step engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.alpha import ScheduleFn, buss_alpha, get_schedule, linear_schedule
from repro.core.base import IterativeIKSolver
from repro.core.result import SolverConfig, StepOutcome
from repro.kinematics.chain import KinematicChain
from repro.kinematics.kernels import SpeculationGrid
from repro.telemetry.tracer import Tracer

__all__ = ["QuickIKSolver", "DEFAULT_SPECULATIONS", "speculate"]

#: The paper's operating point: "we will set the number of speculations as 64"
#: (Section 6.2, Figure 4 trade-off).
DEFAULT_SPECULATIONS = 64


def speculate(fk, sweep, targets: np.ndarray, tolerance: float, tracer: Tracer):
    """Algorithm 1 lines 10-16 for ``B`` problems of ``Max`` candidates.

    ``sweep`` is a :class:`~repro.kinematics.kernels.SpeculationGrid` or an
    explicit ``(B, Max, N)`` candidate block (clamped candidates, ablation
    schedules), and ``fk`` maps its rows to end positions.  Each problem
    keeps its first candidate within ``tolerance``, else its nearest one.
    Returns the winners' ``(q, position, error)``, their indices and
    whether each was within tolerance; a grid builds only the winners'
    rows, with the bits of the explicit block's.
    """
    timed = tracer.enabled
    if timed:
        t0 = time.perf_counter()
    grid = isinstance(sweep, SpeculationGrid)
    positions = fk(sweep if grid else sweep.reshape(-1, sweep.shape[-1]))
    positions = positions.reshape(len(targets), -1, 3)
    if timed:
        t1 = time.perf_counter()
        tracer.add_phase("fk_sweep", t1 - t0)
    errors = np.linalg.norm(targets[:, None, :] - positions, axis=2)  # line 11
    below = errors < tolerance
    early = below.any(axis=1)
    # Lines 12-13: the hardware returns the first candidate (in enumeration
    # order) that meets the accuracy constraint; line 16 the nearest.
    chosen = np.where(early, below.argmax(axis=1), errors.argmin(axis=1))
    rows = np.arange(len(targets))
    q = sweep.rows(chosen) if grid else sweep[rows, chosen]
    if timed:
        tracer.add_phase("selection", time.perf_counter() - t1)
    return q, positions[rows, chosen], errors[rows, chosen], chosen, early


class QuickIKSolver(IterativeIKSolver):
    """The paper's primary contribution (Algorithm 1).

    Parameters
    ----------
    chain:
        Manipulator to solve for.
    speculations:
        ``Max``, the number of speculative step sizes per iteration.
    schedule:
        Speculation schedule name (default ``"linear"``, the paper's Eq. 9)
        or a callable ``(alpha_base, count) -> candidates``.
    config:
        Convergence policy (tolerance 1e-2 m, cap 10k, as in the paper).
    track_chosen:
        When true, records which candidate index won each iteration in
        :attr:`chosen_history` (used by the speculation-strategy ablation).
    """

    name = "JT-Speculation"

    def __init__(
        self,
        chain: KinematicChain,
        speculations: int = DEFAULT_SPECULATIONS,
        schedule: str | ScheduleFn = "linear",
        config: SolverConfig | None = None,
        track_chosen: bool = False,
    ) -> None:
        super().__init__(chain, config)
        if speculations < 1:
            raise ValueError("speculations must be >= 1")
        self.speculations = int(speculations)
        self.schedule: ScheduleFn = (
            get_schedule(schedule) if isinstance(schedule, str) else schedule
        )
        self.track_chosen = track_chosen
        #: Winning candidate index per iteration (when ``track_chosen``).
        self.chosen_history: list[int] = []

    def _step(
        self, q: np.ndarray, position: np.ndarray, target: np.ndarray
    ) -> StepOutcome:
        tr = self._tracer
        timed = tr.enabled
        if timed:
            t0 = time.perf_counter()
        error_vec = target - position
        jacobian = self.chain.jacobian_position(q)
        dq_base = jacobian.T @ error_vec  # Algorithm 1 line 4
        jjte = jacobian @ dq_base
        if timed:
            t1 = time.perf_counter()
            tr.add_phase("jacobian", t1 - t0)
        alpha_base = buss_alpha(error_vec, jjte)  # line 5

        # Lines 6-9: the candidates theta + alpha_k dtheta_base.
        if self.schedule is linear_schedule and not self.config.respect_limits:
            sweep = SpeculationGrid(
                q[None], dq_base[None], np.array([alpha_base]), self.speculations
            )
        else:
            alphas = self.schedule(alpha_base, self.speculations)
            candidates = q[None, :] + alphas[:, None] * dq_base[None, :]
            if self.config.respect_limits:
                candidates = np.clip(
                    candidates, self.chain.lower_limits, self.chain.upper_limits
                )
            sweep = candidates[None]
        if timed:
            tr.add_phase("alpha", time.perf_counter() - t1)
        q_new, position, error, chosen, early = speculate(  # lines 10-16
            self.chain.end_positions_batch, sweep, target[None],
            self.config.tolerance, tr,
        )
        if self.track_chosen:
            self.chosen_history.append(int(chosen[0]))
        return StepOutcome(
            q=q_new[0],
            position=position[0],
            error=float(error[0]),
            fk_evaluations=self.speculations,
            early_exit=bool(early[0]),
        )
