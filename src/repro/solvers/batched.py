"""Throughput engine: solve many IK problems in lock-step.

The paper's evaluation solves 1000 targets per configuration.  Solving them
one by one leaves numpy's vector units idle; this engine advances *all*
unconverged problems simultaneously — one batched update and one batched
FK per iteration — while computing exactly the same per-problem
trajectories (verified by tests).

Two engines share the loop in :class:`LockStepEngine`:

* :class:`BatchedQuickIK` — Quick-IK's speculative sweep: one batched
  Jacobian and one ``B x Max`` FK sweep of the Eq. 9 rays per iteration
  (a :class:`~repro.kinematics.kernels.SpeculationGrid`; only each row's
  winner is materialised), with :class:`~repro.core.quick_ik.
  QuickIKSolver`'s own per-row arithmetic (:mod:`repro.core.rows`) and
  sweep (:func:`~repro.core.quick_ik.speculate`), so a row equals
  ``QuickIKSolver.solve`` of its target from its start bit for bit.
* :class:`BatchedRowSolver` — every family whose iteration is one row
  update (:class:`~repro.core.base.RowUpdateSolver`: JT-Serial, JT-DLS,
  J-1-SVD, JT-SDLS, fdik, mdik).  It runs the solver's own update on all
  live rows, then makes **one prefix-frame pass** over the new
  configurations (:meth:`~repro.kinematics.chain.KinematicChain.
  fk_jacobian_batch`): its end positions feed the convergence test and its
  Jacobians the next iteration — the batched form of the paper's SPU
  reusing ``1TiC`` for both ``JiC`` and the pose (Fig. 3).  Each row's
  Jacobian and the solver's per-row state (fdik's velocity) ride along
  with the row.  A row equals ``solver.solve`` of its target from its
  start bit for bit, at any batch size and on either kernel.

**One resumable loop.**  The loop is a :class:`LockStepRun`
(:meth:`LockStepEngine.open_run`): rows *join* it between iterations
(:meth:`LockStepRun.admit`), every :meth:`LockStepRun.step` advances all
live rows by one iteration, and each row *leaves* with its own
:class:`IKResult` in the step it retires.  The live rows' state —
configurations, positions, targets, errors, iteration and FK counts, and
the carried per-row blocks — is kept in dense blocks (:class:`ActiveSet`):
joining appends rows, retiring compacts them out, and every sweep touches
only live rows.  :meth:`LockStepEngine.solve_batch` is "admit everything,
then step until drained"; the serving layer keeps one run open and admits
requests into it as they arrive (``docs/serving.md``).  A row never depends
on the rows it shares a step with, so it equals ``solve_batch`` of its
target alone whenever it joined (``tests/conformance/test_compaction.py``).

The loop mirrors the scalar driver (:meth:`~repro.core.base.
IterativeIKSolver.solve`): the same error helper, ``respect_limits``
clamping, the non-finite guard (a row exits ``"nonfinite"`` with its last
finite state), the per-row iteration cap and, when ``record_history`` is
set, the same ``error_history``.  A config with a ``watchdog`` is not run
here: :func:`~repro.solvers.registry.make_batch_solver` keeps it on the
per-target driver, the only path that arms the watchdog.

Both engines share the ``solve_batch(targets, q0=None, rng=None,
tracer=None) -> BatchResult`` signature; :class:`BatchResult` is a sequence
of per-problem :class:`IKResult`, so callers of the historical
``list[IKResult]`` return value are unaffected.  The engines are registered
in :data:`~repro.solvers.registry.BATCH_REGISTRY` under the same Table 1
names as their scalar counterparts.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

import numpy as np

from repro.core.alpha import buss_alpha_rows
from repro.core.base import task_errors
from repro.core.quick_ik import speculate
from repro.core.rows import matvec, rmatvec
from repro.core.result import BatchResult, IKResult, SolverConfig
from repro.kinematics.kernels import SpeculationGrid
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = [
    "ActiveSet",
    "BatchedQuickIK",
    "BatchedRowSolver",
    "LockStepEngine",
    "LockStepRun",
]

#: FK rows evaluated per chunk on the scalar kernel.  Small enough that one
#: chunk's transform stack (``chunk x N`` 4x4 matrices) stays cache-resident
#: — larger chunks measurably slow the scalar sweep down on 50-100 DOF
#: chains.
DEFAULT_CHUNK = 128

#: FK rows per chunk on the vectorized kernel, whose tool-point fold *wants*
#: all ``B x Max`` (problem, candidate) rows in one call: it makes about
#: eight ufunc calls per joint whatever the row count, so its fixed cost
#: amortises with rows.  The engine hands it a ``SpeculationGrid``, split
#: by whole problems (128 of 64 candidates per call); its scratch (the
#: complex ``(N, R)`` ray block and the ``(-sin, sin)`` planes) is about
#: 13 MB at 50 DOF and 8192 rows.
VECTORIZED_CHUNK = 8192


class ActiveSet:
    """The live rows of a lock-step run, kept aligned with dense blocks.

    ``indices`` names each live row (a run numbers rows in admission
    order).  The two primitives the loop needs:

    * :meth:`admit` — append new rows after the live ones, in the index
      *and* in any number of dense blocks;
    * :meth:`compact` — drop retired rows from the index and the blocks.

    Both are property-tested against a naive per-row reference in
    ``tests/property/test_compaction_properties.py``.
    """

    def __init__(self, indices: Iterable[int] = ()) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)

    @property
    def size(self) -> int:
        """Number of live rows."""
        return int(self.indices.size)

    def admit(
        self,
        indices: np.ndarray,
        blocks: tuple[np.ndarray, ...],
        new_blocks: tuple[np.ndarray, ...],
    ) -> tuple[np.ndarray, ...]:
        """Append rows ``indices``; returns each block with the matching
        new block's rows appended (the new blocks alone when no row is
        live)."""
        indices = np.asarray(indices, dtype=np.intp)
        if not self.size:
            self.indices = indices
            return tuple(new_blocks)
        self.indices = np.concatenate([self.indices, indices])
        return tuple(
            np.concatenate([block, new])
            for block, new in zip(blocks, new_blocks)
        )

    def compact(
        self, keep: np.ndarray, *blocks: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Drop rows where ``keep`` is false; returns the filtered blocks."""
        self.indices = self.indices[keep]
        return tuple(block[keep] for block in blocks)


class LockStepRun:
    """One resumable lock-step solve (built by :meth:`LockStepEngine.open_run`).

    * :meth:`admit` adds rows: their start FK (and carried blocks) come
      from the engine's ``_start``, and a row already within tolerance
      retires at iteration 0;
    * :meth:`step` runs one iteration over every live row;
    * both return the rows that retired as ``(tag, IKResult)`` pairs, where
      ``tag`` is whatever the caller named the row with at admission.

    Each row keeps its own iteration count, ``max_iterations`` cap, error
    history and non-finite guard, so its result does not depend on when it
    joined or which rows it shared steps with.  A row's ``wall_time`` is
    its time in the run.  Telemetry: the first admission emits
    ``solve_start`` (``batch`` = rows admitted with it), each step one
    ``iteration`` event and an ``active_rows`` gauge, and :meth:`close`
    the ``solve_end`` over every row admitted.  A run is single-threaded:
    one caller drives it.
    """

    def __init__(self, engine: "LockStepEngine", tracer: Tracer | None = None):
        self.engine = engine
        self.tracer = tracer if tracer is not None else get_tracer()
        self._traced = self.tracer.enabled
        self._gauge = (
            getattr(self.tracer, "gauge", None) if self._traced else None
        )
        self._tolerance = engine.config.tolerance
        self._cap = engine.config.max_iterations
        self._started = time.perf_counter()
        self._active = ActiveSet()
        # Live-row blocks, aligned with ``_active.indices``.
        self._q = self._p = self._t = self._e = np.empty(0)
        self._iterations = np.zeros(0, dtype=int)
        self._fk = np.zeros(0, dtype=int)
        self._carry: tuple[np.ndarray, ...] = ()
        self._history: list[list] | None = (
            [] if engine.config.record_history else None
        )
        #: Row id -> (caller's tag, admission time).
        self._tags: dict[int, tuple[Any, float]] = {}
        #: Lock-step iterations run so far.
        self.steps = 0
        #: Rows admitted so far.
        self.admitted = 0
        # ``solve_end`` totals over retired rows (kept only when traced).
        self._announced = False
        self._converged = self._iterations_done = 0
        self._max_error = -np.inf

    @property
    def live(self) -> int:
        """Rows admitted and not yet retired."""
        return self._active.size

    def admit(
        self, targets: np.ndarray, q0: np.ndarray, tags: Iterable[Any]
    ) -> list[tuple[Any, IKResult]]:
        """Add one row per target, starting at the matching ``q0`` row.

        Returns the new rows that retire at once (within tolerance at
        their start, or a zero iteration cap).
        """
        engine = self.engine
        dtype = engine.chain.dtype
        tags = list(tags)
        targets = np.array(targets, dtype=dtype).reshape(len(tags), 3)
        qs = np.array(q0, dtype=dtype).reshape(len(tags), engine.chain.dof)
        positions, carry = engine._start(qs)
        errors = task_errors(targets, positions)
        count = len(tags)
        if self._traced:
            if not self._announced:
                self._announced = True
                self.tracer.solve_start(
                    engine.name, engine.chain.dof, batch=count,
                    speculations=engine.speculations,
                    kernel=engine.chain.kernel, dtype=dtype.name,
                )
            self.tracer.count("fk_evaluations", count)
        ids = np.arange(self.admitted, self.admitted + count)
        self.admitted += count
        now = time.perf_counter()
        self._tags.update(zip(ids.tolist(), ((tag, now) for tag in tags)))
        was_live = self.live
        (self._q, self._p, self._t, self._e, self._iterations, self._fk,
         *carry) = self._active.admit(
            ids,
            (self._q, self._p, self._t, self._e, self._iterations, self._fk,
             *self._carry),
            (qs, positions, targets, errors, np.zeros(count, dtype=int),
             np.ones(count, dtype=int), *carry),
        )
        self._carry = tuple(carry)
        if self._history is not None:
            self._history.extend([error] for error in errors)
        keep = np.ones(self.live, dtype=bool)
        keep[was_live:] = (errors >= self._tolerance) & (self._cap > 0)
        return self._retire(keep)

    def step(self) -> list[tuple[Any, IKResult]]:
        """Advance every live row by one iteration; returns the rows that
        retired in it."""
        n_active = self.live
        if not n_active:
            return []
        tr = self.tracer
        engine = self.engine
        self.steps += 1
        q_prev, p_prev, e_prev = self._q, self._p, self._e
        q_c, p_c, e_c, carry, fk_per_problem = engine._advance_dense(
            self._q, self._p, self._t, self._carry, tr
        )
        self._iterations += 1
        self._fk += fk_per_problem
        if self._history is not None:
            for history, error in zip(self._history, e_c):
                history.append(error)
        if self._traced:
            tr.count("fk_evaluations", fk_per_problem * n_active)
            tr.count("jacobian_builds", n_active)
            tr.count("candidate_evaluations", engine.speculations * n_active)
            tr.iteration(
                self.steps,
                float(e_c.max()),
                active=int(n_active),
                fk_evaluations=int(fk_per_problem * n_active),
            )
            if self._gauge is not None:
                self._gauge("active_rows", int(n_active), iteration=self.steps)
        finite = np.isfinite(e_c)
        bad = None
        if not finite.all():
            # Mirror of the scalar driver's non-finite guard: a NaN row
            # would silently drop out of the comparison below, and a +inf
            # row would burn the whole iteration budget.  Such a row
            # exits typed with its last finite state.
            bad = ~finite
            q_c = np.where(bad[:, None], q_prev, q_c)
            p_c = np.where(bad[:, None], p_prev, p_c)
            e_c = np.where(bad, e_prev, e_c)
            if self._traced:
                tr.count("nonfinite_exits", int(bad.sum()))
        self._q, self._p, self._e, self._carry = q_c, p_c, e_c, tuple(carry)
        keep = finite & (e_c >= self._tolerance)
        # Rows stay in admission order, so the first is the oldest.
        if self._iterations[0] >= self._cap:
            keep &= self._iterations < self._cap
        return self._retire(keep, bad)

    def _retire(
        self, keep: np.ndarray, nonfinite: np.ndarray | None = None
    ) -> list[tuple[Any, IKResult]]:
        """Hand back the rows where ``keep`` is false and compact them out."""
        if keep.all():
            return []
        engine = self.engine
        now = time.perf_counter()
        rows = np.flatnonzero(~keep)
        errors = self._e[rows]
        converged = errors < self._tolerance
        iterations = self._iterations[rows]
        if self._traced:
            self._converged += int(converged.sum())
            self._iterations_done += int(iterations.sum())
            self._max_error = np.maximum(self._max_error, errors.max())
        retired = []
        for k, i in enumerate(rows.tolist()):
            tag, admitted_at = self._tags.pop(int(self._active.indices[i]))
            status = (
                "converged" if converged[k]
                else "nonfinite" if nonfinite is not None and nonfinite[i]
                else "max_iterations"
            )
            retired.append((tag, IKResult(
                q=np.array(self._q[i], dtype=float),
                converged=bool(converged[k]),
                iterations=int(iterations[k]),
                error=float(errors[k]),
                target=np.array(self._t[i], dtype=float),
                solver=engine.name,
                dof=engine.chain.dof,
                speculations=engine.speculations,
                fk_evaluations=int(self._fk[i]),
                wall_time=now - admitted_at,
                error_history=(
                    np.array(self._history[i], dtype=float)
                    if self._history is not None else np.empty(0)
                ),
                status=status,
            )))
        (self._q, self._p, self._t, self._e, self._iterations, self._fk,
         *carry) = self._active.compact(
            keep, self._q, self._p, self._t, self._e, self._iterations,
            self._fk, *self._carry,
        )
        self._carry = tuple(carry)
        if self._history is not None:
            self._history = [
                history for history, kept in zip(self._history, keep) if kept
            ]
        return retired

    def close(self, wall_time: float | None = None) -> None:
        """End the run: emit its ``solve_end`` over every row admitted
        (rows still live are dropped)."""
        if not self._announced:
            return
        if wall_time is None:
            wall_time = time.perf_counter() - self._started
        self.tracer.solve_end(
            self.engine.name,
            converged=self._converged == self.admitted,
            batch=self.admitted,
            converged_count=self._converged,
            iterations=self._iterations_done,
            error=float(self._max_error) if self.admitted else 0.0,
            wall_time=wall_time,
        )


class LockStepEngine:
    """Shared scaffolding for the lock-step batch engines.

    Owns the pieces both engines repeat verbatim: target/``q0`` validation
    and broadcast, chunked batched FK, the resumable :class:`LockStepRun`
    (live-row blocks, the non-finite guard, error histories, telemetry)
    and assembling the per-problem :class:`IKResult` list into a
    :class:`BatchResult`.  Subclasses implement one lock-step iteration
    over a dense block of live rows in :meth:`_advance_dense` (and, to
    carry blocks, :meth:`_start`) and set :attr:`name` /
    :attr:`speculations`.

    The engine runs on the chain it is handed: its kernel mode picks the
    default ``chunk``, and all engine state (configurations, positions,
    errors, targets) is kept in the chain's dtype so a float32 sweep never
    round-trips through float64.
    """

    name = "lock-step"

    #: Candidate evaluations per problem per iteration.
    speculations = 1

    def __init__(
        self,
        chain,
        config: SolverConfig | None = None,
        chunk: int | None = None,
    ) -> None:
        self.config = config or SolverConfig()
        self.chain = chain
        if chunk is None:
            chunk = (
                VECTORIZED_CHUNK
                if self.chain.kernel == "vectorized"
                else DEFAULT_CHUNK
            )
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = int(chunk)
        # Joint limits for ``respect_limits``, in the engine dtype.
        self._lower = self.chain.lower_limits.astype(self.chain.dtype)
        self._upper = self.chain.upper_limits.astype(self.chain.dtype)

    def _fk_chunked(self, qs) -> np.ndarray:
        """End positions of ``qs`` in calls of at most ``chunk`` rows; a
        :class:`SpeculationGrid` is split by whole problems (at least one
        per call)."""
        if len(qs) <= self.chunk:
            return self.chain.end_positions_batch(qs)
        if isinstance(qs, SpeculationGrid):
            step, total = max(1, self.chunk // qs.count), qs.problems
        else:
            step, total = self.chunk, len(qs)
        parts = [
            self.chain.end_positions_batch(qs[i : i + step])
            for i in range(0, total, step)
        ]
        return np.concatenate(parts, axis=0)

    def _initial_configurations(
        self,
        m: int,
        q0: np.ndarray | None,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        dof = self.chain.dof
        dtype = self.chain.dtype
        if q0 is None:
            if rng is None:
                rng = np.random.default_rng()
            # Draw in float64 first so a float32 engine consumes the same
            # random stream (and hence the same starting points) as the
            # float64 oracle under one seed, then cast once.
            return np.stack(
                [self.chain.random_configuration(rng) for _ in range(m)]
            ).astype(dtype, copy=False)
        q0 = np.asarray(q0, dtype=dtype)
        qs = np.tile(q0, (m, 1)) if q0.ndim == 1 else q0.copy()
        if qs.shape != (m, dof):
            raise ValueError(f"q0 must broadcast to ({m}, {dof})")
        return qs

    def _start(
        self, qs: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """End positions of the start configurations, plus the per-row
        blocks the iterations carry (none by default).

        The positions come from the prefix-frame pass, the scan the scalar
        driver's ``end_position`` makes: admission waves are a few rows,
        where the sweep's fold costs more than the scan.
        """
        return self.chain.fk_jacobian_batch(qs)[0], ()

    def _advance_dense(
        self,
        q_c: np.ndarray,
        p_c: np.ndarray,
        t_c: np.ndarray,
        carry: tuple[np.ndarray, ...],
        tracer: Tracer,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...], int]:
        """One lock-step iteration over a dense block of live rows.

        ``q_c`` / ``p_c`` / ``t_c`` are the configurations, end positions
        and targets of the live rows (aligned, C-contiguous) and ``carry``
        the engine's carried blocks for the same rows.  Returns the new
        ``(q, position, error)`` blocks, the new carried blocks, and the FK
        evaluations charged to each row this iteration.
        """
        raise NotImplementedError

    def open_run(self, tracer: Tracer | None = None) -> LockStepRun:
        """A new, empty :class:`LockStepRun` on this engine (``tracer``
        defaults to the process-global tracer)."""
        return LockStepRun(self, tracer)

    def solve_batch(
        self,
        targets: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> BatchResult:
        """Solve all ``targets`` in lock-step: admit them to one run, then
        step it until every row has retired.

        ``q0`` may be a single configuration (shared) or one row per target;
        omitted, each problem gets its own random restart.  ``tracer``
        defaults to the process-global tracer.  Each result's ``wall_time``
        is the batch's wall time divided evenly.
        """
        start_time = time.perf_counter()
        targets = np.atleast_2d(np.asarray(targets, dtype=self.chain.dtype))
        if targets.shape[1] != 3:
            raise ValueError("targets must have shape (M, 3)")
        m = targets.shape[0]
        qs = self._initial_configurations(m, q0, rng)

        run = self.open_run(tracer)
        finished = run.admit(targets, qs, range(m))
        while run.live:
            finished += run.step()
        by_index = dict(finished)
        results = [by_index[i] for i in range(m)]
        elapsed = time.perf_counter() - start_time
        for result in results:
            result.wall_time = elapsed / m
        batch = BatchResult(results=results, solver=self.name, wall_time=elapsed)
        run.close(wall_time=elapsed)
        if run.tracer.enabled:
            summary = getattr(run.tracer, "summary", None)
            if summary is not None:
                batch.telemetry = summary().to_dict()
        return batch


class BatchedQuickIK(LockStepEngine):
    """Lock-step Quick-IK over a batch of targets.

    Parameters mirror :class:`~repro.core.quick_ik.QuickIKSolver` (linear
    schedule only — the paper's Eq. 9).  ``chunk`` bounds the FK batch size.
    """

    name = "JT-Speculation-batched"

    def __init__(
        self,
        chain,
        speculations: int = 64,
        config: SolverConfig | None = None,
        chunk: int | None = None,
    ) -> None:
        super().__init__(chain, config=config, chunk=chunk)
        if speculations < 1:
            raise ValueError("speculations must be >= 1")
        self.speculations = int(speculations)

    def _advance_dense(self, q_c, p_c, t_c, carry, tracer):
        timed = tracer.enabled
        if timed:
            t0 = time.perf_counter()
        dof, dtype = self.chain.dof, self.chain.dtype
        e_vec = t_c - p_c

        jacobians = self.chain.jacobian_position_batch(q_c)  # (A,3,N)
        dq_base = rmatvec(jacobians, e_vec)  # J^T e
        jjte = matvec(jacobians, dq_base)  # J J^T e
        if timed:
            t1 = time.perf_counter()
            tracer.add_phase("jacobian", t1 - t0)
        # Eq. 8 per row, as QuickIKSolver._step; back in the engine dtype.
        alpha_base = buss_alpha_rows(e_vec, jjte).astype(dtype, copy=False)
        sweep = SpeculationGrid(q_c, dq_base, alpha_base, self.speculations)
        if self.config.respect_limits:
            # As QuickIKSolver._step: clamp every candidate before the sweep.
            sweep = np.clip(
                sweep.candidates(), self._lower, self._upper
            ).reshape(len(q_c), self.speculations, dof)
        if timed:
            tracer.add_phase("alpha", time.perf_counter() - t1)
        q_new, p_new, e_new, _, _ = speculate(
            self._fk_chunked, sweep, t_c, self.config.tolerance, tracer
        )
        return q_new, p_new, e_new, carry, self.speculations


class BatchedRowSolver(LockStepEngine):
    """Lock-step driver for any :class:`~repro.core.base.RowUpdateSolver`.

    Each iteration runs the solver's own :meth:`update_rows` on every live
    row, clamps the result into the joint limits when the config asks
    (as the scalar driver does), and makes one prefix-frame pass over the
    new configurations: its positions give the errors, its Jacobians the
    next update.  The solver's options, config and kernel are the
    engine's; results are labelled ``"<solver name>-batched"``.
    """

    def __init__(self, solver) -> None:
        super().__init__(solver.chain, config=solver.config)
        self.solver = solver
        self.name = f"{solver.name}-batched"

    def _start(self, qs):
        positions, jacobians = self.chain.fk_jacobian_batch(qs)
        return positions, (jacobians, *self.solver.initial_state(qs.shape[0]))

    def _advance_dense(self, q_c, p_c, t_c, carry, tracer):
        timed = tracer.enabled
        if timed:
            t0 = time.perf_counter()
        jacobians, state = carry[0], carry[1:]
        q_new = self.solver.update_rows(q_c, t_c - p_c, jacobians, state)
        if self.config.respect_limits:
            q_new = np.clip(q_new, self._lower, self._upper)
        if timed:
            t1 = time.perf_counter()
            tracer.add_phase("alpha", t1 - t0)
        p_new, jacobians = self.chain.fk_jacobian_batch(q_new)
        if timed:
            t2 = time.perf_counter()
            tracer.add_phase("fk_sweep", t2 - t1)
        e_new = task_errors(t_c, p_new)
        if timed:
            tracer.add_phase("selection", time.perf_counter() - t2)
        return q_new, p_new, e_new, (jacobians, *state), 1
