"""Throughput engine: solve many IK problems in lock-step.

The paper's evaluation solves 1000 targets per configuration.  Solving them
one by one leaves numpy's vector units idle; this engine advances *all*
unconverged problems simultaneously — one batched update and one batched
FK per iteration — while computing exactly the same per-problem
trajectories (verified by tests).

Two engines share the loop in :class:`LockStepEngine`:

* :class:`BatchedQuickIK` — Quick-IK's speculative sweep: one batched
  Jacobian, the Eq. 9 candidate grid and one ``B x Max`` FK sweep per
  iteration.
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

**Active-set compaction.**  Problems converge at different iterations, so
the set of live rows shrinks as the batch drains.  With compaction (the
default), the engine keeps the survivors' state — configurations, positions,
targets, errors and the carried per-row blocks — in dense blocks maintained
across iterations: a retiring row is scattered back into the full result
arrays exactly once, at retirement, and every sweep touches only survivor
rows.  Without compaction the engine re-gathers the live rows from the full
arrays and scatters the results back *every* iteration — the historical
layout, kept selectable (``compaction=False`` /
``ExecutionOptions(compaction=False)``) as the A/B baseline.  Both layouts
feed bit-identical inputs to bit-identical numpy ops, so results are
bit-for-bit equal (the conformance tier in
``tests/conformance/test_compaction.py`` pins this at 12-75 DOF); the win
is the eliminated gather/scatter traffic on late, sparse iterations.

The loop mirrors the scalar driver (:meth:`~repro.core.base.
IterativeIKSolver.solve`): the same error helper, ``respect_limits``
clamping, the non-finite guard (a row exits ``"nonfinite"`` with its last
finite state), the 10k-iteration cap and, when ``record_history`` is set,
the same ``error_history``.  A config with a ``watchdog`` is not run here:
:func:`~repro.solvers.registry.make_batch_solver` keeps it on the
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

import numpy as np

from repro.core.alpha import FALLBACK_ALPHA
from repro.core.base import task_errors
from repro.core.result import BatchResult, IKResult, SolverConfig
from repro.telemetry.tracer import Tracer, get_tracer

__all__ = [
    "ActiveSet",
    "BatchedQuickIK",
    "BatchedRowSolver",
    "LockStepEngine",
]

#: FK rows evaluated per chunk on the scalar kernel.  Small enough that one
#: chunk's transform stack (``chunk x N`` 4x4 matrices) stays cache-resident
#: — larger chunks measurably slow the scalar sweep down on 50-100 DOF
#: chains.
DEFAULT_CHUNK = 128

#: FK rows per chunk on the vectorized kernel, whose log-depth tree product
#: *wants* all ``B x Max`` (problem, candidate) rows in one stacked call —
#: its per-call dispatch amortises with row count instead of thrashing.
VECTORIZED_CHUNK = 8192


class ActiveSet:
    """Index bookkeeping for the compacted lock-step working set.

    Tracks which full-array rows the dense survivor blocks correspond to,
    and implements the two primitives the loop needs:

    * :meth:`scatter` — write masked compact rows back into their
      full-size arrays (a row retires exactly once);
    * :meth:`compact` — drop retired rows from the index *and* from any
      number of dense blocks, keeping everything aligned.

    The gather/scatter round-trip invariant (maintained blocks == fancy
    indexing the full arrays every step) is property-tested in
    ``tests/property/test_compaction_properties.py``.
    """

    def __init__(self, indices: np.ndarray) -> None:
        self.indices = np.asarray(indices, dtype=np.intp)

    @property
    def size(self) -> int:
        """Number of live rows."""
        return int(self.indices.size)

    def gather(self, *fulls: np.ndarray) -> tuple[np.ndarray, ...]:
        """Dense copies of the live rows of each full array."""
        return tuple(full[self.indices] for full in fulls)

    def scatter(
        self,
        mask: np.ndarray,
        pairs: "tuple[tuple[np.ndarray, np.ndarray], ...]",
    ) -> None:
        """For each ``(block, full)`` pair, write ``block``'s masked rows
        into ``full`` at their home positions."""
        rows = self.indices[mask]
        for block, full in pairs:
            full[rows] = block[mask]

    def compact(
        self, keep: np.ndarray, *blocks: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Drop rows where ``keep`` is false; returns the filtered blocks."""
        self.indices = self.indices[keep]
        return tuple(block[keep] for block in blocks)


class LockStepEngine:
    """Shared scaffolding for the lock-step batch engines.

    Owns the pieces both engines repeat verbatim: target/``q0`` validation
    and broadcast, chunked batched FK, active-set tracking (compacted or
    gather/scatter-per-iteration) of the row blocks and of whatever per-row
    blocks an engine carries between iterations, the non-finite guard,
    error histories, tracer resolution, and assembling the per-problem
    :class:`IKResult` list into a :class:`BatchResult`.  Subclasses
    implement one lock-step iteration over a dense survivor block in
    :meth:`_advance_dense` (and, to carry blocks, :meth:`_start`) and set
    :attr:`name` / :attr:`speculations`.

    ``config.kernel`` may be a kernel-mode name or a full
    :class:`~repro.execution.KernelSpec`; a spec's dtype re-materialises the
    chain (e.g. to float32) and its chunk overrides the per-kernel default
    unless an explicit ``chunk`` argument is given.  All engine state
    (configurations, positions, errors, targets) is kept in the chain's
    dtype so a float32 sweep never round-trips through float64.
    """

    name = "lock-step"

    #: Candidate evaluations per problem per iteration.
    speculations = 1

    def __init__(
        self,
        chain,
        config: SolverConfig | None = None,
        chunk: int | None = None,
        compaction: bool | None = None,
    ) -> None:
        self.config = config or SolverConfig()
        spec = self.config.kernel_spec
        self.chain = spec.apply(chain) if spec is not None else chain
        if chunk is None and spec is not None:
            chunk = spec.chunk
        if chunk is None:
            chunk = (
                VECTORIZED_CHUNK
                if self.chain.kernel == "vectorized"
                else DEFAULT_CHUNK
            )
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = int(chunk)
        #: Active-set layout: ``None`` (auto) enables compaction.
        self.compaction = True if compaction is None else bool(compaction)
        # Joint limits for ``respect_limits``, in the engine dtype.
        self._lower = self.chain.lower_limits.astype(self.chain.dtype)
        self._upper = self.chain.upper_limits.astype(self.chain.dtype)

    def _fk_chunked(self, qs: np.ndarray) -> np.ndarray:
        if qs.shape[0] <= self.chunk:
            return self.chain.end_positions_batch(qs)
        parts = [
            self.chain.end_positions_batch(qs[i : i + self.chunk])
            for i in range(0, qs.shape[0], self.chunk)
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
        blocks the iterations carry (none by default)."""
        return self._fk_chunked(qs), ()

    def _advance_dense(
        self,
        q_c: np.ndarray,
        p_c: np.ndarray,
        t_c: np.ndarray,
        carry: tuple[np.ndarray, ...],
        tracer: Tracer,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...], int]:
        """One lock-step iteration over a dense block of survivor rows.

        ``q_c`` / ``p_c`` / ``t_c`` are the configurations, end positions
        and targets of the live rows (aligned, C-contiguous) and ``carry``
        the engine's carried blocks for the same rows.  Returns the new
        ``(q, position, error)`` blocks, the new carried blocks, and the FK
        evaluations charged to each row this iteration.
        """
        raise NotImplementedError

    def solve_batch(
        self,
        targets: np.ndarray,
        q0: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ) -> BatchResult:
        """Solve all ``targets`` in lock-step.

        ``q0`` may be a single configuration (shared) or one row per target;
        omitted, each problem gets its own random restart.  ``tracer``
        defaults to the process-global tracer.
        """
        start_time = time.perf_counter()
        dtype = self.chain.dtype
        targets = np.atleast_2d(np.asarray(targets, dtype=dtype))
        if targets.shape[1] != 3:
            raise ValueError("targets must have shape (M, 3)")
        m = targets.shape[0]
        qs = self._initial_configurations(m, q0, rng)

        tr = tracer if tracer is not None else get_tracer()
        traced = tr.enabled
        gauge = getattr(tr, "gauge", None) if traced else None
        tolerance = self.config.tolerance
        positions, carry_full = self._start(qs)
        errors = task_errors(targets, positions)
        iterations = np.zeros(m, dtype=int)
        fk_evaluations = np.ones(m, dtype=int)
        nonfinite = np.zeros(m, dtype=bool)
        # Error history as (rows, errors) pairs, one per iteration; a row
        # runs from iteration 0 to its last, so sorting by row (stably)
        # lines its entries up in iteration order.
        history = (
            [(np.arange(m), errors.copy())]
            if self.config.record_history
            else None
        )
        if traced:
            tr.solve_start(self.name, self.chain.dof, batch=m,
                           speculations=self.speculations,
                           kernel=self.chain.kernel,
                           dtype=dtype.name,
                           compaction=self.compaction)
            tr.count("fk_evaluations", m)

        active = ActiveSet(np.flatnonzero(errors >= tolerance))
        q_c, p_c, t_c, e_c, *carry = active.gather(
            qs, positions, targets, errors, *carry_full
        )

        outer = 0
        while active.size and outer < self.config.max_iterations:
            outer += 1
            if not self.compaction:
                # Historical layout: re-gather the survivors from the full
                # arrays every iteration (and scatter back below).  Kept as
                # the A/B baseline for the compaction conformance tier.
                q_c, p_c, t_c, e_c, *carry = active.gather(
                    qs, positions, targets, errors, *carry_full
                )
            q_prev, p_prev, e_prev = q_c, p_c, e_c
            q_c, p_c, e_c, carry, fk_per_problem = self._advance_dense(
                q_c, p_c, t_c, tuple(carry), tr
            )
            idx = active.indices
            n_active = idx.size
            iterations[idx] += 1
            fk_evaluations[idx] += fk_per_problem
            if history is not None:
                history.append((idx, e_c))
            if traced:
                tr.count("fk_evaluations", fk_per_problem * n_active)
                tr.count("jacobian_builds", n_active)
                tr.count("candidate_evaluations", self.speculations * n_active)
                tr.iteration(
                    outer,
                    float(e_c.max()),
                    active=int(n_active),
                    fk_evaluations=int(fk_per_problem * n_active),
                )
                if gauge is not None:
                    gauge("active_rows", int(n_active), iteration=outer)
                if self.compaction:
                    # Candidate rows the dense sweep did not have to touch
                    # (relative to this batch's naive B x Max grid).
                    tr.count(
                        "compaction_savings",
                        self.speculations * (m - int(n_active)),
                    )
            finite = np.isfinite(e_c)
            if not finite.all():
                # Mirror of the scalar driver's non-finite guard: a NaN row
                # would silently drop out of the comparison below, and a +inf
                # row would burn the whole iteration budget.  Such a row
                # exits typed with its last finite state.
                bad = ~finite
                nonfinite[idx[bad]] = True
                q_c = np.where(bad[:, None], q_prev, q_c)
                p_c = np.where(bad[:, None], p_prev, p_c)
                e_c = np.where(bad, e_prev, e_c)
                if traced:
                    tr.count("nonfinite_exits", int(bad.sum()))
            keep = finite & (e_c >= tolerance)
            if self.compaction:
                dead = ~keep
                if dead.any():
                    active.scatter(
                        dead, ((q_c, qs), (p_c, positions), (e_c, errors))
                    )
                    q_c, p_c, t_c, e_c, *carry = active.compact(
                        keep, q_c, p_c, t_c, e_c, *carry
                    )
                # else: no row retired — the blocks are already dense and
                # aligned, so the iteration carries zero gather/scatter cost.
            else:
                qs[idx] = q_c
                positions[idx] = p_c
                errors[idx] = e_c
                for block, full in zip(carry, carry_full):
                    full[idx] = block
                active.indices = idx[keep]
        if self.compaction and active.size:
            # Iteration budget exhausted with live rows: flush their state.
            active.scatter(
                np.ones(active.size, dtype=bool),
                ((q_c, qs), (p_c, positions), (e_c, errors)),
            )

        histories: list[np.ndarray] | None = None
        if history is not None:
            rows = np.concatenate([r for r, _ in history])
            values = np.concatenate([v for _, v in history]).astype(float)
            histories = np.split(
                values[np.argsort(rows, kind="stable")],
                np.cumsum(iterations + 1)[:-1],
            )
        elapsed = time.perf_counter() - start_time
        results = [
            IKResult(
                q=np.array(qs[i], dtype=float),
                converged=bool(errors[i] < tolerance),
                iterations=int(iterations[i]),
                error=float(errors[i]),
                target=np.array(targets[i], dtype=float),
                solver=self.name,
                dof=self.chain.dof,
                speculations=self.speculations,
                fk_evaluations=int(fk_evaluations[i]),
                wall_time=elapsed / m,
                error_history=(
                    histories[i] if histories is not None else np.empty(0)
                ),
                status=(
                    "converged"
                    if errors[i] < tolerance
                    else ("nonfinite" if nonfinite[i] else "max_iterations")
                ),
            )
            for i in range(m)
        ]
        batch = BatchResult(results=results, solver=self.name, wall_time=elapsed)
        if traced:
            tr.solve_end(
                self.name,
                converged=batch.converged_count == m,
                batch=m,
                converged_count=batch.converged_count,
                iterations=int(iterations.sum()),
                error=float(errors.max()) if m else 0.0,
                wall_time=elapsed,
            )
            summary = getattr(tr, "summary", None)
            if summary is not None:
                batch.telemetry = summary().to_dict()
        return batch


class BatchedQuickIK(LockStepEngine):
    """Lock-step Quick-IK over a batch of targets.

    Parameters mirror :class:`~repro.core.quick_ik.QuickIKSolver` (linear
    schedule only — the paper's Eq. 9).  ``chunk`` bounds the FK batch size;
    ``compaction`` selects the active-set layout (default on).
    """

    name = "JT-Speculation-batched"

    def __init__(
        self,
        chain,
        speculations: int = 64,
        config: SolverConfig | None = None,
        chunk: int | None = None,
        compaction: bool | None = None,
    ) -> None:
        super().__init__(chain, config=config, chunk=chunk, compaction=compaction)
        if speculations < 1:
            raise ValueError("speculations must be >= 1")
        self.speculations = int(speculations)
        # Eq. 9 schedule in the engine dtype: under NEP 50 a float64 ks
        # grid would silently upcast a float32 candidate sweep back to
        # float64 (and the chain would re-cast per FK call).
        self._ks = (
            np.arange(1, self.speculations + 1) / self.speculations
        ).astype(self.chain.dtype, copy=False)

    def _advance_dense(self, q_c, p_c, t_c, carry, tracer):
        timed = tracer.enabled
        if timed:
            t0 = time.perf_counter()
        dof = self.chain.dof
        e_vec = t_c - p_c

        jacobians = self.chain.jacobian_position_batch(q_c)  # (A,3,N)
        dq_base = np.einsum("akn,ak->an", jacobians, e_vec)  # J^T e
        jjte = np.einsum("akn,an->ak", jacobians, dq_base)  # J J^T e
        if timed:
            t1 = time.perf_counter()
            tracer.add_phase("jacobian", t1 - t0)
        denom = np.einsum("ak,ak->a", jjte, jjte)
        numer = np.einsum("ak,ak->a", e_vec, jjte)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_base = numer / denom
        bad = ~np.isfinite(alpha_base) | (alpha_base <= 0.0) | (denom <= 0.0)
        alpha_base = np.where(bad, FALLBACK_ALPHA, alpha_base)

        alphas = alpha_base[:, None] * self._ks[None, :]  # (A,Max)
        candidates = (
            q_c[:, None, :] + alphas[:, :, None] * dq_base[:, None, :]
        )  # (A,Max,N)
        if self.config.respect_limits:
            # As QuickIKSolver._step: clamp every candidate before the sweep.
            candidates = np.clip(candidates, self._lower, self._upper)
        if timed:
            t2 = time.perf_counter()
            tracer.add_phase("alpha", t2 - t1)
        flat = candidates.reshape(-1, dof)
        cand_positions = self._fk_chunked(flat).reshape(
            q_c.shape[0], self.speculations, 3
        )
        if timed:
            t3 = time.perf_counter()
            tracer.add_phase("fk_sweep", t3 - t2)
        cand_errors = np.linalg.norm(
            t_c[:, None, :] - cand_positions, axis=2
        )  # (A,Max)

        below = cand_errors < self.config.tolerance
        any_below = below.any(axis=1)
        first_hit = below.argmax(axis=1)
        argmin = cand_errors.argmin(axis=1)
        chosen = np.where(any_below, first_hit, argmin)

        rows = np.arange(q_c.shape[0])
        q_new = candidates[rows, chosen]
        p_new = cand_positions[rows, chosen]
        e_new = cand_errors[rows, chosen]
        if timed:
            tracer.add_phase("selection", time.perf_counter() - t3)
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

    def __init__(self, solver, compaction: bool | None = None) -> None:
        super().__init__(solver.chain, config=solver.config, compaction=compaction)
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
