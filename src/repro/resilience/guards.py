"""Input guards: reject hopeless targets at the API boundary.

Before this layer, a single ``NaN`` target crashed (or silently poisoned)
whatever solver it reached — often deep inside a pool worker where the
traceback names an einsum, not the bad input.  The guards classify targets
*before* any solve:

* ``nonfinite_target`` / ``bad_shape`` — **fatal**: the solve is
  mathematically meaningless.  ``on_error="raise"`` raises a structured
  :class:`GuardViolation` at the boundary; ``skip``/``fallback`` turn the
  problem into a placeholder result plus a
  :class:`~repro.resilience.report.FailureRecord`.
* ``unreachable`` — **advisory**: the target lies beyond the chain's
  conservative reach bound (:meth:`KinematicChain.total_reach`), so no solver
  can converge and the paper's 10k-iteration budget would burn for nothing.
  ``raise`` mode only flags it (the historical hit-the-cap behaviour is load
  bearing for benchmarks); ``skip``/``fallback`` reject it up front.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.resilience.report import STAGE_GUARD, FailureRecord, FailureReport

__all__ = [
    "GuardViolation",
    "FATAL_GUARD_KINDS",
    "KIND_NONFINITE_TARGET",
    "KIND_BAD_SHAPE",
    "KIND_UNREACHABLE",
    "guard_target",
    "guard_targets",
    "reach_bound",
    "reach_sphere",
]

KIND_NONFINITE_TARGET = "nonfinite_target"
KIND_BAD_SHAPE = "bad_shape"
KIND_UNREACHABLE = "unreachable"

#: Guard kinds that invalidate a solve outright (vs the advisory
#: ``unreachable`` flag).
FATAL_GUARD_KINDS = frozenset({KIND_NONFINITE_TARGET, KIND_BAD_SHAPE})

#: Absolute slack added to the reach bound (metres) — keeps boundary targets
#: produced by FK round-trips on the reachable side.
_REACH_SLACK = 1e-9


class GuardViolation(ValueError):
    """Structured rejection of one or more targets at the API boundary.

    Subclasses ``ValueError`` so pre-existing ``except ValueError`` call
    sites keep working; carries the full :class:`FailureReport` so callers
    can account for every offending problem.
    """

    def __init__(self, report: FailureReport) -> None:
        self.report = report
        super().__init__(f"rejected target(s): {report.describe()}")


def reach_bound(chain, margin: float = 0.0) -> float:
    """The rejection radius: ``total_reach`` plus a relative ``margin``."""
    return float(chain.total_reach()) * (1.0 + margin) + _REACH_SLACK


def reach_sphere(chain, margin: float = 0.0) -> tuple[np.ndarray, float]:
    """The base origin and :func:`reach_bound`: a target passes inside.

    Both are constants of the chain, so a caller guarding many batches of
    one chain computes them once and hands them to :func:`guard_targets`.
    """
    return np.asarray(chain.base[:3, 3], dtype=float), reach_bound(chain, margin)


def guard_target(
    chain, target, index: int = -1, reach_margin: float = 0.0
) -> FailureRecord | None:
    """Classify one target; ``None`` when it passes every check.

    A 3-vector gets :func:`guard_targets`' checks, as a batch of one row.
    """
    arr = np.asarray(target, dtype=float)
    if arr.shape != (3,):
        return FailureRecord(
            index=index,
            stage=STAGE_GUARD,
            kind=KIND_BAD_SHAPE,
            message=f"target must be a 3-vector, got shape {arr.shape}",
        )
    records = guard_targets(chain, arr[None], reach_margin)
    return replace(records[0], index=index) if records else None


def guard_targets(
    chain,
    targets: np.ndarray,
    reach_margin: float = 0.0,
    sphere: tuple[np.ndarray, float] | None = None,
) -> list[FailureRecord]:
    """Classify a ``(M, 3)`` batch; one record per offending row.

    The batch-level shape contract (``(M, 3)``) is still enforced by the
    callers' existing ``ValueError`` — this vectorised pass only classifies
    rows of an already well-shaped batch.  ``sphere`` is
    :func:`reach_sphere` of ``chain`` and ``reach_margin``, precomputed;
    without it the call computes it.  A batch that passes every check
    costs one radius check.
    """
    targets = np.asarray(targets, dtype=float)
    base_origin, bound = (
        sphere if sphere is not None else reach_sphere(chain, reach_margin)
    )
    offsets = targets - base_origin
    radii = np.sqrt((offsets * offsets).sum(axis=1))  # np.linalg.norm's sum
    # A non-finite coordinate makes its radius NaN or inf, which fails the
    # radius check too: a batch that passes it passes every check.
    if (radii <= bound).all():
        return []
    finite = np.all(np.isfinite(targets), axis=1)
    records: list[FailureRecord] = []
    for i in np.flatnonzero(~finite):
        records.append(
            FailureRecord(
                index=int(i),
                stage=STAGE_GUARD,
                kind=KIND_NONFINITE_TARGET,
                message=f"target contains non-finite values: {targets[i].tolist()}",
            )
        )
    with np.errstate(invalid="ignore"):
        far = finite & (radii > bound)
    for i in np.flatnonzero(far):
        records.append(
            FailureRecord(
                index=int(i),
                stage=STAGE_GUARD,
                kind=KIND_UNREACHABLE,
                message=(
                    f"target radius {radii[i]:.4g} m exceeds the chain's "
                    f"reach bound {bound:.4g} m"
                ),
            )
        )
    records.sort(key=lambda r: r.index)
    return records
