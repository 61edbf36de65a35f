"""Step-size (alpha) selection for Jacobian-transpose IK.

Two pieces live here:

* :func:`buss_alpha` — the near-optimal base step size of Eq. (8),
  ``alpha = <e, JJ^T e> / <JJ^T e, JJ^T e>``, which minimises the *linearised*
  error after the step ``dtheta = alpha J^T e``.
* Speculation schedules — the rules that expand ``alpha_base`` into the
  candidate set Quick-IK searches in parallel.  The paper's schedule is the
  linear one of Eq. (9), ``alpha_k = (k / Max) alpha_base``; the others are
  ablations of the design choice (DESIGN.md section 4).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.rows import row_dot

__all__ = [
    "buss_alpha",
    "buss_alpha_rows",
    "linear_schedule",
    "geometric_schedule",
    "extended_schedule",
    "single_schedule",
    "get_schedule",
    "SCHEDULE_NAMES",
    "FALLBACK_ALPHA",
]

#: Step size used when Eq. (8) degenerates (singular pose, ``JJ^T e = 0``).
FALLBACK_ALPHA = 1e-3


def buss_alpha_rows(error: np.ndarray, jjte: np.ndarray) -> np.ndarray:
    """Near-optimal Jacobian-transpose step size (Eq. 8), one per row.

    Parameters
    ----------
    error:
        Task-space errors ``e = X_t - f(theta)``, shape ``(..., 3)``.
    jjte:
        The vectors ``J J^T e`` (the task-space motion produced by a unit
        ``J^T e`` step, to first order), same shape.

    Returns
    -------
    numpy.ndarray
        ``<e, JJ^T e> / <JJ^T e, JJ^T e>`` per row, or
        :data:`FALLBACK_ALPHA` where the denominator vanishes or the value
        is non-positive/non-finite (which happens exactly at poses where
        ``e`` lies in the null space of ``J^T`` — the degenerate case the
        paper's random restarts avoid).
    """
    # The dots run in the inputs' dtype, the ratio in float64.
    denominator = np.asarray(row_dot(jjte, jjte), dtype=float)
    numerator = np.asarray(row_dot(error, jjte), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = numerator / denominator
    bad = (denominator <= 0.0) | ~np.isfinite(alpha) | (alpha <= 0.0)
    return np.where(bad, FALLBACK_ALPHA, alpha)


def buss_alpha(error: np.ndarray, jjte: np.ndarray) -> float:
    """:func:`buss_alpha_rows` for a single task-space error ``e``."""
    return float(
        buss_alpha_rows(np.asarray(error)[None], np.asarray(jjte)[None])[0]
    )


# ----------------------------------------------------------------------
# Speculation schedules
# ----------------------------------------------------------------------

ScheduleFn = Callable[[float, int], np.ndarray]


def linear_schedule(alpha_base: float, count: int) -> np.ndarray:
    """The paper's schedule (Eq. 9): ``alpha_k = (k / Max) alpha_base``.

    ``k`` runs from 1 to ``Max``, so the largest candidate is exactly
    ``alpha_base`` (k = Max reproduces the plain Buss step) and the smallest
    is ``alpha_base / Max``.
    """
    if count < 1:
        raise ValueError("speculation count must be >= 1")
    ks = np.arange(1, count + 1, dtype=float)
    return (ks / count) * alpha_base


def geometric_schedule(
    alpha_base: float, count: int, ratio: float = 0.75
) -> np.ndarray:
    """Ablation: geometrically spaced candidates ``alpha_base * ratio^(Max-k)``.

    Packs more candidates near ``alpha_base`` and still reaches very small
    steps; the largest candidate is again exactly ``alpha_base``.
    """
    if count < 1:
        raise ValueError("speculation count must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    exponents = np.arange(count - 1, -1, -1, dtype=float)
    return alpha_base * ratio**exponents


def extended_schedule(alpha_base: float, count: int) -> np.ndarray:
    """Ablation: linear schedule over ``(0, 2 alpha_base]``.

    Tests the paper's claim that speculating *beyond* ``alpha_base`` is not
    worthwhile (Section 4, "there is no speculative value larger than
    alpha_base").
    """
    if count < 1:
        raise ValueError("speculation count must be >= 1")
    ks = np.arange(1, count + 1, dtype=float)
    return (2.0 * ks / count) * alpha_base


def single_schedule(alpha_base: float, count: int) -> np.ndarray:
    """Degenerate schedule: only ``alpha_base`` (JT-Serial inside the Quick-IK
    machinery; used to sanity-check that Max = 1 recovers the baseline)."""
    del count
    return np.array([alpha_base])


_SCHEDULES: dict[str, ScheduleFn] = {
    "linear": linear_schedule,
    "geometric": geometric_schedule,
    "extended": extended_schedule,
    "single": single_schedule,
}

#: Names accepted by :func:`get_schedule`.
SCHEDULE_NAMES = tuple(sorted(_SCHEDULES))


def get_schedule(name: str) -> ScheduleFn:
    """Look up a speculation schedule by name."""
    try:
        return _SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; known: {', '.join(SCHEDULE_NAMES)}"
        ) from None
