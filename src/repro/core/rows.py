"""Row-batched linear algebra shared by the scalar driver and the engines.

Every helper takes stacks of rows (leading axes index problems) and gives
each row the same bits as the plain 1-D / 2-D numpy expression on that row
alone, whatever the number of rows.  The per-row products run as stacked
``matmul``, which numpy dispatches row by row to the same BLAS ``dot`` /
``gemv`` call that ``np.dot(e, e)`` or ``J.T @ e`` makes; reductions such
as ``np.linalg.norm(M, axis=1)`` or ``einsum`` sum in a different order
and disagree with the 1-D call in the last bit.

That is what lets a solver family's update exist once, as a row function
(:class:`~repro.core.base.RowUpdateSolver`) whose one-row case is the
scalar step and whose many-row case is a lock-step iteration.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_dot", "row_norm", "matvec", "rmatvec", "clamp_norm"]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``<a_i, b_i>`` for each row; ``(..., K) x (..., K) -> (...)``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; equals ``np.linalg.norm(v_i)``."""
    return np.sqrt(row_dot(v, v))


def rmatvec(jacobians: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``J_i^T e_i`` for each row; ``(..., 3, N) x (..., 3) -> (..., N)``."""
    return (e[..., None, :] @ jacobians)[..., 0, :]


def matvec(matrices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M_i x_i`` for each row; ``(..., R, C) x (..., C) -> (..., R)``."""
    return (matrices @ x[..., :, None])[..., 0]


def clamp_norm(
    vectors: np.ndarray, bound: float | None, norms: np.ndarray | None = None
) -> np.ndarray:
    """Rescale every row longer than ``bound`` to length ``bound``.

    ``bound=None`` returns ``vectors`` unchanged; ``norms`` may pass the
    rows' precomputed :func:`row_norm`.  Rows within the bound (and
    non-finite rows) keep their exact values.
    """
    if bound is None:
        return vectors
    if norms is None:
        norms = row_norm(vectors)
    scale = np.ones_like(norms)
    np.divide(bound, norms, out=scale, where=norms > bound)
    return vectors * scale[..., None]
