"""FK/Jacobian kernel layer: the scalar oracle and the vectorized fast path.

The paper's SPU fuses the per-joint transform/Jacobian loops
(``i-1TiC -> 1TiC -> JiC -> JJTEC``, Fig. 3) and its SSU array evaluates all
``Max`` speculative candidates in parallel.  This module is the software
analogue: every :class:`~repro.kinematics.chain.KinematicChain` owns a
*kernel* object that implements its FK/Jacobian computations, selected by
``kernel={"scalar", "vectorized"}``.

* :class:`ScalarKernels` is the original link-by-link implementation, kept
  bit-for-bit unchanged as the differential oracle (the conformance tier in
  ``tests/conformance/test_kernel_conformance.py`` holds the fast path to it
  at 1e-12).
* :class:`VectorizedKernels` replaces the per-joint Python loops with
  calls that each cover every row of a batch:

  - **The speculative sweep is a tool-point fold.**  Quick-IK needs only
    the end *position* of each of its ``B x Max`` candidates (Algorithm 1
    line 10), so :meth:`~VectorizedKernels.end_positions_batch` never
    builds a transform.  It carries the tool point from the tool to the
    base, one link at a time, in structure-of-arrays layout: the point is
    two complex ``(R,)`` rows, ``w = x + iy`` and ``v = y + iz``, the
    joint angles arrive as an ``(N, R)`` block ``e^{i theta}`` computed
    once, and each link applies its static factor ``Tx(a) Rx(alpha)`` and
    its screw ``Tz(d)`` then ``Rz(theta)`` in the order its DH convention
    multiplies them: each rotation is one complex multiply (``v
    e^{i alpha}``, ``w e^{i theta}``), each shift one complex add, and the
    rotated ``y`` is copied into the other row — 6 calls per link, where
    the frame pass builds a local rotation *and* pays a product for it.
    The fold's fixed cost is paid per joint, not per row: it beats the
    frame pass's poses from a few dozen rows up and loses below that
    (``docs/performance.md`` has the table).  **The bit rule:** complex
    multiplies run only out of place, on contiguous rows or by a 0-d
    constant, and only complex adds and copies run in place — one IEEE
    add per component or a move, exact elementwise.  numpy rounds a
    complex multiply the same way at any row count and offset under that
    rule (not in place on a strided view, and not a 2-D ``(R, 3) @ (3,
    3)`` matmul: both rounded a row differently depending on how many
    rows shared the call on an AVX-512 x86 host).  So every row carries
    the same bits alone as in any batch, at any offset.
  - **Quick-IK's candidates are swept as rays.**  Under Eq. 9 a problem's
    ``Max`` candidates lie on one ray, ``theta + (k / Max) alpha_base
    dtheta``, and Quick-IK hands them over as a :class:`SpeculationGrid`.
    On a float64 chain the ``cos`` / ``sin`` planes then come from two
    angles per problem and joint and a recurrence along the ray,
    ``e^{i theta_k} = e^{i theta} w^k`` (:meth:`~VectorizedKernels.
    _ray_planes`), instead of ``B x Max x N`` trigonometric calls, and
    the fold takes that block as it is.  Its complex multiplies run out
    of place on contiguous runs of one problem's candidates, so a
    problem's rows carry the same bits alone as in any grid.  The scalar
    oracle and float32 chains materialise the grid's candidates.
  - **The frame pass composes rotations and sums offsets.**  FK poses
    and Jacobians come from :meth:`~VectorizedKernels._frames`, which
    keeps every frame's world rotation apart from its origin.  A joint's
    local rotation, ``Rz(theta) Rx(alpha)`` (standard) or ``Rx(alpha)
    Rz(theta)`` (modified), is written entry by entry into a joint-major
    ``(N + 1, R, 3, 3)`` block from the ``(N, R)`` planes ``cos theta``
    and ``sin theta`` (two trigonometric calls for the whole batch) and
    the ``(N, 1)`` columns ``cos alpha`` and ``sin alpha``; the base is
    folded into the first joint's entry.  :func:`_rotation_prefix_scan`
    multiplies the rotations in Brent-Kung order: about ``2 N`` ``3 x 3``
    products in ``2 log2 N`` stacked matmuls, with no translation to
    carry.  The origins are one cumulative sum: frame ``k`` sits ``a_k
    x_k + d_k z_{k-1}`` (standard) or ``a_k x_{k-1} + d_k z_k``
    (modified) past frame ``k - 1``, with ``x`` and ``z`` the first and
    third columns of a world rotation, so the increments are formed in
    bulk and summed by one ``np.cumsum`` along the joints.  The tool point
    is ``o_N + R_N t_tool`` and the pose ``[R_N R_tool | p_ee]``.
  - **One FK pass per iteration is shared.**  The world frames of every
    joint yield both the end position and the Jacobian — the software
    analogue of the SPU pipeline reusing ``1TiC`` for both ``JiC`` and the
    end-effector pose.  A batch gets both from one
    :meth:`~VectorizedKernels.screw_frames_batch` pass; a single
    configuration caches its rotations and origins, so a scalar solve's
    ``end_position`` / ``fk`` of the same ``q`` reuses the Jacobian's
    pass.
  - **A frame-pass row does not depend on its batch.**  The pass uses
    only stacked matmuls (each ``3 x 3`` product is its own BLAS call of
    one shape), real elementwise multiplies and adds, a cumulative sum
    (sequential along the joints) and a per-row matrix-vector product, in
    an order that depends on ``N`` alone.  It makes no complex multiply,
    so the fold's bit rule does not apply: a row carries the same bits
    alone as in any batch and at any offset, ``fk_batch`` rows equal
    ``fk``, and the lock-step engines' ``B = 1 == B = M`` contracts hold
    by construction.

**Cache contract.**  A kernel snapshots its chain's joint parameters at
construction.  Chains are API-immutable, so the snapshot normally lives for
the kernel's lifetime; the per-``q`` prefix cache is additionally guarded by
a fingerprint of the parameter arrays, so in-place mutation of the
underlying buffers (white-box tests, future mutable-chain extensions) is
detected on the cached path and drops the stale entry.  Call
:meth:`VectorizedKernels.refresh` after any deliberate parameter change to
re-snapshot the statics eagerly; :meth:`~VectorizedKernels.invalidate`
clears the prefix cache alone.

See ``docs/performance.md`` for measured speedups and the benchmark
protocol (``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.kinematics.chain import KinematicChain

__all__ = [
    "KERNEL_MODES",
    "DEFAULT_KERNEL",
    "resolve_kernel_mode",
    "make_kernels",
    "ScalarKernels",
    "SpeculationGrid",
    "VectorizedKernels",
    "position_jacobian",
]

#: Valid kernel modes.
KERNEL_MODES = ("scalar", "vectorized")

#: The seed behaviour: link-by-link loops, bit-identical to every release
#: before the kernel layer existed.
DEFAULT_KERNEL = "scalar"


def resolve_kernel_mode(mode: str | None) -> str:
    """Validate a kernel mode name (``None`` means the default)."""
    if mode is None:
        return DEFAULT_KERNEL
    if mode not in KERNEL_MODES:
        known = ", ".join(KERNEL_MODES)
        raise ValueError(f"unknown kernel mode {mode!r}; known modes: {known}")
    return mode


def make_kernels(chain: "KinematicChain", mode: str | None = None):
    """Build the kernel object for ``chain`` in the given mode."""
    mode = resolve_kernel_mode(mode)
    if mode == "vectorized":
        return VectorizedKernels(chain)
    return ScalarKernels(chain)


class SpeculationGrid:
    """Quick-IK's Eq. 9 candidates, one ray per problem.

    Problem ``b`` contributes the ``count`` configurations ``q[b] +
    alphas[b, k] direction[b]`` with ``alphas[b, k] = alpha_base[b] (k + 1)
    / count``; row ``b * count + k`` of :meth:`candidates` is that
    candidate, so ``len(grid)`` is ``B * count``, the rows of the explicit
    candidate block in the same problem-major order.  ``end_positions_batch``
    accepts a grid wherever it accepts that block.  On a float64 chain the
    vectorized kernel then takes ``cos`` / ``sin`` of two angles per
    problem and joint and steps along the ray; the scalar kernel and
    float32 chains materialise the block.
    """

    __slots__ = ("q", "direction", "alpha_base", "count", "alphas")

    def __init__(
        self,
        q: np.ndarray,
        direction: np.ndarray,
        alpha_base: np.ndarray,
        count: int,
    ) -> None:
        self.q = q  # (B, N)
        self.direction = direction  # (B, N)
        self.alpha_base = alpha_base  # (B,)
        self.count = int(count)
        fractions = np.arange(1, self.count + 1) / self.count
        # In alpha_base's dtype: a float64 grid would upcast a float32 one.
        self.alphas = alpha_base[:, None] * fractions.astype(
            alpha_base.dtype, copy=False
        )

    @property
    def problems(self) -> int:
        """Number of rays ``B``."""
        return self.q.shape[0]

    def __len__(self) -> int:
        return self.problems * self.count

    def __getitem__(self, problems: slice) -> "SpeculationGrid":
        """The grid of a slice of whole problems."""
        return SpeculationGrid(
            self.q[problems], self.direction[problems],
            self.alpha_base[problems], self.count,
        )

    def candidates(self, joints=slice(None)) -> np.ndarray:
        """The candidate rows ``(B * count, N)`` (only the ``joints``
        columns when given), with the explicit block's bits."""
        block = (
            self.q[:, None, joints]
            + self.alphas[:, :, None] * self.direction[:, None, joints]
        )
        return block.reshape(len(self), block.shape[-1])

    def rows(self, chosen: np.ndarray) -> np.ndarray:
        """Candidate ``chosen[b]`` of each problem ``b``, ``(B, N)``: the
        bits of the matching row of :meth:`candidates`."""
        alphas = self.alphas[np.arange(self.problems), chosen]
        return self.q + alphas[:, None] * self.direction


# ----------------------------------------------------------------------
# Frame-pass building blocks (pure functions, unit-tested directly)
# ----------------------------------------------------------------------


def _rotation_prefix_scan(rotations: np.ndarray) -> None:
    """Inclusive scan, in place, over ``(N, ..., 3, 3)`` rotations along
    axis 0: entry ``i`` becomes ``rotations[0] @ ... @ rotations[i]``.

    Brent-Kung order: an up-sweep leaves the product of every aligned run
    of ``2d`` joints in its last entry, then a down-sweep fills in the
    prefixes between them — about ``2 N`` products in ``2 log2 N``
    stacked matmuls, where the Hillis-Steele doubling scan needs about
    ``N log2 N``.  Each ``3 x 3`` product is its own matmul of one shape,
    in an order that depends on ``N`` alone, so a row's rotations do not
    depend on how many rows share its batch.
    """
    n = rotations.shape[0]

    def compose(d: int, first: int) -> None:
        # rotations[i] = rotations[i - d] @ rotations[i], i = first, first + 2d, ...
        if first < n:
            rotations[first::2 * d] = (
                rotations[first - d:n - d:2 * d] @ rotations[first::2 * d]
            )

    d = 1
    while 2 * d <= n:
        compose(d, 2 * d - 1)
        d *= 2
    while d > 1:
        d //= 2
        compose(d, 3 * d - 1)


def position_jacobian(
    axes: np.ndarray,
    origins: np.ndarray,
    p_ee: np.ndarray,
    revolute: np.ndarray,
) -> np.ndarray:
    """Position Jacobians ``(..., 3, N)`` from one frame pass (Buss [11]).

    ``axes`` / ``origins`` are the world screw axes and origins
    ``(..., N, 3)`` and ``p_ee`` the tool points ``(..., 3)``: a revolute
    column is ``z x (p_ee - o)``, a prismatic one ``z``.  Elementwise, so a
    batch row equals the same configuration's single Jacobian bit for bit.
    """
    a0, a1, a2 = axes[..., 0], axes[..., 1], axes[..., 2]
    reach = p_ee[..., None, :] - origins
    r0, r1, r2 = reach[..., 0], reach[..., 1], reach[..., 2]
    # The transpose of a ``(..., N, 3)`` block: the memory layout every
    # consumer's matmuls have always read, so their sums keep their bits.
    out = np.swapaxes(np.empty(reach.shape, np.result_type(axes, reach)), -1, -2)
    spare = np.empty_like(r0)
    # ``np.cross``'s own products and differences, each written straight
    # into its row of the output (this runs once per lock-step iteration).
    for row, (u, v, w, x) in enumerate((
        (a1, r2, a2, r1), (a2, r0, a0, r2), (a0, r1, a1, r0)
    )):
        np.multiply(u, v, out=out[..., row, :])
        np.multiply(w, x, out=spare)
        np.subtract(out[..., row, :], spare, out=out[..., row, :])
    prismatic = np.flatnonzero(~revolute)
    if prismatic.size:
        out[..., prismatic] = np.swapaxes(axes[..., prismatic, :], -1, -2)
    return out


# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------


class ScalarKernels:
    """The original link-by-link FK/Jacobian loops (the differential oracle).

    Every method body is the pre-kernel-layer implementation, moved here
    so the chain can dispatch between implementations without duplicating
    them; a single configuration's screw frames are the one-row case of the
    batch pass, which multiplies each row exactly as alone.  Nothing here
    may change observable floating-point behaviour: the conformance and
    parallel tiers pin several results bit-for-bit across releases.
    """

    mode = "scalar"

    def __init__(self, chain: "KinematicChain") -> None:
        self.chain = chain

    # -- forward kinematics --------------------------------------------

    def fk(self, q: np.ndarray) -> np.ndarray:
        chain = self.chain
        locals_ = chain.local_transforms(q)
        pose = chain.base
        for i in range(chain.dof):
            pose = pose @ locals_[i]
        return pose @ chain.tool

    def end_position(self, q: np.ndarray) -> np.ndarray:
        return self.fk(q)[:3, 3]

    def fk_batch(self, qs: np.ndarray) -> np.ndarray:
        chain = self.chain
        locals_ = chain.local_transforms_batch(qs)
        pose = np.broadcast_to(chain.base, (locals_.shape[0], 4, 4))
        pose = pose @ locals_[:, 0]
        for i in range(1, chain.dof):
            pose = pose @ locals_[:, i]
        return pose @ chain.tool

    def end_positions_batch(self, qs) -> np.ndarray:
        if isinstance(qs, SpeculationGrid):
            qs = qs.candidates().astype(self.chain.dtype, copy=False)
        return self.fk_batch(qs)[:, :3, 3]

    # -- Jacobians ------------------------------------------------------

    def screw_frames(
        self, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        axes, origins, p_ee = self.screw_frames_batch(q[None, :])
        return axes[0], origins[0], p_ee[0]

    def screw_frames_batch(
        self, qs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One prefix-frame pass: ``(axes, origins, p_ee)`` per row.

        Each row multiplies exactly like :meth:`fk` of that configuration,
        so ``p_ee`` equals :meth:`end_position` bit for bit.
        """
        chain = self.chain
        locals_ = chain.local_transforms_batch(qs)
        batch = locals_.shape[0]
        frames = np.empty((batch, chain.dof + 1, 4, 4), dtype=chain.dtype)
        frames[:, 0] = chain.base
        for i in range(chain.dof):
            frames[:, i + 1] = frames[:, i] @ locals_[:, i]
        p_ee = (frames[:, chain.dof] @ chain.tool)[:, :3, 3]
        if chain.is_standard_convention:
            screw = frames[:, : chain.dof]
        else:
            screw = frames[:, : chain.dof] @ chain._const[None]
        return screw[:, :, :3, 2], screw[:, :, :3, 3], p_ee

    def invalidate(self) -> None:
        """No cached state on the scalar path."""

    def refresh(self) -> None:
        """No precomputed statics on the scalar path."""


# ----------------------------------------------------------------------
# Vectorized fast path
# ----------------------------------------------------------------------


class VectorizedKernels:
    """Stacked-matmul FK/Jacobian kernels with a per-configuration frame cache.

    See the module docstring for the construction; the public surface is
    identical to :class:`ScalarKernels` so the chain can dispatch blindly.
    """

    mode = "vectorized"

    def __init__(self, chain: "KinematicChain") -> None:
        self.chain = chain
        self._snapshot_statics()
        #: ``(q.tobytes(), (rotations, origins))`` of the last single
        #: configuration, written and read as one tuple so a thread sharing
        #: this kernel never pairs one configuration's key with another's
        #: frames.
        self._cache: tuple[bytes, tuple[np.ndarray, np.ndarray]] | None = None

    # -- static precomputation -----------------------------------------

    def _snapshot_statics(self) -> None:
        """Precompute every joint-variable-independent factor once.

        Every link's constant factor ``C`` is ``[[1, 0, 0, a], [0, cos
        alpha, -sin alpha, 0], [0, sin alpha, cos alpha, 0]]`` in both
        conventions, so the frame pass keeps ``cos alpha``, ``sin alpha``
        (and their negatives) as ``(N, 1)`` columns that broadcast over the
        rows, each local rotation's fixed row (standard) or column
        (modified) as ``(N, 1, 3)``, and ``a``.
        """
        chain = self.chain
        self._fingerprint = self._chain_fingerprint()
        dtype = chain.dtype
        const = chain._const  # (N, 4, 4)
        self._rev = chain._revolute_mask.astype(dtype)
        self._theta_offset = chain._theta_offset.copy()
        self._d_offset = chain._d_offset.copy()
        # theta = theta_offset + q (revolute), d = d_offset + q (prismatic).
        self._variable = np.stack((self._rev, 1.0 - self._rev))[..., None]
        self._offsets = np.stack((self._theta_offset, self._d_offset))[..., None]
        cos_alpha, sin_alpha = const[:, 1, 1:2].copy(), const[:, 2, 1:2].copy()
        zero = np.zeros_like(cos_alpha)
        if chain.is_standard_convention:
            self._alpha_terms = (-cos_alpha, sin_alpha, cos_alpha, -sin_alpha)
            fixed = (zero, sin_alpha, cos_alpha)
        else:
            self._alpha_terms = (cos_alpha, sin_alpha)
            fixed = (zero, -sin_alpha, cos_alpha)
        self._fixed = np.stack(fixed, axis=-1)  # (N, 1, 3)
        self._a = const[:, 0, 3, None, None].copy()  # (N, 1, 1)
        self._base_rotation = chain.base[:3, :3].copy()
        self._base_origin = chain.base[:3, 3].copy()
        self._tool_rotation = chain.tool[:3, :3].copy()
        self._tool_t = chain.tool[:3, 3].copy()
        self._snapshot_fold()

    def _snapshot_fold(self) -> None:
        """Statics of the tool-point fold (:meth:`end_positions_batch`).

        Both conventions share the static factor ``C = Tx(a) Rx(alpha)``
        (the two commute).  Per link, tool side first (the order the fold
        visits them): the joint index, ``e^{i alpha}``, ``a + 0i`` and
        ``i d`` as 0-d arrays of the chain's complex dtype, and whether
        the joint is prismatic.  A constant that is zero is ``None``, and
        so is ``d`` on a prismatic joint, whose ``d`` varies per row.
        """
        chain = self.chain
        cdtype = np.result_type(chain.dtype, np.complex64)
        const = chain._const

        def constant(value):
            return np.array(value, cdtype) if value else None

        links = []
        for i in reversed(range(chain.dof)):
            revolute = bool(chain._revolute_mask[i])
            links.append((
                i,
                np.array(complex(const[i, 1, 1], const[i, 2, 1]), cdtype),
                constant(float(const[i, 0, 3])),
                constant(1j * float(self._d_offset[i])) if revolute else None,
                not revolute,
            ))
        self._fold_links = tuple(links)
        self._fold_cdtype = cdtype
        self._prismatic = np.flatnonzero(~chain._revolute_mask)
        x, y, z = (float(v) for v in chain.tool[:3, 3])
        self._fold_tool = (complex(x, y), complex(y, z))  # w, v
        # Base columns, each ``(3, 1)``: world = sum_k base[:, k] * p_k.
        self._fold_base = tuple(
            np.ascontiguousarray(chain.base[:3, k:k + 1]) for k in range(4)
        )

    def _chain_fingerprint(self) -> bytes:
        """Digest of every parameter array a kernel result depends on."""
        chain = self.chain
        h = hashlib.sha1()
        h.update(chain.convention.encode())
        h.update(str(chain.dtype).encode())
        for arr in (
            chain._theta_offset,
            chain._d_offset,
            chain._revolute_mask,
            chain._const,
            chain.base,
            chain.tool,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.digest()

    # -- cache management ----------------------------------------------

    def invalidate(self) -> None:
        """Drop the per-configuration frame cache."""
        self._cache = None

    def refresh(self) -> None:
        """Re-snapshot the static factors after a chain parameter change."""
        self._snapshot_statics()
        self.invalidate()

    def _cached_frames(self, q: np.ndarray):
        """The ``(rotations, origins)`` for ``q`` if cached and still valid."""
        cache = self._cache
        if cache is None or q.tobytes() != cache[0]:
            return None
        if self._chain_fingerprint() != self._fingerprint:
            # Parameter arrays were mutated under us: the snapshot and the
            # cache are both stale.
            self.refresh()
            return None
        return cache[1]

    # -- forward kinematics --------------------------------------------

    def fk(self, q: np.ndarray) -> np.ndarray:
        return self._poses(*self._prefix_frames(q))[0]

    def end_position(self, q: np.ndarray) -> np.ndarray:
        return self._end_points(*self._prefix_frames(q))[0]

    def fk_batch(self, qs: np.ndarray) -> np.ndarray:
        return self._poses(*self._frames(qs))

    def end_positions_batch(self, qs) -> np.ndarray:
        """All candidate positions by one right-to-left tool-point fold.

        This is the speculative-sweep hot path: Quick-IK calls it with its
        ``Max`` candidates and the lock-step engine with all ``B x Max``
        (problem, candidate) rows at once, either as an explicit ``(R, N)``
        block or as a :class:`SpeculationGrid`.  The ``e^{i theta}`` block
        comes from :meth:`_planes` or, for a float64 grid, from
        :meth:`_ray_planes`; the fold that follows is the same for both.
        A float32 chain materialises a grid: its ``cos`` / ``sin`` cost
        about what the recurrence does, whose steps would have to run in
        float64 to hold the float32 tier's bound.
        """
        dtype = self.chain.dtype
        if isinstance(qs, SpeculationGrid):
            if dtype == np.float64:
                return self._fold(*self._ray_planes(qs))
            qs = qs.candidates().astype(dtype, copy=False)
        return self._fold(*self._planes(qs))

    def _planes(self, qs: np.ndarray):
        """The ``(N, R)`` block ``e^{i theta}`` of explicit rows, in the
        chain's complex dtype, and each joint's variable row (the fold
        reads those of prismatic joints)."""
        n, rows = self.chain.dof, qs.shape[0]
        qt = qs.T
        # One allocation holds the block and the angles, for the reason
        # _ray_planes gives.  Each row of the block is a contiguous (R,)
        # vector.
        buffer = np.empty(3 * n * rows, self.chain.dtype)
        block = buffer[: 2 * n * rows].view(self._fold_cdtype).reshape(n, rows)
        theta = buffer[2 * n * rows:].reshape(n, rows)
        # theta = theta_offset + q (revolute).
        np.multiply(qt, self._rev[:, None], out=theta)
        theta += self._theta_offset[:, None]
        np.cos(theta, out=block.real)
        np.sin(theta, out=block.imag)
        return block, qt

    def _ray_planes(self, grid: SpeculationGrid):
        """The ``e^{i theta}`` block of a float64 grid by stepping along
        each problem's ray.

        Candidate ``k`` of a problem turns revolute joint ``j`` to
        ``theta_j + (k + 1) delta_j``, where ``theta`` is the ray origin's
        joint angle and ``delta = alphas[:, 0] direction`` one step, so
        ``e^{i theta_k} = e^{i theta} w^(k + 1)`` with ``w = e^{i delta}``.
        Only the ``N x B`` angles ``theta`` and ``delta`` pass through
        ``cos`` / ``sin``.  An ``(N, B, count)`` block ``z`` starts at
        ``e^{i theta} w`` and doubles, ``z[..., s + k] = z[..., k] w^s``
        with ``w^s`` squared per level: ``log2(count)`` complex multiplies
        of contiguous ``k`` runs, giving the ``(N, R)`` block in row order,
        which the fold takes as it is.  Every multiply writes to memory
        its inputs do not share: numpy rounds a complex multiply in place
        on a strided view differently depending on the call's shape, out
        of place on contiguous runs it does not, so a problem's rows carry
        the same bits alone as in any grid.  Prismatic joints (``w = 1``)
        keep their angle; only their slide rows are materialised.
        """
        n, problems, count = self.chain.dof, grid.problems, grid.count
        rows = len(grid)
        rev = self._rev[:, None]
        theta = grid.q.T * rev + self._theta_offset[:, None]
        delta = grid.direction.T * rev
        delta *= grid.alphas[:, 0]

        def unit(angles):  # e^{i angles}, (N, B, 1)
            out = np.empty(angles.shape + (1,), np.complex128)
            out[..., 0].real = np.cos(angles)
            out[..., 0].imag = np.sin(angles)
            return out

        # One allocation holds z and the doubling's scratch.  As separate
        # arrays they met glibc's trim threshold (twice the largest
        # chunk), so every call returned them to the system and faulted
        # them back.
        buffer = np.empty(n * (rows + problems * (count // 2)), np.complex128)
        z = buffer[: n * rows].reshape(n, problems, count)
        spare = buffer[n * rows:]
        power = unit(delta)  # w^done
        z[..., :1] = unit(theta) * power
        done = 1
        while done < count:
            more = min(done, count - done)
            out = spare[: n * problems * more].reshape(n, problems, more)
            np.multiply(z[..., :more], power, out=out)
            z[..., done:done + more] = out
            done += more
            if done < count:
                power = power * power

        slides = {}
        if self._prismatic.size:
            columns = grid.candidates(self._prismatic).astype(np.float64, copy=False)
            slides = dict(zip(self._prismatic.tolist(), columns.T))
        return z.reshape(n, rows), slides

    def _fold(self, e: np.ndarray, slides) -> np.ndarray:
        """Carry the tool point to the world through every link.

        The point ``p`` starts at the tool and moves through each link,
        last joint first: ``p <- Rz(theta) Tz(d) Tx(a) Rx(alpha) p``
        (standard) or ``p <- Rx(alpha) Tx(a) Rz(theta) Tz(d) p``
        (modified); then the base maps it to the world.  ``p`` is held as
        two complex rows, ``w = x + iy`` and ``v = y + iz``, so each
        rotation is one complex multiply: ``Rz(theta)`` is ``w e^{i
        theta}`` with ``e`` the ``(N, R)`` block, ``Rx(alpha)`` is ``v
        e^{i alpha}``, and the rotated ``y`` is copied into the other row.
        ``Tx(a)`` adds ``a`` to ``w`` and ``Tz(d)`` adds ``i d`` to ``v``
        (``slides[j]`` is prismatic joint ``j``'s variable row): six calls
        per link.  Both rows are double-buffered, so every multiply runs
        out of place, on contiguous rows or by a 0-d constant, and only
        adds and copies, exact elementwise, run in place: a row's bits do
        not depend on the rows it shares the call with.
        """
        dtype = self.chain.dtype
        rows = e.shape[1]
        buffers = np.empty((4, rows), self._fold_cdtype)
        w = (buffers[0], buffers[1])
        v = (buffers[2], buffers[3])
        w_imag = (w[0].imag, w[1].imag)
        v_real = (v[0].real, v[1].real)
        v_imag = (v[0].imag, v[1].imag)
        w[0][...], v[0][...] = self._fold_tool
        mul, add, copy = np.multiply, np.add, np.copyto
        d_offset = self._d_offset
        k = 0
        if self.chain.is_standard_convention:
            for i, turn, a, d, prismatic in self._fold_links:
                j = 1 - k
                mul(v[k], turn, out=v[j])  # Rx(alpha)
                copy(w_imag[k], v_real[j])
                if a is not None:
                    add(w[k], a, out=w[k])  # Tx(a)
                if prismatic:
                    add(v_imag[j], add(slides[i], d_offset[i]), out=v_imag[j])
                elif d is not None:
                    add(v[j], d, out=v[j])  # Tz(d)
                mul(w[k], e[i], out=w[j])  # Rz(theta)
                copy(v_real[j], w_imag[j])
                k = j
        else:
            for i, turn, a, d, prismatic in self._fold_links:
                j = 1 - k
                if prismatic:
                    add(v_imag[k], add(slides[i], d_offset[i]), out=v_imag[k])
                elif d is not None:
                    add(v[k], d, out=v[k])  # Tz(d)
                mul(w[k], e[i], out=w[j])  # Rz(theta)
                copy(v_real[k], w_imag[j])
                if a is not None:
                    add(w[j], a, out=w[j])  # Tx(a)
                mul(v[k], turn, out=v[j])  # Rx(alpha)
                copy(w_imag[j], v_real[j])
                k = j

        # World = base @ p, elementwise; written straight into (R, 3) rows.
        out = np.empty((rows, 3), dtype)
        world = out.T
        b0, b1, b2, b3 = self._fold_base
        scratch = np.empty((3, rows), dtype)
        mul(b0, w[k].real, out=world)
        mul(b1, w_imag[k], out=scratch)
        add(world, scratch, out=world)
        mul(b2, v_imag[k], out=scratch)
        add(world, scratch, out=world)
        add(world, b3, out=world)
        return out

    # -- the frame pass -------------------------------------------------

    def _prefix_frames(self, q: np.ndarray):
        """World ``(rotations, origins)`` of one configuration's frames,
        as the one-row case of :meth:`_frames`.

        Cached per configuration: a Jacobian and an FK of the same ``q``
        share one pass (the fused-SPU analogue).
        """
        q = np.asarray(q, dtype=self.chain.dtype)
        cached = self._cached_frames(q)
        if cached is not None:
            return cached
        frames = self._frames(q[None, :])
        self._cache = (q.tobytes(), frames)
        return frames

    def _frames(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World rotations ``(N + 1, R, 3, 3)`` and origins ``(N + 1, R,
        3)`` of every frame of a batch, joint-major (uncached): entry 0 is
        the base, entry ``k`` frame ``k`` (``base @ 0Tk``), built as the
        module docstring describes.  The rotations, the origins and the
        joint planes share one allocation, for the reason
        :meth:`_ray_planes` gives.
        """
        n, rows = self.chain.dof, qs.shape[0]
        frames = (n + 1) * rows
        buffer = np.empty(12 * frames + 2 * n * rows, self.chain.dtype)
        rotations = buffer[:9 * frames].reshape(n + 1, rows, 3, 3)
        origins = buffer[9 * frames:12 * frames].reshape(n + 1, rows, 3)
        joints = buffer[12 * frames:].reshape(2, n, rows)
        np.multiply(qs.T, self._variable, out=joints)
        joints += self._offsets
        theta, d = joints

        # The local rotations, entry by entry.
        local = rotations[1:]
        c = np.cos(theta, out=local[..., 0, 0])
        if self.chain.is_standard_convention:
            # Rz(theta) Rx(alpha) = [[c, -s ca, s sa], [s, c ca, -c sa],
            # [0, sa, ca]].
            neg_ca, sa, ca, neg_sa = self._alpha_terms
            s = np.sin(theta, out=local[..., 1, 0])
            np.multiply(s, neg_ca, out=local[..., 0, 1])
            np.multiply(s, sa, out=local[..., 0, 2])
            np.multiply(c, ca, out=local[..., 1, 1])
            np.multiply(c, neg_sa, out=local[..., 1, 2])
            local[..., 2, :] = self._fixed
        else:
            # Rx(alpha) Rz(theta) = [[c, -s, 0], [ca s, ca c, -sa],
            # [sa s, sa c, ca]].
            ca, sa = self._alpha_terms
            s = np.sin(theta, out=local[..., 0, 1])
            np.multiply(s, ca, out=local[..., 1, 0])
            np.multiply(c, ca, out=local[..., 1, 1])
            np.multiply(s, sa, out=local[..., 2, 0])
            np.multiply(c, sa, out=local[..., 2, 1])
            np.negative(s, out=s)
            local[..., :, 2] = self._fixed
        rotations[0] = self._base_rotation
        # Fold the base into the first link: the scan then yields world
        # rotations directly.
        local[0] = self._base_rotation @ local[0]
        _rotation_prefix_scan(local)

        steps = origins[1:]
        if self.chain.is_standard_convention:
            np.multiply(rotations[1:, ..., 0], self._a, out=steps)
            steps += d[..., None] * rotations[:-1, ..., 2]
        else:
            np.multiply(rotations[:-1, ..., 0], self._a, out=steps)
            steps += d[..., None] * rotations[1:, ..., 2]
        origins[0] = self._base_origin
        np.cumsum(origins, axis=0, out=origins)
        return rotations, origins

    def _end_points(self, rotations, origins) -> np.ndarray:
        """Tool points ``(R, 3)`` of a pass."""
        return rotations[-1] @ self._tool_t + origins[-1]

    def _poses(self, rotations, origins) -> np.ndarray:
        """Tool poses ``(R, 4, 4)`` of a pass: ``[R_N R_tool | p_ee]``."""
        poses = np.empty((rotations.shape[1], 4, 4), dtype=self.chain.dtype)
        poses[:, :3, :3] = rotations[-1] @ self._tool_rotation
        poses[:, :3, 3] = self._end_points(rotations, origins)
        poses[:, 3, :3] = 0.0
        poses[:, 3, 3] = 1.0
        return poses

    def _screws(self, rotations, origins) -> tuple[np.ndarray, np.ndarray]:
        """Joint-major screw axes and origins ``(N, R, 3)`` of a pass:
        joint ``k`` turns about ``(z_{k-1}, o_{k-1})`` (standard) or
        ``(z_k, o_{k-1} + a_k x_{k-1})`` (modified)."""
        if self.chain.is_standard_convention:
            return rotations[:-1, ..., 2], origins[:-1]
        return rotations[1:, ..., 2], origins[:-1] + rotations[:-1, ..., 0] * self._a

    def screw_frames(
        self, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        frames = self._prefix_frames(q)
        axes, origins = self._screws(*frames)
        return axes[:, 0], origins[:, 0], self._end_points(*frames)[0]

    def screw_frames_batch(
        self, qs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One prefix-frame pass: ``(axes, origins, p_ee)`` per row, each
        row bit-identical to :meth:`screw_frames` of that configuration."""
        frames = self._frames(qs)
        axes, origins = self._screws(*frames)
        return axes.swapaxes(0, 1), origins.swapaxes(0, 1), self._end_points(*frames)
