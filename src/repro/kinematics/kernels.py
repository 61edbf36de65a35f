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
    base, one link at a time, in structure-of-arrays layout: the point's
    ``x`` / ``y`` / ``z`` are ``(R,)`` rows, the joint angles' ``cos`` /
    ``sin`` are ``(N, R)`` planes computed once, and each link applies its
    static factor ``Tx(a) Rx(alpha)`` (Python-float coefficients) and its
    screw ``Tz(d)`` then ``Rz(theta)`` in the order its DH convention
    multiplies them — about 14 flops per row per joint, where a tree of
    ``(3, 4)`` blocks pays a local transform *and* a compose.  The fold's
    cost is about 8 ufunc calls per joint whatever the row count, so its
    fixed cost is paid per joint, not per row: it beats a tree of blocks
    from about 64 rows up and loses below that (``docs/performance.md``
    has the table).  It uses real elementwise ufuncs only: a 2-D
    ``(R, 3) @ (3, 3)`` matmul, or a complex multiply in place on a
    strided view, can round a row differently depending on how many rows
    share the call (both did on an AVX-512 x86 host).  So every row
    carries the same bits alone as in any batch, at any offset.
  - **Quick-IK's candidates are swept as rays.**  Under Eq. 9 a problem's
    ``Max`` candidates lie on one ray, ``theta + (k / Max) alpha_base
    dtheta``, and Quick-IK hands them over as a :class:`SpeculationGrid`.
    On a float64 chain the ``cos`` / ``sin`` planes then come from two
    angles per problem and joint and a recurrence along the ray,
    ``e^{i theta_k} = e^{i theta} w^k`` (:meth:`~VectorizedKernels.
    _ray_planes`), instead of ``B x Max x N`` trigonometric calls; the
    fold that follows is the same.  Its complex multiplies run out of
    place on contiguous runs of one problem's candidates, so a problem's
    rows carry the same bits alone as in any grid.  The scalar oracle and
    float32 chains materialise the grid's candidates.
  - **Static link factors are precomputed once.**  For the frame pass, a
    DH link transform is ``S(theta, d) @ C`` (standard) or ``C @ S(theta,
    d)`` (modified) with ``C`` constant; because ``S`` is a z-screw, the
    product has closed form ``rows01 = e^{i theta} * (C_row0 + i C_row1)``
    — one complex multiply assembles both rotation-mixed rows of *every*
    link of *every* row in a single numpy call, with bit-identical
    rounding to the naive ``c*C0 - s*C1`` / ``s*C0 + c*C1`` expressions.
  - **Transforms are compact.**  Rigid transforms are carried as ``(3, 4)``
    affine blocks (the constant ``[0 0 0 1]`` row is never materialised),
    roughly halving both assembly writes and compose flops.
  - **Chain products are log-depth.**  Full poses (:meth:`~VectorizedKernels.
    fk_batch`) multiply the link blocks as a pairwise tree: ``ceil(log2
    N)`` stacked matmuls instead of ``N`` Python iterations.
  - **One FK pass per iteration is shared.**  The prefix transforms
    (world frames of every joint) yield both the end position and the
    Jacobian — the software analogue of the SPU pipeline reusing ``1TiC``
    for both ``JiC`` and the end-effector pose.  A batch gets both from
    one :meth:`~VectorizedKernels.screw_frames_batch` pass; a single
    configuration caches its frames, so the driver's ``end_position`` /
    ``fk`` of the same ``q`` reuses the Jacobian's pass.
  - **One scan order.**  Prefix frames always come from one log-depth
    scan (:func:`_affine_prefix_scan`), whatever the row count, so every
    row of a batch carries the same bits as the same configuration alone
    (and as any other batch it rides in).

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
# Stacked-matmul building blocks (pure functions, unit-tested directly)
# ----------------------------------------------------------------------


def _affine_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compose ``(..., 3, 4)`` rigid affine blocks: returns ``a @ b``."""
    out = a[..., :, :3] @ b
    out[..., :, 3] += a[..., :, 3]
    return out


def _affine_tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product of ``(..., N, 3, 4)`` affine blocks, log-depth.

    Consumes ``mats``.
    """
    n = mats.shape[-3]
    while n > 1:
        if n % 2:
            mats[..., n - 2, :, :] = _affine_compose(
                mats[..., n - 2, :, :], mats[..., n - 1, :, :]
            )
            n -= 1
        pairs = mats[..., :n, :, :].reshape(*mats.shape[:-3], n // 2, 2, 3, 4)
        mats = _affine_compose(pairs[..., 0, :, :], pairs[..., 1, :, :])
        n //= 2
    return mats[..., 0, :, :]


def _compose_strided(mats: np.ndarray, d: int, first: int) -> None:
    """``mats[i] = mats[i - d] @ mats[i]`` for ``i = first, first + 2d, ...``
    along axis ``-3``, in one stacked call."""
    n = mats.shape[-3]
    if first < n:
        mats[..., first :: 2 * d, :, :] = _affine_compose(
            mats[..., first - d : n - d : 2 * d, :, :],
            mats[..., first :: 2 * d, :, :],
        )


def _affine_prefix_scan(mats: np.ndarray) -> np.ndarray:
    """Inclusive scan over ``(..., N, 3, 4)`` affine blocks, log-depth.

    Brent-Kung order: an up-sweep leaves the product of every aligned run
    of ``2d`` joints in its last entry, then a down-sweep fills in the
    prefixes between them — about ``2 N`` composes in ``2 log2 N``
    stacked calls, where the Hillis-Steele doubling scan needs about
    ``N log2 N`` composes.  The order depends on ``N`` alone, so a row's
    frames do not depend on how many rows share its batch.  Consumes
    ``mats``.
    """
    n = mats.shape[-3]
    d = 1
    while 2 * d <= n:
        _compose_strided(mats, d, 2 * d - 1)
        d *= 2
    while d > 1:
        d //= 2
        _compose_strided(mats, d, 3 * d - 1)
    return mats


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
    # ``np.cross``'s own products and differences, without its axis
    # bookkeeping (this runs once per lock-step iteration).
    cross = np.stack(
        (a1 * r2 - a2 * r1, a2 * r0 - a0 * r2, a0 * r1 - a1 * r0), axis=-1
    )
    linear = np.where(revolute[:, None], cross, axes)
    return np.swapaxes(linear, -1, -2)


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
    """Stacked-matmul FK/Jacobian kernels with prefix-transform caching.

    See the module docstring for the construction; the public surface is
    identical to :class:`ScalarKernels` so the chain can dispatch blindly.
    """

    mode = "vectorized"

    def __init__(self, chain: "KinematicChain") -> None:
        self.chain = chain
        self._snapshot_statics()
        #: ``(q.tobytes(), frames)`` of the last single configuration,
        #: written and read as one tuple so a thread sharing this kernel
        #: never pairs one configuration's key with another's frames.
        self._cache: tuple[bytes, np.ndarray] | None = None

    # -- static precomputation -----------------------------------------

    def _snapshot_statics(self) -> None:
        """Precompute every joint-variable-independent factor once."""
        chain = self.chain
        self._fingerprint = self._chain_fingerprint()
        dtype = chain.dtype
        cdtype = np.result_type(dtype, np.complex64)
        const = chain._const  # (N, 4, 4)
        self._rev = chain._revolute_mask.astype(dtype)
        self._pris = (1.0 - self._rev).astype(dtype)
        self._theta_offset = chain._theta_offset.copy()
        self._d_offset = chain._d_offset.copy()
        if chain.is_standard_convention:
            # T = S(theta, d) @ C mixes the top two *rows* of C by Rz(theta)
            # and adds d to row 2's translation entry.
            self._mix = (const[:, 0, :] + 1j * const[:, 1, :]).astype(cdtype)
            self._row2 = np.ascontiguousarray(const[:, 2, :])
        else:
            # T = C @ S(theta, d) mixes the top-3-row blocks of C's first
            # two *columns* by Rz(-theta) and adds d * col2 to col3.
            cols = const[:, :3, :]  # (N, 3, 4) top three rows, by column below
            self._mix = (cols[:, :, 0] - 1j * cols[:, :, 1]).astype(cdtype)
            self._col2 = np.ascontiguousarray(cols[:, :, 2])
            self._col3 = np.ascontiguousarray(cols[:, :, 3])
            # Constant screw-frame adjustment for the Jacobian (3, 4 blocks).
            self._const_affine = np.ascontiguousarray(const[:, :3, :])
        self._base_affine = np.ascontiguousarray(chain.base[:3, :])
        self._tool_affine = np.ascontiguousarray(chain.tool[:3, :])
        self._tool_t = np.ascontiguousarray(chain.tool[:3, 3])
        self._snapshot_fold()

    def _snapshot_fold(self) -> None:
        """Statics of the tool-point fold (:meth:`end_positions_batch`).

        Both conventions share the static factor ``C = Tx(a) Rx(alpha)``
        (the two commute), so each link contributes ``cos(alpha)`` as a
        Python float, ``(-sin(alpha), sin(alpha))`` as a ``(2, 1)`` column
        that turns the rotation into one paired multiply-add, ``a``, and
        ``d`` (``None`` for a prismatic joint, whose ``d`` varies per row).
        Links are listed tool side first, the order the fold visits them.
        """
        chain = self.chain
        dtype = chain.dtype
        const = chain._const
        links = []
        for i in reversed(range(chain.dof)):
            sin_a = const[i, 2, 1]
            links.append((
                i,
                float(const[i, 1, 1]),
                np.array([[-sin_a], [sin_a]], dtype=dtype),
                float(const[i, 0, 3]),
                float(self._d_offset[i]) if chain._revolute_mask[i] else None,
            ))
        self._fold_links = tuple(links)
        self._prismatic = np.flatnonzero(~chain._revolute_mask)
        self._fold_tool = np.ascontiguousarray(chain.tool[:3, 3:])
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
        """Drop the per-configuration prefix-transform cache."""
        self._cache = None

    def refresh(self) -> None:
        """Re-snapshot the static factors after a chain parameter change."""
        self._snapshot_statics()
        self.invalidate()

    def _cached_frames(self, q: np.ndarray) -> np.ndarray | None:
        """The prefix frames for ``q`` if cached and still valid."""
        cache = self._cache
        if cache is None or q.tobytes() != cache[0]:
            return None
        if self._chain_fingerprint() != self._fingerprint:
            # Parameter arrays were mutated under us: the snapshot and the
            # cache are both stale.
            self.refresh()
            return None
        return cache[1]

    # -- local transforms (compact affine form) ------------------------

    def _locals_affine(self, qs: np.ndarray) -> np.ndarray:
        """Per-joint link transforms as ``(..., N, 3, 4)`` affine blocks.

        One complex multiply assembles both rotation-mixed rows (standard)
        or columns (modified) of every link transform in the batch; the
        rounding of each entry is bit-identical to the scalar path's
        ``S @ C`` / ``C @ S`` matmul because the contractions involve the
        same two-term sums.
        """
        theta = self._theta_offset + qs * self._rev
        d = self._d_offset + qs * self._pris
        cdtype = self._mix.dtype
        z = np.empty(theta.shape, dtype=cdtype)
        z.real = np.cos(theta)
        z.imag = np.sin(theta)
        out = np.empty(qs.shape + (3, 4), dtype=self.chain.dtype)
        if self.chain.is_standard_convention:
            rows01 = z[..., None] * self._mix
            out[..., 0, :] = rows01.real
            out[..., 1, :] = rows01.imag
            out[..., 2, :] = self._row2
            out[..., 2, 3] += d
        else:
            # z was built as e^{i theta}; the column mix needs Rz(-theta),
            # which the conjugated static factor already encodes.
            cols01 = z[..., None] * self._mix
            out[..., :, 0] = cols01.real
            out[..., :, 1] = -cols01.imag
            out[..., :, 2] = self._col2
            out[..., :, 3] = self._col3 + d[..., None] * self._col2
        return out

    # -- forward kinematics --------------------------------------------

    def _tool_position(self, pose: np.ndarray) -> np.ndarray:
        """End-effector position of ``(..., 3, 4)`` world affine blocks."""
        return pose[..., :, :3] @ self._tool_t + pose[..., :, 3]

    def fk(self, q: np.ndarray) -> np.ndarray:
        frames = self._prefix_frames(q)
        pose = np.empty((4, 4), dtype=self.chain.dtype)
        pose[:3, :] = _affine_compose(frames[-1], self._tool_affine)
        pose[3, :3] = 0.0
        pose[3, 3] = 1.0
        return pose

    def end_position(self, q: np.ndarray) -> np.ndarray:
        frames = self._prefix_frames(q)
        return self._tool_position(frames[-1])

    def fk_batch(self, qs: np.ndarray) -> np.ndarray:
        prod = _affine_tree_product(self._locals_affine(qs))
        world = _affine_compose(
            np.broadcast_to(self._base_affine, prod.shape), prod
        )
        poses = np.empty(qs.shape[:-1] + (4, 4), dtype=self.chain.dtype)
        poses[..., :3, :] = _affine_compose(world, self._tool_affine)
        poses[..., 3, :3] = 0.0
        poses[..., 3, 3] = 1.0
        return poses

    def end_positions_batch(self, qs) -> np.ndarray:
        """All candidate positions by one right-to-left tool-point fold.

        This is the speculative-sweep hot path: Quick-IK calls it with its
        ``Max`` candidates and the lock-step engine with all ``B x Max``
        (problem, candidate) rows at once, either as an explicit ``(R, N)``
        block or as a :class:`SpeculationGrid`.  The joint-angle planes
        come from :meth:`_planes` or, for a float64 grid, from
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
        """``cos`` ``(N, R)`` and ``(-sin, sin)`` ``(N, 2, R)`` planes of
        explicit rows, and each joint's variable row (the fold reads those
        of prismatic joints)."""
        dtype = self.chain.dtype
        n, rows = self.chain.dof, qs.shape[0]
        qt = qs.T
        # theta = theta_offset + q (revolute); contiguous planes, one row
        # per joint, so every row of a plane is a contiguous (R,) vector.
        theta = np.multiply(qt, self._rev[:, None], out=np.empty((n, rows), dtype))
        theta += self._theta_offset[:, None]
        cos = np.cos(theta)
        sin2 = np.empty((n, 2, rows), dtype)  # (-sin, sin) per joint
        np.sin(theta, out=sin2[:, 1])
        np.negative(sin2[:, 1], out=sin2[:, 0])
        return cos, sin2, qt

    def _ray_planes(self, grid: SpeculationGrid):
        """The planes of a float64 grid by stepping along each problem's ray.

        Candidate ``k`` of a problem turns revolute joint ``j`` to
        ``theta_j + (k + 1) delta_j``, where ``theta`` is the ray origin's
        joint angle and ``delta = alphas[:, 0] direction`` one step, so
        ``e^{i theta_k} = e^{i theta} w^(k + 1)`` with ``w = e^{i delta}``.
        Only the ``N x B`` angles ``theta`` and ``delta`` pass through
        ``cos`` / ``sin``.  An ``(N, B, count)`` block ``z`` starts at
        ``e^{i theta} w`` and doubles, ``z[..., s + k] = z[..., k] w^s``
        with ``w^s`` squared per level: ``log2(count)`` complex multiplies
        of contiguous ``k`` runs, giving the planes in row order.  Every
        multiply writes to memory its inputs do not share: numpy rounds a
        complex multiply in place on a strided view differently depending
        on the call's shape, out of place on contiguous runs it does not,
        so a problem's rows carry the same bits alone as in any grid.
        Prismatic joints (``w = 1``) keep their angle; only their slide
        rows are materialised.
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

        # One allocation holds z and then the sine planes, which serve the
        # doubling as scratch first.  As separate arrays, each half of the
        # peak, they met glibc's trim threshold (twice the largest chunk),
        # so every call returned them to the system and faulted them back.
        buffer = np.empty(4 * n * rows)
        z = buffer[: 2 * n * rows].view(np.complex128).reshape(n, problems, count)
        spare = buffer[2 * n * rows:]
        power = unit(delta)  # w^done
        z[..., :1] = unit(theta) * power
        done = 1
        while done < count:
            more = min(done, count - done)
            out = spare[: 2 * n * problems * more].view(np.complex128)
            out = out.reshape(n, problems, more)
            np.multiply(z[..., :more], power, out=out)
            z[..., done:done + more] = out
            done += more
            if done < count:
                power = power * power
        z = z.reshape(n, rows)

        sin2 = spare.reshape(n, 2, rows)
        sin2[:, 1] = z.imag
        np.negative(sin2[:, 1], out=sin2[:, 0])
        slides = {}
        if self._prismatic.size:
            columns = grid.candidates(self._prismatic).astype(np.float64, copy=False)
            slides = dict(zip(self._prismatic.tolist(), columns.T))
        return z.real, sin2, slides

    def _fold(self, cos: np.ndarray, sin2: np.ndarray, slides) -> np.ndarray:
        """Carry the tool point to the world through every link.

        The point ``p`` starts at the tool and moves through each link,
        last joint first: ``p <- Rz(theta) Tz(d) Tx(a) Rx(alpha) p``
        (standard) or ``p <- Rx(alpha) Tx(a) Rz(theta) Tz(d) p``
        (modified); then the base maps it to the world.  A rotation of two
        coordinates is one paired multiply-add: ``(x, y) <- c (x, y) +
        (-s, s) (y, x)``.  ``slides[j]`` is prismatic joint ``j``'s
        variable row.  Every step is elementwise, so a row's bits do not
        depend on the rows it shares the call with.
        """
        dtype = self.chain.dtype
        rows = cos.shape[1]
        p = np.empty((3, rows), dtype)
        p[...] = self._fold_tool
        x, z = p[0], p[2]
        xy, yz = p[:2], p[1:]
        yx, zy = xy[::-1], yz[::-1]
        t = np.empty((2, rows), dtype)
        u = np.empty((2, rows), dtype)
        mul, add = np.multiply, np.add
        if self.chain.is_standard_convention:
            for i, cos_a, sin_pair, a, d in self._fold_links:
                mul(yz, cos_a, out=t)  # Rx(alpha)
                mul(zy, sin_pair, out=u)
                add(t, u, out=yz)
                if a:
                    add(x, a, out=x)  # Tx(a)
                if d is None:
                    add(z, add(slides[i], self._d_offset[i]), out=z)  # Tz(d)
                elif d:
                    add(z, d, out=z)
                mul(xy, cos[i], out=t)  # Rz(theta)
                mul(yx, sin2[i], out=u)
                add(t, u, out=xy)
        else:
            for i, cos_a, sin_pair, a, d in self._fold_links:
                if d is None:
                    add(z, add(slides[i], self._d_offset[i]), out=z)  # Tz(d)
                elif d:
                    add(z, d, out=z)
                mul(xy, cos[i], out=t)  # Rz(theta)
                mul(yx, sin2[i], out=u)
                add(t, u, out=xy)
                if a:
                    add(x, a, out=x)  # Tx(a)
                mul(yz, cos_a, out=t)  # Rx(alpha)
                mul(zy, sin_pair, out=u)
                add(t, u, out=yz)

        # World = base @ p, elementwise; written straight into (R, 3) rows.
        out = np.empty((rows, 3), dtype)
        world = out.T
        b0, b1, b2, b3 = self._fold_base
        scratch = np.empty((3, rows), dtype)
        mul(b0, x, out=world)
        mul(b1, p[1], out=scratch)
        add(world, scratch, out=world)
        mul(b2, z, out=scratch)
        add(world, scratch, out=world)
        add(world, b3, out=world)
        return out

    # -- prefix transforms and Jacobians -------------------------------

    def _prefix_frames(self, q: np.ndarray) -> np.ndarray:
        """World affine frames ``(N + 1, 3, 4)`` for one configuration.

        Entry 0 is the base, entry ``i`` is ``base @ 0Ti``.  Cached per
        configuration: a Jacobian and an FK of the same ``q`` share one
        pass (the fused-SPU analogue).
        """
        q = np.asarray(q, dtype=self.chain.dtype)
        cached = self._cached_frames(q)
        if cached is not None:
            return cached
        frames = self._prefix_frames_batch(q[None, :])[0]
        self._cache = (q.tobytes(), frames)
        return frames

    def _prefix_frames_batch(self, qs: np.ndarray) -> np.ndarray:
        """World affine frames ``(B, N + 1, 3, 4)`` for a batch (uncached)."""
        locals_ = self._locals_affine(qs)  # (B, N, 3, 4)
        # Fold the base into the first link before scanning: the scan then
        # yields world frames directly, avoiding a whole-array compose.
        locals_[:, 0] = _affine_compose(self._base_affine, locals_[:, 0])
        frames = np.empty(
            (qs.shape[0], self.chain.dof + 1, 3, 4), dtype=self.chain.dtype
        )
        frames[:, 0] = self._base_affine
        frames[:, 1:] = _affine_prefix_scan(locals_)
        return frames

    def _jacobian_from_frames(
        self, frames: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(axes, origins, p_ee)`` from ``(..., N + 1, 3, 4)`` frames."""
        dof = self.chain.dof
        p_ee = self._tool_position(frames[..., dof, :, :])
        screw = frames[..., :dof, :, :]
        if not self.chain.is_standard_convention:
            screw = _affine_compose(screw, self._const_affine)
        axes = screw[..., :, :3, 2]
        origins = screw[..., :, :3, 3]
        return axes, origins, p_ee

    def screw_frames(
        self, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._jacobian_from_frames(self._prefix_frames(q))

    def screw_frames_batch(
        self, qs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One prefix-frame pass: ``(axes, origins, p_ee)`` per row, each
        row bit-identical to :meth:`screw_frames` of that configuration."""
        return self._jacobian_from_frames(self._prefix_frames_batch(qs))
