"""Serial kinematic chains: forward kinematics and geometric Jacobians.

This is the substrate the whole paper sits on.  Design notes:

* Forward kinematics exploits the DH factorisation ``T(q) = S(theta, d) @ C``
  (standard convention) or ``C @ S(theta, d)`` (modified convention), where
  ``S`` is the joint "screw" (a z-rotation stacked with a z-translation) and
  ``C`` is a constant matrix precomputed at construction.  The screws for all
  joints — and, in the batched variant, for all speculations — are built in one
  vectorised step; only the cumulative chain product is sequential, mirroring
  the ``1Ti = 1Ti-1 @ i-1Ti`` recurrence that IKAcc pipelines in hardware.
* :meth:`KinematicChain.end_positions_batch` evaluates the FK of ``B``
  configurations at once.  Quick-IK calls it with one row per speculative
  ``alpha_k`` (Algorithm 1, lines 6-15), as a
  :class:`~repro.kinematics.kernels.SpeculationGrid` of rays under the
  linear schedule.
* The geometric Jacobian follows Buss [11]: for revolute joint ``i`` the
  position rows are ``z_{i-1} x (p_ee - p_{i-1})``, for prismatic joints they
  are ``z_{i-1}`` (axes taken at the joint's screw frame).
* The FK/Jacobian computations themselves live in
  :mod:`repro.kinematics.kernels`: every chain owns a kernel object
  (``kernel="scalar"`` keeps the original link-by-link loops as the
  differential oracle; ``"vectorized"`` swaps in a tool-point fold for the
  candidate sweep and, for frames and Jacobians, a cached log-depth scan
  of the link rotations plus one cumulative sum of the link offsets) and
  the methods below dispatch to it.  :meth:`~KinematicChain.
  with_kernel` / :meth:`~KinematicChain.astype` build each kernel / dtype
  twin once per chain and share it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.kinematics import transforms
from repro.kinematics.dh import DHConvention
from repro.kinematics.joint import Joint, JointType
from repro.kinematics.kernels import (
    SpeculationGrid,
    make_kernels,
    position_jacobian,
    resolve_kernel_mode,
)

__all__ = ["KinematicChain"]


def _screw_matrices(theta: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Batched ``Rz(theta) @ Tz(d)`` matrices.

    ``theta`` and ``d`` share a shape ``(..., N)``; the result has shape
    ``(..., N, 4, 4)`` and the dtype of ``theta`` (the IKAcc simulator runs
    the whole chain in float32).  This is the only joint-variable-dependent
    factor of a DH link transform.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    out = np.zeros(np.shape(theta) + (4, 4), dtype=np.asarray(theta).dtype)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    out[..., 3, 3] = 1.0
    out[..., 2, 3] = d
    return out


class KinematicChain:
    """An open serial chain of revolute/prismatic DH joints.

    Parameters
    ----------
    joints:
        Ordered joints from base to tip.
    base:
        Optional fixed transform from the world frame to the first joint frame.
    tool:
        Optional fixed transform from the last joint frame to the end-effector.
    convention:
        DH convention, ``"standard"`` (default) or ``"modified"``.
    name:
        Optional human-readable name (used in reports).
    dtype:
        Floating-point dtype of every FK/Jacobian computation.  The default
        is float64; the IKAcc simulator builds a float32 twin via
        :meth:`astype` to model the accelerator's 32-bit datapath.
    kernel:
        FK/Jacobian kernel mode (see :mod:`repro.kinematics.kernels`):
        ``"scalar"`` (default) runs the original link-by-link loops;
        ``"vectorized"`` replaces them with batched kernels that agree
        with the scalar oracle to ~1e-15 (the differential tier pins
        1e-12).
    """

    def __init__(
        self,
        joints: Iterable[Joint],
        base: np.ndarray | None = None,
        tool: np.ndarray | None = None,
        convention: str = DHConvention.STANDARD,
        name: str = "",
        dtype: np.dtype | type = np.float64,
        kernel: str | None = None,
    ) -> None:
        self.joints: tuple[Joint, ...] = tuple(joints)
        if not self.joints:
            raise ValueError("a kinematic chain needs at least one joint")
        if convention not in DHConvention.ALL:
            raise ValueError(f"unknown DH convention: {convention!r}")
        self.convention = convention
        self.name = name or f"chain-{len(self.joints)}dof"
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"dtype must be floating point, got {self.dtype}")
        self.base = (
            np.eye(4, dtype=self.dtype)
            if base is None
            else np.asarray(base, dtype=self.dtype)
        )
        self.tool = (
            np.eye(4, dtype=self.dtype)
            if tool is None
            else np.asarray(tool, dtype=self.dtype)
        )
        if self.base.shape != (4, 4) or self.tool.shape != (4, 4):
            raise ValueError("base and tool must be 4x4 transforms")

        n = len(self.joints)
        self._theta_offset = np.array(
            [j.link.theta for j in self.joints], dtype=self.dtype
        )
        self._d_offset = np.array([j.link.d for j in self.joints], dtype=self.dtype)
        self._revolute_mask = np.array([j.is_revolute for j in self.joints])
        # Constant factors of the link transforms.
        if convention == DHConvention.STANDARD:
            # T = S(theta, d) @ C  with  C = Tx(a) Rx(alpha)
            const = [
                transforms.trans_x(j.link.a) @ transforms.rot_x(j.link.alpha)
                for j in self.joints
            ]
        else:
            # T = C @ S(theta, d)  with  C = Rx(alpha) Tx(a)
            const = [
                transforms.rot_x(j.link.alpha) @ transforms.trans_x(j.link.a)
                for j in self.joints
            ]
        self._const = np.stack(const).astype(self.dtype)
        self._lower = np.array([j.limits.lower for j in self.joints])
        self._upper = np.array([j.limits.upper for j in self.joints])
        # The joint terms of ``total_reach``, summed once: joints are
        # frozen, and the admission guard asks for the reach every wave.
        self._joint_reach = 0.0
        for joint in self.joints:
            self._joint_reach += abs(joint.link.a) + abs(joint.link.d)
            if joint.is_prismatic:
                self._joint_reach += max(
                    abs(joint.limits.lower), abs(joint.limits.upper)
                )
        assert self._const.shape == (n, 4, 4)
        self._kernel_mode = resolve_kernel_mode(kernel)
        self._kernels = make_kernels(self, self._kernel_mode)
        #: ``(kernel mode, dtype name) -> twin`` built by :meth:`_twin`.
        self._twins: dict[tuple[str, str], KinematicChain] = {}

    def __getstate__(self) -> dict:
        # Twins stay in the process that built them: a pickled chain (a
        # ``workers > 1`` shard) ships without them.
        state = self.__dict__.copy()
        state["_twins"] = {}
        return state

    def _twin(self, kernel: str, dtype: np.dtype) -> "KinematicChain":
        """This chain computing under another kernel mode / dtype.

        Built once per ``(mode, dtype)`` and shared by every later call:
        entry points apply a :class:`~repro.execution.KernelSpec` per
        solve call or served run, and a 50-DOF rebuild takes about 0.5 ms.
        ``setdefault`` keeps one twin when two threads build it at once.
        """
        key = (kernel, dtype.name)
        twin = self._twins.get(key)
        if twin is None:
            twin = self._twins.setdefault(key, KinematicChain(
                self.joints,
                base=self.base,
                tool=self.tool,
                convention=self.convention,
                name=self.name,
                dtype=dtype,
                kernel=kernel,
            ))
        return twin

    def astype(self, dtype: np.dtype | type) -> "KinematicChain":
        """The chain computing in a different floating-point dtype (a
        shared twin; see :meth:`with_kernel`)."""
        return self._twin(self._kernel_mode, np.dtype(dtype))

    def with_kernel(self, kernel: str | None) -> "KinematicChain":
        """The chain computing with a different FK/Jacobian kernel.

        Returns ``self`` when the mode already matches, and otherwise the
        same twin on every call (kernels carry no per-solve state besides
        a cache, so sharing is safe).
        """
        mode = resolve_kernel_mode(kernel)
        if mode == self._kernel_mode:
            return self
        return self._twin(mode, self.dtype)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def dof(self) -> int:
        """Number of joints (degrees of freedom)."""
        return len(self.joints)

    @property
    def n_joints(self) -> int:
        """Alias of :attr:`dof`."""
        return self.dof

    @property
    def kernel(self) -> str:
        """Active FK/Jacobian kernel mode (``"scalar"`` / ``"vectorized"``)."""
        return self._kernel_mode

    @property
    def kernels(self):
        """The kernel object computing this chain's FK/Jacobians."""
        return self._kernels

    @property
    def is_standard_convention(self) -> bool:
        """True for the standard DH convention (``T = S @ C``)."""
        return self.convention == DHConvention.STANDARD

    @property
    def lower_limits(self) -> np.ndarray:
        """Per-joint lower limits as an array."""
        return self._lower.copy()

    @property
    def upper_limits(self) -> np.ndarray:
        """Per-joint upper limits as an array."""
        return self._upper.copy()

    def total_reach(self) -> float:
        """Upper bound on the distance from base to end-effector.

        Sum of link length, link offset, prismatic travel and tool offset —
        a cheap conservative workspace radius used by target generators and
        the target guards.  The joint terms are summed at construction; the
        tool term is read per call, since ``tool`` is a mutable array.
        """
        return self._joint_reach + float(np.linalg.norm(self.tool[:3, 3]))

    def joint_tip_distance_bounds(self) -> np.ndarray:
        """Upper bound on the distance from each joint to the end effector.

        Bounds the norm of each position-Jacobian column; used by the classic
        constant-gain transpose solver to derive a workspace-safe step size.
        """
        tail = float(np.linalg.norm(self.tool[:3, 3]))
        bounds_rev = []
        for joint in reversed(self.joints):
            tail += abs(joint.link.a) + abs(joint.link.d)
            if joint.is_prismatic:
                tail += max(abs(joint.limits.lower), abs(joint.limits.upper))
            bounds_rev.append(tail)
        return np.array(bounds_rev[::-1])

    def clamp(self, q: np.ndarray) -> np.ndarray:
        """Clamp a configuration into the joint limits."""
        return np.clip(np.asarray(q, dtype=float), self._lower, self._upper)

    def within_limits(self, q: np.ndarray, tol: float = 0.0) -> bool:
        """True when every joint value respects its limits."""
        q = np.asarray(q, dtype=float)
        return bool(
            np.all(q >= self._lower - tol) and np.all(q <= self._upper + tol)
        )

    def random_configuration(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random configuration inside the joint limits."""
        return rng.uniform(self._lower, self._upper)

    def _check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=self.dtype)
        if q.shape != (self.dof,):
            raise ValueError(
                f"expected configuration of shape ({self.dof},), got {q.shape}"
            )
        return q

    def _check_qs(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=self.dtype)
        if qs.ndim != 2 or qs.shape[1] != self.dof:
            raise ValueError(
                f"expected batch of shape (B, {self.dof}), got {qs.shape}"
            )
        return qs

    # ------------------------------------------------------------------
    # Forward kinematics
    # ------------------------------------------------------------------

    def local_transforms(self, q: np.ndarray) -> np.ndarray:
        """Per-joint link transforms ``i-1Ti``; shape ``(N, 4, 4)``."""
        q = self._check_q(q)
        theta = self._theta_offset + np.where(self._revolute_mask, q, 0.0)
        d = self._d_offset + np.where(self._revolute_mask, 0.0, q)
        screws = _screw_matrices(theta, d)
        if self.convention == DHConvention.STANDARD:
            return screws @ self._const
        return self._const @ screws

    def local_transforms_batch(self, qs: np.ndarray) -> np.ndarray:
        """Per-joint link transforms for a batch of configurations.

        ``qs`` has shape ``(B, N)``; the result has shape ``(B, N, 4, 4)``.
        """
        qs = np.asarray(qs, dtype=self.dtype)
        if qs.ndim != 2 or qs.shape[1] != self.dof:
            raise ValueError(
                f"expected batch of shape (B, {self.dof}), got {qs.shape}"
            )
        theta = self._theta_offset + np.where(self._revolute_mask, qs, 0.0)
        d = self._d_offset + np.where(self._revolute_mask, 0.0, qs)
        screws = _screw_matrices(theta, d)
        if self.convention == DHConvention.STANDARD:
            return screws @ self._const
        return self._const @ screws

    def link_frames(self, q: np.ndarray) -> np.ndarray:
        """World transforms of every link frame, including the base.

        Returns shape ``(N + 1, 4, 4)``: entry 0 is the base transform and
        entry ``i`` is ``base @ 0Ti``.  The tool transform is *not* applied.
        """
        locals_ = self.local_transforms(q)
        frames = np.empty((self.dof + 1, 4, 4), dtype=self.dtype)
        frames[0] = self.base
        for i in range(self.dof):
            frames[i + 1] = frames[i] @ locals_[i]
        return frames

    def fk(self, q: np.ndarray) -> np.ndarray:
        """End-effector pose ``X = f(theta)`` as a 4x4 transform (Eq. 1)."""
        return self._kernels.fk(self._check_q(q))

    def end_position(self, q: np.ndarray) -> np.ndarray:
        """End-effector position; the 3-vector ``X`` of the paper."""
        return self._kernels.end_position(self._check_q(q))

    def fk_batch(self, qs: np.ndarray) -> np.ndarray:
        """End-effector poses for a batch of configurations; ``(B, 4, 4)``.

        This is the speculative-search workhorse: Quick-IK evaluates one row
        per candidate ``alpha_k`` exactly like the SSU array does in IKAcc.
        """
        return self._kernels.fk_batch(self._check_qs(qs))

    def end_positions_batch(self, qs) -> np.ndarray:
        """End-effector positions for a batch of configurations; ``(B, 3)``.

        ``qs`` is a ``(B, N)`` array or a :class:`~repro.kinematics.kernels.
        SpeculationGrid`, whose ``len(qs)`` candidate rows it evaluates.
        """
        if isinstance(qs, SpeculationGrid):
            shape = (qs.problems, self.dof)
            if qs.q.shape != shape or qs.direction.shape != shape:
                raise ValueError(f"expected grid rays of shape {shape}")
            return self._kernels.end_positions_batch(qs)
        return self._kernels.end_positions_batch(self._check_qs(qs))

    # ------------------------------------------------------------------
    # Jacobians
    # ------------------------------------------------------------------

    def _screw_frames(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Joint screw axes and origins plus the end-effector position.

        Returns ``(axes, origins, p_ee)`` where ``axes``/``origins`` have shape
        ``(N, 3)``.  For the standard convention joint ``i`` acts about the
        z-axis of frame ``i-1``; for the modified convention it acts about the
        z-axis of frame ``i-1`` *after* the constant ``Rx(alpha) Tx(a)`` factor.
        """
        return self._kernels.screw_frames(self._check_q(q))

    def joint_screws(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Public view of the joint screw geometry at configuration ``q``.

        Returns ``(axes, origins, p_ee)``: the world-frame motion axis and
        origin of every joint plus the end-effector position.  Used by the
        Jacobian, by CCD and by visualisation code.
        """
        return self._screw_frames(q)

    def jacobian_position(self, q: np.ndarray) -> np.ndarray:
        """Position Jacobian ``J = dX/dtheta``; shape ``(3, N)`` (Eq. 3).

        This is the Jacobian the paper uses: end-effector *position* only.
        """
        axes, origins, p_ee = self._screw_frames(q)
        return position_jacobian(axes, origins, p_ee, self._revolute_mask)

    def fk_jacobian_batch(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """End positions ``(B, 3)`` and position Jacobians ``(B, 3, N)``
        from one prefix-frame pass.

        The lock-step engine's per-iteration pass: the frames that give a
        row's Jacobian also give its end position, as the paper's SPU
        reuses ``1TiC`` for both ``JiC`` and the pose (Fig. 3).  Row ``i``
        equals :meth:`end_position` / :meth:`jacobian_position` of
        ``qs[i]`` bit for bit, on either kernel and at any batch size.
        """
        axes, origins, p_ee = self._kernels.screw_frames_batch(self._check_qs(qs))
        return p_ee, position_jacobian(axes, origins, p_ee, self._revolute_mask)

    def jacobian_position_batch(self, qs: np.ndarray) -> np.ndarray:
        """Position Jacobians for a batch of configurations; ``(B, 3, N)``.

        The throughput engine (:mod:`repro.solvers.batched`) evaluates the
        serial block of many IK problems in lock-step with this.
        """
        return self.fk_jacobian_batch(qs)[1]

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        """Full geometric Jacobian (linear over angular); shape ``(6, N)``."""
        axes, origins, p_ee = self._screw_frames(q)
        angular = np.where(self._revolute_mask[:, None], axes, 0.0)
        return np.vstack([
            position_jacobian(axes, origins, p_ee, self._revolute_mask),
            angular.T,
        ])

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------

    def subchain(self, stop: int) -> "KinematicChain":
        """Chain truncated to the first ``stop`` joints (tool dropped)."""
        if not 1 <= stop <= self.dof:
            raise ValueError(f"stop must be in [1, {self.dof}], got {stop}")
        return KinematicChain(
            self.joints[:stop],
            base=self.base,
            convention=self.convention,
            name=f"{self.name}[:{stop}]",
            dtype=self.dtype,
            kernel=self._kernel_mode,
        )

    def with_tool(self, tool: np.ndarray) -> "KinematicChain":
        """Copy of the chain with a different tool transform."""
        return KinematicChain(
            self.joints,
            base=self.base,
            tool=tool,
            convention=self.convention,
            name=self.name,
            dtype=self.dtype,
            kernel=self._kernel_mode,
        )

    def joint_names(self) -> Sequence[str]:
        """Per-joint names (auto-generated when unset)."""
        return [j.name or f"joint{i}" for i, j in enumerate(self.joints)]

    def joint_types(self) -> Sequence[str]:
        """Per-joint type tags."""
        return [j.joint_type for j in self.joints]

    def count_joints(self, joint_type: str) -> int:
        """Number of joints of a given type."""
        if joint_type not in JointType.ALL:
            raise ValueError(f"unknown joint type: {joint_type!r}")
        return sum(1 for j in self.joints if j.joint_type == joint_type)

    def __len__(self) -> int:
        return self.dof

    def __repr__(self) -> str:
        return (
            f"KinematicChain(name={self.name!r}, dof={self.dof}, "
            f"convention={self.convention!r})"
        )
