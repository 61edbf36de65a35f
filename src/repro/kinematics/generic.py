"""Generic serial chains: arbitrary joint origins and axes (non-DH).

Real robot descriptions (URDF and friends) place each joint with an arbitrary
fixed transform and rotate/slide about an arbitrary unit axis — a strictly
larger class than Denavit-Hartenberg chains.  :class:`GenericChain` implements
the same computational interface as :class:`~repro.kinematics.chain.
KinematicChain` (FK, batched FK, geometric Jacobians, limits, dtype twins), so
every solver and the IKAcc simulator work on it unchanged.

Per joint the link transform is ``T_i(q) = O_i @ M_i(q_i)`` where ``O_i`` is
the fixed origin and the motion

* revolute:   ``M(q) = I + sin(q) K + (1 - cos(q)) K^2`` (Rodrigues) with
  ``K`` the constant skew matrix of the axis — so batched FK only needs the
  ``sin``/``cos`` vectors and two constant matrices per joint;
* prismatic:  ``M(q) = I + q D`` with ``D`` putting the axis in the
  translation column;
* fixed:      ``M = I`` (consumes no joint variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kinematics.joint import JointLimits
from repro.kinematics.kernels import SpeculationGrid

__all__ = ["GenericJointType", "GenericJoint", "GenericChain"]


class GenericJointType:
    """Joint kind tags for generic chains (URDF vocabulary)."""

    REVOLUTE = "revolute"
    PRISMATIC = "prismatic"
    FIXED = "fixed"

    ALL = (REVOLUTE, PRISMATIC, FIXED)
    MOVABLE = (REVOLUTE, PRISMATIC)


def _skew(axis: np.ndarray) -> np.ndarray:
    x, y, z = axis
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class GenericJoint:
    """One joint: fixed origin transform + motion axis + kind + limits."""

    origin: np.ndarray
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    joint_type: str = GenericJointType.REVOLUTE
    limits: JointLimits = field(default_factory=JointLimits)
    name: str = ""

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (4, 4):
            raise ValueError("origin must be a 4x4 transform")
        object.__setattr__(self, "origin", origin)
        if self.joint_type not in GenericJointType.ALL:
            raise ValueError(f"unknown joint type: {self.joint_type!r}")
        axis = np.asarray(self.axis, dtype=float)
        if self.joint_type != GenericJointType.FIXED:
            norm = float(np.linalg.norm(axis))
            if norm < 1e-12:
                raise ValueError("movable joints need a non-zero axis")
            axis = axis / norm
        object.__setattr__(self, "axis", axis)

    @property
    def is_movable(self) -> bool:
        """True for revolute/prismatic joints."""
        return self.joint_type in GenericJointType.MOVABLE


class GenericChain:
    """Serial chain of :class:`GenericJoint`; solver-compatible interface.

    Parameters mirror :class:`~repro.kinematics.chain.KinematicChain`: an
    optional ``base``/``tool`` transform, a display ``name`` and a compute
    ``dtype`` (the IKAcc simulator requests a float32 twin via
    :meth:`astype`).  Fixed joints are part of the structure but consume no
    entry of the configuration vector ``q``.
    """

    def __init__(
        self,
        joints,
        base: np.ndarray | None = None,
        tool: np.ndarray | None = None,
        name: str = "",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.joints: tuple[GenericJoint, ...] = tuple(joints)
        if not self.joints:
            raise ValueError("a chain needs at least one joint")
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
        self.name = name or f"generic-{len(self.joints)}joints"

        self._movable = [j for j in self.joints if j.is_movable]
        if not self._movable:
            raise ValueError("chain has no movable joints")
        #: index into q for each structural joint (-1 for fixed joints).
        self._q_index = []
        cursor = 0
        for joint in self.joints:
            if joint.is_movable:
                self._q_index.append(cursor)
                cursor += 1
            else:
                self._q_index.append(-1)

        # Precomputed constant matrices for the vectorised motion terms.
        self._origins = np.stack([j.origin for j in self.joints]).astype(self.dtype)
        n = len(self.joints)
        self._k = np.zeros((n, 4, 4), dtype=self.dtype)  # skew (revolute)
        self._k2 = np.zeros((n, 4, 4), dtype=self.dtype)  # skew^2 (revolute)
        self._d = np.zeros((n, 4, 4), dtype=self.dtype)  # slide (prismatic)
        self._revolute_mask = np.zeros(n, dtype=bool)
        self._prismatic_mask = np.zeros(n, dtype=bool)
        for i, joint in enumerate(self.joints):
            if joint.joint_type == GenericJointType.REVOLUTE:
                skew = _skew(joint.axis)
                self._k[i, :3, :3] = skew
                self._k2[i, :3, :3] = skew @ skew
                self._revolute_mask[i] = True
            elif joint.joint_type == GenericJointType.PRISMATIC:
                self._d[i, :3, 3] = joint.axis
                self._prismatic_mask[i] = True
        self._lower = np.array([j.limits.lower for j in self._movable])
        self._upper = np.array([j.limits.upper for j in self._movable])

    # ------------------------------------------------------------------
    # Interface shared with KinematicChain
    # ------------------------------------------------------------------

    @property
    def dof(self) -> int:
        """Number of movable joints (length of ``q``)."""
        return len(self._movable)

    @property
    def n_joints(self) -> int:
        """Alias of :attr:`dof`."""
        return self.dof

    @property
    def n_structural_joints(self) -> int:
        """All joints including fixed ones."""
        return len(self.joints)

    @property
    def lower_limits(self) -> np.ndarray:
        """Per-movable-joint lower limits."""
        return self._lower.copy()

    @property
    def upper_limits(self) -> np.ndarray:
        """Per-movable-joint upper limits."""
        return self._upper.copy()

    def astype(self, dtype: np.dtype | type) -> "GenericChain":
        """Copy of the chain computing in a different dtype."""
        return GenericChain(
            self.joints, base=self.base, tool=self.tool, name=self.name, dtype=dtype
        )

    def clamp(self, q: np.ndarray) -> np.ndarray:
        """Clamp a configuration into the joint limits."""
        return np.clip(np.asarray(q, dtype=float), self._lower, self._upper)

    def within_limits(self, q: np.ndarray, tol: float = 0.0) -> bool:
        """True when every joint value respects its limits."""
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self._lower - tol) and np.all(q <= self._upper + tol))

    def random_configuration(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random configuration inside the limits."""
        return rng.uniform(self._lower, self._upper)

    def total_reach(self) -> float:
        """Conservative workspace radius: sum of origin offsets + travel."""
        reach = 0.0
        for joint in self.joints:
            reach += float(np.linalg.norm(np.asarray(joint.origin)[:3, 3]))
            if joint.joint_type == GenericJointType.PRISMATIC:
                reach += max(abs(joint.limits.lower), abs(joint.limits.upper))
        reach += float(np.linalg.norm(self.tool[:3, 3]))
        return reach

    def joint_tip_distance_bounds(self) -> np.ndarray:
        """Upper bound on the distance from each movable joint to the tip
        (used by :func:`~repro.solvers.jacobian_transpose.
        classic_transpose_gain`)."""
        tail = float(np.linalg.norm(self.tool[:3, 3]))
        bounds_rev = []
        for joint in reversed(self.joints):
            if joint.is_movable:
                # `tail` currently sums the origin offsets and prismatic
                # travels of every joint strictly distal of this one — an
                # upper bound on ||p_ee - o_joint||.
                bounds_rev.append(tail)
            tail += float(np.linalg.norm(np.asarray(joint.origin)[:3, 3]))
            if joint.joint_type == GenericJointType.PRISMATIC:
                tail += max(abs(joint.limits.lower), abs(joint.limits.upper))
        return np.array(bounds_rev[::-1])

    def _check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=self.dtype)
        if q.shape != (self.dof,):
            raise ValueError(
                f"expected configuration of shape ({self.dof},), got {q.shape}"
            )
        return q

    # ------------------------------------------------------------------
    # Forward kinematics
    # ------------------------------------------------------------------

    def _structural_values(self, q: np.ndarray) -> np.ndarray:
        """Expand ``q`` to one value per structural joint (0 for fixed)."""
        values = np.zeros(len(self.joints), dtype=self.dtype)
        for i, qi in enumerate(self._q_index):
            if qi >= 0:
                values[i] = q[qi]
        return values

    def local_transforms(self, q: np.ndarray) -> np.ndarray:
        """Per-structural-joint transforms ``O_i @ M_i(q)``; ``(S, 4, 4)``."""
        q = self._check_q(q)
        values = self._structural_values(q)
        eye = np.eye(4, dtype=self.dtype)
        motions = np.broadcast_to(eye, (len(self.joints), 4, 4)).copy()
        sin_v = np.sin(values)[:, None, None]
        cos_v = np.cos(values)[:, None, None]
        rev = self._revolute_mask
        motions[rev] += (sin_v * self._k + (1.0 - cos_v) * self._k2)[rev]
        pri = self._prismatic_mask
        motions[pri] += (values[:, None, None] * self._d)[pri]
        return self._origins @ motions

    def local_transforms_batch(self, qs: np.ndarray) -> np.ndarray:
        """Batched :meth:`local_transforms`; ``(B, S, 4, 4)``."""
        qs = np.asarray(qs, dtype=self.dtype)
        if qs.ndim != 2 or qs.shape[1] != self.dof:
            raise ValueError(f"expected batch of shape (B, {self.dof}), got {qs.shape}")
        batch = qs.shape[0]
        values = np.zeros((batch, len(self.joints)), dtype=self.dtype)
        for i, qi in enumerate(self._q_index):
            if qi >= 0:
                values[:, i] = qs[:, qi]
        eye = np.eye(4, dtype=self.dtype)
        motions = np.broadcast_to(
            eye, (batch, len(self.joints), 4, 4)
        ).copy()
        sin_v = np.sin(values)[..., None, None]
        cos_v = np.cos(values)[..., None, None]
        motions += self._revolute_mask[None, :, None, None] * (
            sin_v * self._k[None] + (1.0 - cos_v) * self._k2[None]
        )
        motions += self._prismatic_mask[None, :, None, None] * (
            values[..., None, None] * self._d[None]
        )
        return self._origins[None] @ motions

    def link_frames(self, q: np.ndarray) -> np.ndarray:
        """World frames of every structural joint incl. base; ``(S+1, 4, 4)``."""
        locals_ = self.local_transforms(q)
        frames = np.empty((len(self.joints) + 1, 4, 4), dtype=self.dtype)
        frames[0] = self.base
        for i in range(len(self.joints)):
            frames[i + 1] = frames[i] @ locals_[i]
        return frames

    def fk(self, q: np.ndarray) -> np.ndarray:
        """End-effector pose as a 4x4 transform."""
        return self.link_frames(q)[-1] @ self.tool

    def end_position(self, q: np.ndarray) -> np.ndarray:
        """End-effector position (3-vector)."""
        return self.fk(q)[:3, 3]

    def fk_batch(self, qs: np.ndarray) -> np.ndarray:
        """Batched end-effector poses; ``(B, 4, 4)``."""
        locals_ = self.local_transforms_batch(qs)
        pose = np.broadcast_to(self.base, (locals_.shape[0], 4, 4))
        pose = pose @ locals_[:, 0]
        for i in range(1, len(self.joints)):
            pose = pose @ locals_[:, i]
        return pose @ self.tool

    def end_positions_batch(self, qs) -> np.ndarray:
        """Batched end-effector positions; ``(B, 3)``.  A
        :class:`~repro.kinematics.kernels.SpeculationGrid` is materialised."""
        if isinstance(qs, SpeculationGrid):
            qs = qs.candidates()
        return self.fk_batch(qs)[:, :3, 3]

    # ------------------------------------------------------------------
    # Jacobians
    # ------------------------------------------------------------------

    def joint_screws(self, q: np.ndarray):
        """World axes/origins of the movable joints plus the tip position."""
        locals_ = self.local_transforms(q)
        frames = np.empty((len(self.joints) + 1, 4, 4), dtype=self.dtype)
        frames[0] = self.base
        for i in range(len(self.joints)):
            frames[i + 1] = frames[i] @ locals_[i]
        p_ee = (frames[-1] @ self.tool)[:3, 3]
        axes = []
        origins = []
        for i, joint in enumerate(self.joints):
            if not joint.is_movable:
                continue
            # The joint acts about its axis expressed in the frame *after*
            # the fixed origin (motion is applied after O_i); the rotation
            # part of M_i maps the axis to itself, so frames[i] @ O_i and
            # frames[i+1] give the same world axis.
            world = frames[i + 1]
            axes.append(world[:3, :3] @ joint.axis.astype(self.dtype))
            origins.append(world[:3, 3])
        return np.stack(axes), np.stack(origins), p_ee

    def jacobian_position(self, q: np.ndarray) -> np.ndarray:
        """Position Jacobian; shape ``(3, dof)``."""
        axes, origins, p_ee = self.joint_screws(q)
        movable_types = np.array(
            [j.joint_type == GenericJointType.REVOLUTE for j in self._movable]
        )
        linear = np.where(
            movable_types[:, None], np.cross(axes, p_ee - origins), axes
        )
        return linear.T

    def jacobian_position_batch(self, qs: np.ndarray) -> np.ndarray:
        """Position Jacobians for a batch of configurations; ``(B, 3, dof)``.

        Loop fallback (the generic chain is not the throughput hot path).
        """
        qs = np.asarray(qs, dtype=self.dtype)
        return np.stack([self.jacobian_position(q) for q in qs])

    def fk_jacobian_batch(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """End positions ``(B, 3)`` and position Jacobians ``(B, 3, dof)``;
        row ``i`` equals :meth:`end_position` / :meth:`jacobian_position`."""
        qs = np.asarray(qs, dtype=self.dtype)
        positions = np.stack([self.end_position(q) for q in qs])
        return positions, self.jacobian_position_batch(qs)

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        """Full geometric Jacobian; shape ``(6, dof)``."""
        axes, origins, p_ee = self.joint_screws(q)
        movable_types = np.array(
            [j.joint_type == GenericJointType.REVOLUTE for j in self._movable]
        )
        linear = np.where(
            movable_types[:, None], np.cross(axes, p_ee - origins), axes
        )
        angular = np.where(movable_types[:, None], axes, 0.0)
        return np.vstack([linear.T, angular.T])

    def __len__(self) -> int:
        return self.dof

    def __repr__(self) -> str:
        return (
            f"GenericChain(name={self.name!r}, dof={self.dof}, "
            f"structural={self.n_structural_joints})"
        )
