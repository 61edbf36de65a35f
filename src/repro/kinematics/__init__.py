"""Kinematics substrate: transforms, DH links, chains, Jacobians, robots."""

from repro.kinematics.chain import KinematicChain
from repro.kinematics.dh import DHConvention, DHLink, dh_transform
from repro.kinematics.generic import GenericChain, GenericJoint, GenericJointType
from repro.kinematics.io import chain_from_dict, chain_to_dict, load_chain, save_chain
from repro.kinematics.joint import Joint, JointLimits, JointType
from repro.kinematics.kernels import chain_fingerprint
from repro.kinematics.robots import (
    PAPER_DOFS,
    hyper_redundant_chain,
    named_robot,
    paper_chain,
    planar_chain,
    puma560,
    random_chain,
    seven_dof_arm,
    stanford_arm,
    ur5,
)
from repro.kinematics.urdf import UrdfError, chain_to_urdf, load_urdf, load_urdf_file
from repro.kinematics.workspace import WorkspaceReport, safe_shell_fraction, sample_workspace

__all__ = [
    "KinematicChain",
    "GenericChain",
    "GenericJoint",
    "GenericJointType",
    "UrdfError",
    "chain_fingerprint",
    "chain_from_dict",
    "chain_to_dict",
    "load_chain",
    "save_chain",
    "chain_to_urdf",
    "load_urdf",
    "load_urdf_file",
    "WorkspaceReport",
    "safe_shell_fraction",
    "sample_workspace",
    "ur5",
    "DHConvention",
    "DHLink",
    "dh_transform",
    "Joint",
    "JointLimits",
    "JointType",
    "PAPER_DOFS",
    "hyper_redundant_chain",
    "named_robot",
    "paper_chain",
    "planar_chain",
    "puma560",
    "random_chain",
    "seven_dof_arm",
    "stanford_arm",
]
