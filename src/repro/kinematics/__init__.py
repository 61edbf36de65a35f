"""Kinematics substrate: transforms, DH links, chains, Jacobians, robots."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.kinematics.chain": ("KinematicChain",),
    "repro.kinematics.generic": ("GenericChain", "GenericJoint", "GenericJointType"),
    "repro.kinematics.urdf": (
        "UrdfError",
        "chain_to_urdf",
        "load_urdf",
        "load_urdf_file",
    ),
    "repro.kinematics.kernels": ("chain_fingerprint",),
    "repro.kinematics.io": (
        "chain_from_dict",
        "chain_to_dict",
        "load_chain",
        "save_chain",
    ),
    "repro.kinematics.workspace": (
        "WorkspaceReport",
        "safe_shell_fraction",
        "sample_workspace",
    ),
    "repro.kinematics.dh": ("DHConvention", "DHLink", "dh_transform"),
    "repro.kinematics.joint": ("Joint", "JointLimits", "JointType"),
    "repro.kinematics.robots": (
        "PAPER_DOFS",
        "hyper_redundant_chain",
        "named_robot",
        "paper_chain",
        "planar_chain",
        "puma560",
        "random_chain",
        "seven_dof_arm",
        "stanford_arm",
        "ur5",
    ),
})
