"""Control-loop utilities: Cartesian trajectory following on the IK solvers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.control.trajectory": (
        "TrackingReport",
        "TrajectoryFollower",
        "interpolate_line",
        "interpolate_waypoints",
    ),
})
