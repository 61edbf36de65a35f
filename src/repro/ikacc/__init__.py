"""IKAcc: cycle-level simulator of the paper's accelerator (Section 5)."""

from repro.ikacc.accelerator import IKAccRunResult, IKAccSimulator
from repro.ikacc.config import DatapathTiming, IKAccConfig
from repro.ikacc.fku import ForwardKinematicsUnit
from repro.ikacc.multi import MultiProblemIKAcc, ThroughputReport
from repro.ikacc.opcounts import OpCounts
from repro.ikacc.power import (
    COMPONENT_LIBRARY,
    PAPER_AREA_MM2,
    PAPER_AVG_POWER_W,
    IKAccPowerModel,
)
from repro.ikacc.quantization import fk_precision_report, precision_margin
from repro.ikacc.scheduler import ParallelSearchScheduler, Wave
from repro.ikacc.selector import ParameterSelector
from repro.ikacc.spu import SerialProcessUnit
from repro.ikacc.ssu import SpeculativeSearchUnit
from repro.ikacc.trace import (
    IterationTrace,
    TraceEvent,
    render_gantt,
    trace_from_telemetry,
    trace_iteration,
)

__all__ = [
    "IKAccRunResult",
    "IKAccSimulator",
    "DatapathTiming",
    "IKAccConfig",
    "ForwardKinematicsUnit",
    "OpCounts",
    "MultiProblemIKAcc",
    "ThroughputReport",
    "COMPONENT_LIBRARY",
    "PAPER_AREA_MM2",
    "PAPER_AVG_POWER_W",
    "IKAccPowerModel",
    "fk_precision_report",
    "precision_margin",
    "ParallelSearchScheduler",
    "Wave",
    "ParameterSelector",
    "SerialProcessUnit",
    "SpeculativeSearchUnit",
    "IterationTrace",
    "TraceEvent",
    "render_gantt",
    "trace_from_telemetry",
    "trace_iteration",
]
