"""Deterministic control-plane simulator and checker for replicated SDN
controllers that keep exactly-once event and command semantics over
unmodified OpenFlow 1.4 switches."""

from .checker import (Verdict, Witness, all_passed, classify_anomalies,
                      run_all_checks, summary_line)
from .metrics import MetricsReport, compute_metrics
from .netsim import (Simulation, enumerate_crash_points,
                     resolve_crash_target, run, sweep_crash_points)
from .scenario import (FaultSpec, Scenario, ScenarioError, SwitchSpec,
                       TracePointSpec, WorkloadItem, load_scenario,
                       scenario_from_obj, scenario_to_obj)
from .trace import Trace, TraceRecord

__all__ = [
    "FaultSpec", "MetricsReport", "Scenario", "ScenarioError", "Simulation",
    "SwitchSpec", "Trace", "TracePointSpec", "TraceRecord", "Verdict",
    "Witness", "WorkloadItem", "all_passed", "classify_anomalies",
    "compute_metrics", "enumerate_crash_points", "load_scenario",
    "resolve_crash_target", "run", "run_all_checks", "scenario_from_obj",
    "scenario_to_obj", "summary_line", "sweep_crash_points",
]
