"""Deterministic control-plane simulator and checker for replicated SDN
controllers that keep exactly-once event and command semantics over
unmodified OpenFlow 1.4 switches."""

from .checker import (MetricsReport, Verdict, Witness, all_passed, check_trace,
                      classify_anomalies, compute_metrics, run_all_checks, summary_line)
from .netsim import (Simulation, enumerate_crash_points,
                     resolve_crash_target, sweep_crash_points)
from .scenario import (AppConfig, FaultSpec, Route, Scenario, ScenarioError,
                       SwitchSpec, TracePointSpec, WorkloadItem, load_scenario,
                       scenario_from_obj, scenario_to_obj)
from .trace import Trace, TraceRecord

__all__ = [
    "AppConfig", "FaultSpec", "MetricsReport", "Route", "Scenario",
    "ScenarioError", "Simulation", "SwitchSpec", "Trace", "TracePointSpec",
    "TraceRecord", "Verdict", "Witness", "WorkloadItem", "all_passed",
    "check_trace", "classify_anomalies",
    "compute_metrics", "enumerate_crash_points", "load_scenario",
    "resolve_crash_target", "run_all_checks", "scenario_from_obj",
    "scenario_to_obj", "summary_line", "sweep_crash_points",
]
