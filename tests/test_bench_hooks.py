"""The entry points the benchmark's traced run wraps, and the package-level
names its runner calls, stay where it looks them up.

``bench/spans.py`` times each layer by replacing these attributes on
their owners: a module, a class, or (for the exec log it reads) a switch
instance. A rename or move would otherwise surface only in a traced
benchmark run. ``bench/run.py`` also calls a few names on the ``sdnsim``
package itself. The list is copied from those files, which are not
imported, so a change to the benchmark alone cannot break this test.
"""

import pytest

import sdnsim
from sdnsim import apps, checker, cli, netsim, ofmodel, replica, switchsim, trace

HOOKS = [
    # called on the package by bench/run.py, most only when a sweep
    # raises, which no passing run reaches
    *((sdnsim, name) for name in (
        "load_scenario", "Trace", "Simulation", "enumerate_crash_points",
        "run_all_checks", "all_passed")),
    (cli, "main"), (cli, "load_scenario"), (cli, "enumerate_crash_points"),
    (cli, "run_all_checks"), (cli, "compute_metrics"),
    (netsim.Simulation, "__init__"), (netsim.Simulation, "run"), (netsim, "msg_to_wire"),
    *((replica.Replica, method) for method in (
        "startup", "on_switch_message", "on_replica_message", "on_failure_notice")),
    (replica, "state_digest"), (replica, "decode_ack"), (ofmodel, "decode_ack"),
    (apps.MacLearner, "step"), (apps.StaticRouter, "step"),
    *((switchsim.SwitchState, method) for method in (
        "handle_message", "on_connection_drop", "inject_data_packet")),
    (trace.Trace, "append"), (trace.Trace, "write"), (trace.Trace, "read"),
    *((checker, fn) for fn in (
        "check_total_order", "check_at_least_once", "check_at_most_once",
        "check_exactly_once_commands", "check_replica_convergence",
        "check_bundle_atomicity")),
    (checker._Run, "__init__"),
]


@pytest.mark.parametrize("owner, attr", HOOKS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in HOOKS])
def test_wrapped_entry_point_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)  # the wrapper replaces it there, not on a base class
    assert callable(getattr(owner, attr))


def test_switch_exec_log_is_an_instance_list():
    sw = switchsim.SwitchState(0, [0, 1, 2])
    assert isinstance(vars(sw)["exec_log"], list)
