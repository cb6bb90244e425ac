"""
Exactly-once commands across the three dangerous crash timings
==============================================================

The master can die (a) before its bundle commit reaches the switch, (b) after
the switch committed but before the acknowledgements reach the backups, or
(c) after everyone saw the acknowledgement. Case (a) must be resent; cases
(b) and (c) must not be. The new master distinguishes them without any switch
modification: it takes mastership with a RoleRequest and, because the control
channel is FIFO, every acknowledgement the switch emitted before the role
change has arrived by the time the RoleReply does.
"""

from sdnsim import (AppConfig, FaultSpec, Route, Scenario, Simulation, SwitchSpec,
                    TracePointSpec, WorkloadItem, all_passed, run_all_checks)

base = Scenario(
    name="failover-timings",
    variant="PAPER_A",
    n_controllers=3,
    switches=(SwitchSpec(id=0, ports=(1, 2)),),
    app="static-router",
    app_config=AppConfig(routes=(Route(prefix=b"\x02", port=2),)),
    workload=(WorkloadItem(t=5, switch=0, in_port=1,
                           payload=bytes.fromhex("02aa")),),
)

timings = [
    ("(a) crash before the commit is delivered",
     TracePointSpec("SEND", "BundleCommit", 1)),
    ("(b) crash after the commit, before the acks arrive",
     TracePointSpec("DELIVER", "BundleCtrlReply", 1)),
    ("(c) crash after the acks arrived",
     TracePointSpec("DELIVER", "PacketIn", 2)),
]

for label, point in timings:
    scenario = base.with_extra_fault(FaultSpec(target=0, at_point=point))
    trace = Simulation(scenario).run()

    commits = [r for r in trace.records
               if r.kind == "EXEC" and r.detail.get("exec") == "BUNDLE_COMMIT"]
    resends = [r for r in trace.records
               if r.kind == "SEND" and r.actor == "c1"
               and (r.msg or {}).get("type") == "BundleCommit"]
    drops = [r for r in trace.records
             if r.kind == "DROP" and r.detail.get("reason") == "crash"]

    print(label)
    print(f"    bundle commits on s0: {len(commits)} "
          f"(bundle ids {[c.detail['bundle'] for c in commits]})")
    print(f"    messages dropped with the dead master: {len(drops)}")
    print(f"    new master resent the bundle: {'yes' if resends else 'no'}")
    print(f"    all properties hold: {all_passed(run_all_checks(trace))}")
    print()
