"""
A first run: one switch, one packet, three replicated controllers
=================================================================

The packet misses the (empty) flow table, so the switch reports it to every
controller. The leader appends it to the replicated log; once a majority
acknowledges, every replica applies it, and the leader installs the resulting
route inside an atomic bundle that carries a commit acknowledgement back to
all three controllers.
"""

from sdnsim import (AppConfig, Route, Scenario, Simulation, SwitchSpec, WorkloadItem,
                    check_trace, summary_line)

scenario = Scenario(
    name="first-run",
    variant="PAPER_A",
    n_controllers=3,
    switches=(SwitchSpec(id=0, ports=(1, 2)),),
    app="static-router",
    app_config=AppConfig(routes=(Route(prefix=b"\x02", port=2),)),
    workload=(WorkloadItem(t=5, switch=0, in_port=1,
                           payload=bytes.fromhex("02aa")),),
)

trace = Simulation(scenario).run()
verdicts, report, quiesced = check_trace(trace)

print(f"{len(trace.records)} trace records; quiesced={quiesced}\n")

# the protocol, step by step (setup omitted)
for rec in trace.records:
    if rec.detail.get("phase") == "setup" or rec.kind == "SEND":
        continue
    msg = f" {rec.msg['type']:<16}" if rec.msg else " " * 17
    extra = ""
    if rec.kind == "APPLY":
        extra = f" index={rec.detail['index']} event={rec.detail.get('event', '-')}"
    if rec.kind == "EXEC":
        extra = f" {rec.detail['exec']}" + (
            f" bundle={rec.detail['bundle']}" if "bundle" in rec.detail else "")
    peer = f" <- {rec.peer}" if rec.peer else ""
    print(f"t={rec.t:<3} {rec.kind:<8} {rec.actor:<3}{peer}{msg}{extra}")

print()
for line in report.lines():
    print(line)
print()
print(summary_line(verdicts))
