"""
Exhaustive leader-crash sweep: the protocol versus the naive baseline
=====================================================================

Run the same five-packet learning-switch workload, crash the lead controller
at every point where it sends or delivers a message, and check every run.
The bundle-ack protocol survives every crash point. The naive baseline --
identical replication, but bare unacknowledged commands -- duplicates
commands at every point where the old master died after a switch had already
executed them; and once slaves stop registering for switch events (the
protocol's other half), events are lost outright.
"""

from sdnsim import (Simulation, SwitchSpec, Scenario, WorkloadItem, all_passed,
                    classify_anomalies, sweep_crash_points)


def scenario(variant, suppress=False):
    packets = [
        (5, 0, 1, 0x02, 0x01),
        (8, 0, 2, 0x01, 0x02),
        (11, 1, 1, 0x09, 0x08),
        (14, 0, 3, 0x02, 0x03),
        (17, 1, 2, 0x08, 0x09),
    ]
    return Scenario(
        name=f"sweep-{variant.lower()}",
        variant=variant,
        n_controllers=3,
        switches=(SwitchSpec(id=0, ports=(1, 2, 3)),
                  SwitchSpec(id=1, ports=(1, 2))),
        app="mac-learner",
        workload=tuple(WorkloadItem(t=t, switch=s, in_port=p,
                                    payload=bytes([dst, src]))
                       for t, s, p, dst, src in packets),
        suppress_slave_events=suppress,
    )


for variant, suppress in [("PAPER_A", False), ("PAPER_B", False),
                          ("NAIVE", False), ("NAIVE", True)]:
    points = []
    by_anomaly = {}
    # the sweep hands back one crashed, unrun fork of the fault-free run per
    # group of event boundaries; run from there, it stands for every point
    # of the group: each point at its first boundary crashes there, and a
    # later boundary joins only after a lone same-tick delivery to the
    # target, which the crash commutes with; the fork's checker view starts
    # from the fault-free prefix's, so checking it reads only its own suffix
    for fork_points, fork in sweep_crash_points(Simulation(scenario(variant, suppress)), 0):
        points.extend(fork_points)
        fork.run()
        verdicts = fork.verdicts()
        if not all_passed(verdicts):
            for label in classify_anomalies(verdicts):
                by_anomaly.setdefault(label, []).extend(p.occurrence for p in fork_points)

    name = variant + (" (master-only events)" if suppress else "")
    print(f"{name}: {len(points)} crash points")
    if not by_anomaly:
        print("    every crash point passes P1..P6")
    for label, occurrences in sorted(by_anomaly.items()):
        shown = ", ".join(map(str, occurrences[:8]))
        more = "" if len(occurrences) <= 8 else f", ... ({len(occurrences)} total)"
        print(f"    {label} at points {shown}{more}")
    print()
