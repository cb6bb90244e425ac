"""
What the guarantees cost in control messages
============================================

For one event producing one command with n controllers, the protocol delivers

    n          event copies (one per controller)
    3(n-1)     replication traffic (append, ack, commit-advance)
    k+3        bundle messages (open, k commands, the ack packet-out, commit)
    2          bundle replies (open ok, commit ok)
    n          acknowledgement copies

which is 18 for n=3, k=1. The naive baseline sends the command bare: no
bundle, no replies, no ack fan-out. The difference is the price of knowing,
at every controller, exactly which commands every switch has executed.
"""

from sdnsim import (AppConfig, Route, Scenario, Simulation, SwitchSpec, WorkloadItem,
                    compute_metrics)

base = Scenario(
    name="costs",
    variant="PAPER_A",
    n_controllers=3,
    switches=(SwitchSpec(id=0, ports=(1, 2)),),
    app="static-router",
    app_config=AppConfig(routes=(Route(prefix=b"\x02", port=2),)),
    workload=(WorkloadItem(t=5, switch=0, in_port=1,
                           payload=bytes.fromhex("02aa")),),
)

n, k = 3, 1
formula = n + 3 * (n - 1) + (k + 3) + 2 + n
print(f"hand formula for n={n}, k={k}: "
      f"{n} + {3 * (n - 1)} + {k + 3} + 2 + {n} = {formula}\n")

for variant in ("PAPER_A", "PAPER_B", "NAIVE"):
    report = compute_metrics(Simulation(base.with_variant(variant)).run())
    print(f"{variant}: {report.total} deliveries")
    for kind, count in sorted(report.per_kind.items()):
        print(f"    {kind:<16} {count}")
    print()
