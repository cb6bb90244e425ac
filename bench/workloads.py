"""Seeded synthetic workloads for the benchmark.

Each workload is a mac-learner scenario written as an ordinary scenario
JSON file, so the simulator sees only what ``load_scenario`` reads. The
seed draws every event's switch, in-port and payload bytes; the shape
(variant, controller count, switches, ports, event count) is fixed per
workload. Links use the scenario model's single uniform ``latency``:
per-link latency and jitter do not exist in the model yet, and a jittered
workload belongs in its own benchmark change once they do.

This module imports nothing from ``sdnsim``; it only writes files.

    python3 bench/workloads.py --seed 7 --out /tmp/wl    # writes every workload
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # sdnsim commands run per iteration, in order
    variant: str
    n_controllers: int
    n_switches: int
    n_ports: int
    n_events: int
    # Whether a packet's destination may be an address learned earlier, so
    # that it can hit an installed flow and never reach the controllers.
    # Without hits every packet is one control-plane event and the work per
    # run does not depend on the seed.
    table_hits: bool
    why: str


# One event every EVENT_GAP ticks from t=FIRST_T, so later events overlap
# the replication and bundle rounds of earlier ones.
FIRST_T = 5
EVENT_GAP = 3
# Addresses are drawn from 1..N_ADDRESSES; with two switches the learned
# MAC table grows toward 2 * N_ADDRESSES entries on long runs. Without
# table hits, destinations come from the lower half and sources from the
# upper half, so no destination is ever learned.
N_ADDRESSES = 250

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="leader_sweep",
            commands=("run", "check", "sweep"),
            variant="PAPER_A", n_controllers=3, n_switches=2, n_ports=4,
            n_events=16, table_hits=False,
            why="Crashes the leader at every send/deliver point of a 16-event "
                "run: the quadratic sweep path, where prefix replay, the "
                "record/msg_to_wire path and per-trace checking all show. Uniform link latency."),
        Workload(
            name="long_run",
            commands=("run", "check"),
            variant="PAPER_A", n_controllers=3, n_switches=2, n_ports=4,
            n_events=1500, table_hits=True,
            why="One fault-free 1500-event run, traced and re-checked: costs "
                "that grow with run length (state digests, flow lookups, "
                "trace codec, checker, GC) and no sweep at all. Uniform link latency."),
        Workload(
            name="compare_wide",
            commands=("run", "check", "compare"),
            variant="PAPER_A", n_controllers=5, n_switches=8, n_ports=4,
            n_events=6, table_hits=False,
            why="All three variants on 5 controllers and 8 switches: NAIVE "
                "witness paths, PAPER_B ack cloning, n=5 fan-out, per-switch "
                "fence loops and short traces with high per-run fixed cost. Uniform link latency."),
    )
}


def scenario_obj(workload: Workload, seed: int) -> dict:
    """The workload's scenario in the on-disk JSON form; same seed, same object."""
    n_events = workload.n_events
    rng = random.Random(f"{workload.name}/{seed}")
    ports = list(range(1, workload.n_ports + 1))
    half = N_ADDRESSES // 2
    dsts, srcs = (((1, N_ADDRESSES), (1, N_ADDRESSES)) if workload.table_hits
                  else ((1, half), (half + 1, N_ADDRESSES)))
    events = []
    for k in range(n_events):
        dst = rng.randint(*dsts)
        src = rng.randint(*srcs)
        events.append({
            "t": FIRST_T + EVENT_GAP * k,
            "switch": rng.randrange(workload.n_switches),
            "in_port": rng.choice(ports),
            "payload": bytes([dst, src]).hex(),
        })
    return {
        "name": f"bench-{workload.name}-s{seed}",
        "variant": workload.variant,
        "n_controllers": workload.n_controllers,
        "switches": [{"id": s, "ports": ports, "flows": []}
                     for s in range(workload.n_switches)],
        "app": "mac-learner",
        "workload": events,
        "detector_delay": 2,
        "seed": seed,
        # The simulator's default limit of 10,000 processed events would
        # stall long workloads; allow far more than a fault-free run needs.
        "quiesce_limit": 100 * n_events + 1000,
        "latency": 1,
    }


def write_workload(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write ``<name>.json`` and, beside it, ``<name>.why`` with the reason
    the workload exists. Returns the scenario path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}.json"
    path.write_text(json.dumps(scenario_obj(workload, seed), indent=1) + "\n",
                    encoding="utf-8")
    (out_dir / f"{workload.name}.why").write_text(workload.why + "\n", encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    for name in names:
        print(write_workload(WORKLOADS[name], args.seed, args.out))


if __name__ == "__main__":
    main()
