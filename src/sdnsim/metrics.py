"""Control-message accounting, recomputable from any trace.

Setup-phase traffic (sent before the first workload injection) is excluded
so the totals measure the per-event protocol cost: event fan-out,
replication, command delivery, and acknowledgement fan-out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .checker import workload_event
from .trace import Trace


@dataclass(frozen=True)
class MetricsReport:
    variant: str
    per_kind: dict[str, int]
    total: int
    n_events: int
    per_event: float

    def lines(self) -> list[str]:
        out = [f"control-message deliveries ({self.variant}, setup excluded):"]
        for kind, count in sorted(self.per_kind.items()):
            out.append(f"  {kind:<16} {count}")
        out.append(f"  {'total':<16} {self.total}")
        out.append(f"  events={self.n_events} per-event={self.per_event:.1f}")
        return out


def compute_metrics(trace: Trace) -> MetricsReport:
    per_kind: Counter[str] = Counter()
    events = set()
    for rec in trace.records:
        if rec.kind == "DELIVER" and rec.detail.get("phase") != "setup":
            per_kind[(rec.msg or {}).get("type", "?")] += 1
        elif rec.kind == "SEND" and (event := workload_event(rec)) is not None:
            events.add(event)

    total = sum(per_kind.values())
    n_events = len(events)
    return MetricsReport(
        variant=trace.meta.get("variant", "?"),
        per_kind=dict(per_kind),
        total=total,
        n_events=n_events,
        per_event=(total / n_events) if n_events else 0.0,
    )
