"""Trace verdicts for the consistency properties.

P1 total event order, P2 no lost events, P3 no repeated events, P4
exactly-once commands, P5 replica convergence, P6 bundle atomicity.

Each property is a read-only function of ``_Run``, the one parsed view
of a trace, a fold over its records in order. It keeps no record and
builds no dict per record: an applied event is one tuple, and a command
summary is parsed only where P4 reads it. The fold also counts the
control messages delivered after setup and finds the ``sim`` STALL
record, so ``check_trace`` reads the verdicts, the message metrics and
the quiesce flag off one fresh fold of the whole trace; no code outside
trace I/O and the simulator walks a trace's records. The fold can be
continued with the records appended since (``update``) and copied
(``fork``): a ``Simulation`` keeps one and hands each of its forks a
copy, so a sweep fork's verdicts fold only the records past its fork
point. The checker trusts its input: a trace the simulator wrote, or one
that ``Trace.from_lines``, the one gate for trace files, accepted, so
the fold has no error paths.

Liveness-flavored obligations (P2, and P4's "commands eventually
execute" half) are only asserted when the CRASH records show at most
floor(n/2) crashes. Within that bound, a run that hit its quiesce limit,
as its ``sim`` STALL record shows, fails P2 with one ``no-progress``
witness; one that quiesced owes P2 and P4's completeness in full. The
safety halves are asserted unconditionally. Of the metadata, only the
controller count is read. Failed verdicts carry witnesses that cite real
steps.

The checker also owns what is made of verdicts: ``combined`` folds many
runs' verdicts into one per property, and ``summary_line`` writes the
``RESULT`` line that ends every command's output.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

from .ofmodel import decode_ack
from .trace import Trace

PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P6")

# witness tag (the text before a description's first colon) -> anomaly
ANOMALY_LABELS = {
    "order-divergence": "ORDER_DIVERGENCE",
    "lost-event": "LOST_EVENT",
    "no-progress": "NO_PROGRESS",
    "repeated-event": "REPEATED_EVENT",
    "repeated-command": "REPEATED_COMMAND",
    "spurious-effect": "REPEATED_COMMAND",
    "missing-command": "MISSING_COMMAND",
    "partial-bundle": "MISSING_COMMAND",
    "state-divergence": "STATE_DIVERGENCE",
}


@dataclass(frozen=True)
class Witness:
    steps: tuple[int, ...]
    description: str


@dataclass(frozen=True)
class Verdict:
    prop: str
    passed: bool
    witnesses: tuple[Witness, ...] = ()
    note: str = ""


def _verdict(prop: str, witnesses: list[Witness], note: str = "") -> Verdict:
    """A property's verdict: it passes exactly when nothing witnesses a
    violation."""
    return Verdict(prop, not witnesses, tuple(witnesses), note)


# ----------------------------------------------------------------------
# trace digestion

@dataclass(frozen=True)
class MetricsReport:
    """Control-message deliveries, setup-phase traffic (sent before the
    first workload injection) excluded, so the totals measure the
    per-event protocol cost: event fan-out, replication, command delivery
    and acknowledgement fan-out."""
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


class _Run:
    """The one parsed view of a trace that every property and the message
    metrics read: a fold over its records in step order, which also finds
    the ``sim`` STALL record (``stall_step`` is its step, or None for a run
    that quiesced). ``_Run(trace)`` folds the records the trace holds now,
    ``update`` the ones appended since, and ``fork`` copies the view for a
    copy of the trace to continue, so a sweep fork's view starts from its
    parent's. Each EVENT APPLY is kept as one ``(step, index, event,
    commands)`` tuple, ``commands`` being the record's summary string,
    which only ``committed_commands`` parses."""

    def __init__(self, trace: Trace):
        self.last_step = 0  # the records folded so far: steps run 1, 2, ... without gaps
        self.stall_step: Optional[int] = None
        # message type ("?" for a record without one) -> DELIVERs past setup
        self.delivered: Counter[str] = Counter()
        self.crashed: set[int] = set()  # the controllers CRASH records name
        # replica -> (index, digest, step) of its last APPLY, and its EVENT ones
        self.last_apply: dict[int, tuple[int, str, int]] = {}
        self.events: dict[int, list[tuple[int, int, str, str]]] = defaultdict(list)
        self.emitted: dict[str, int] = {}  # workload event -> first SEND step, in order
        # (switch, log index) -> steps executing that entry's command batch
        self.executions: dict[tuple[int, int], list[int]] = defaultdict(list)
        # switch -> (step, exec, bundle, staged) per EXEC; staged is the inner types
        # a BUNDLE_COMMIT's bundle staged, or None when no bundle was open under its id
        self.execs: dict[int, list[tuple]] = defaultdict(list)
        # (switch, connection, bundle id) -> inner types each open bundle staged
        self.open_bundles: dict[tuple[int, int, int], list[str]] = {}
        self.update(trace)

    def update(self, trace: Trace) -> None:
        """Fold the records ``trace`` appended since this view last folded it."""
        self.n: int = trace.meta["n_controllers"]
        self.variant: str = trace.meta.get("variant", "?")
        open_bundles, delivered = self.open_bundles, self.delivered
        for rec in islice(trace.records, self.last_step, None):
            kind, msg, detail = rec.kind, rec.msg, rec.detail
            if kind == "APPLY":
                rid, index = int(rec.actor[1:]), int(detail["index"])
                self.last_apply[rid] = (index, detail.get("digest", ""), rec.step)
                if detail["entry"] == "EVENT":
                    self.events[rid].append((rec.step, index, detail.get("event", ""),
                                             detail.get("commands", "")))
            elif kind == "SEND":
                # a switch's PacketIn carries a workload event or an ack
                if (msg and msg["type"] == "PacketIn" and rec.actor.startswith("s")
                        and decode_ack(bytes.fromhex(msg["payload"])) is None):
                    self.emitted.setdefault(msg["event"], rec.step)
            elif kind == "DELIVER":
                msg_type = msg["type"] if msg else "?"
                if detail.get("phase") != "setup":
                    delivered[msg_type] += 1
                if msg_type in ("BundleOpen", "BundleAdd"):
                    key = (int(rec.actor[1:]), int(rec.peer[1:]), msg["bundle_id"])
                    if msg_type == "BundleOpen":
                        # a re-open of a live id is rejected by the switch
                        open_bundles.setdefault(key, [])
                    elif key in open_bundles:
                        open_bundles[key].append(msg["inner"]["type"])
            elif kind == "CRASH":
                dead = int(rec.actor[1:])
                self.crashed.add(dead)
                for key in [k for k in open_bundles if k[1] == dead]:
                    del open_bundles[key]
            elif kind == "STALL" and rec.actor == "sim":
                self.stall_step = rec.step
            elif kind == "EXEC":
                sw = int(rec.actor[1:])
                exec_kind, index, staged = detail.get("exec"), None, None
                if exec_kind == "BUNDLE_COMMIT":
                    index = int(detail["bundle"])
                    staged = open_bundles.pop((sw, int(detail["from"]), index), None)
                elif detail.get("cmd_ord") == "0":
                    index = int(detail["cmd_index"])
                self.execs[sw].append((rec.step, exec_kind, detail.get("bundle"), staged))
                if index is not None:
                    self.executions[(sw, index)].append(rec.step)
        self.last_step = len(trace.records)

    def fork(self) -> "_Run":
        """A copy to be updated separately: its containers are copied, inner
        lists included, and the tuples and strings in them are shared."""
        new = copy.copy(self)
        new.delivered = self.delivered.copy()
        new.crashed = set(self.crashed)
        new.last_apply = dict(self.last_apply)
        new.emitted = dict(self.emitted)
        new.events, new.executions, new.execs = (
            defaultdict(list, {k: list(v) for k, v in lists.items()})
            for lists in (self.events, self.executions, self.execs))
        new.open_bundles = {k: list(v) for k, v in self.open_bundles.items()}
        return new

    @property
    def survivors(self) -> list[int]:
        return [c for c in range(self.n) if c not in self.crashed]

    @property
    def live(self) -> bool:
        """Whether the run owes liveness: at most floor(n/2) crashes."""
        return len(self.crashed) <= self.n // 2

    def verdicts(self) -> list[Verdict]:
        return [
            check_total_order(self),
            check_at_least_once(self),
            check_at_most_once(self),
            check_exactly_once_commands(self),
            check_replica_convergence(self),
            check_bundle_atomicity(self),
        ]

    def committed_commands(self) -> dict[tuple[int, int], int]:
        """(log index, switch) -> command count, unioned over survivors'
        ``switch=count,...`` summaries."""
        out: dict[tuple[int, int], int] = {}
        for rid in self.survivors:
            for _, index, _, commands in self.events.get(rid, []):
                for pair in commands.split(",") if commands else ():
                    sw, count = pair.split("=")
                    out[(index, int(sw))] = int(count)
        return out

    def metrics(self) -> MetricsReport:
        total = sum(self.delivered.values())
        n_events = len(self.emitted)
        return MetricsReport(self.variant, dict(self.delivered), total, n_events,
                             total / n_events if n_events else 0.0)


# ----------------------------------------------------------------------
# properties

def check_total_order(run: _Run) -> Verdict:
    """P1: all replicas apply events in prefix-comparable order."""
    witnesses: list[Witness] = []
    # a replica that applied no event diverges from none
    for a, b in combinations(sorted(run.events), 2):
        for k, ((step_a, _, ea, _), (step_b, _, eb, _)) in enumerate(
                zip(run.events[a], run.events[b]), 1):
            if ea != eb:
                witnesses.append(Witness(
                    (step_a, step_b),
                    f"order-divergence: c{a} applied {ea} at position "
                    f"{k} where c{b} applied {eb}"))
                break
    return _verdict("P1", witnesses)


def check_at_least_once(run: _Run) -> Verdict:
    """P2: a run within the fault bound quiesces, and every switch-emitted
    event is applied by every surviving replica."""
    if not run.live:
        return _verdict("P2", [], note="not checked: requires quiescence and at "
                                        "most floor(n/2) crashes")
    if run.stall_step is not None:
        return _verdict("P2", [Witness((run.stall_step,), (
            f"no-progress: run hit its quiesce limit with {len(run.crashed)} of "
            f"{run.n} controllers crashed"))])
    witnesses: list[Witness] = []
    for rid in run.survivors:
        applied = {event for _, _, event, _ in run.events.get(rid, [])}
        for event, step in run.emitted.items():
            if event not in applied:
                witnesses.append(Witness(
                    (step,), f"lost-event: {event} emitted but never applied by c{rid}"))
    return _verdict("P2", witnesses)


def check_at_most_once(run: _Run) -> Verdict:
    """P3: no replica applies the same event twice."""
    witnesses: list[Witness] = []
    for rid in range(run.n):
        seen: dict[str, int] = {}
        for step, _, event, _ in run.events.get(rid, []):
            if event in seen:
                witnesses.append(Witness(
                    (seen[event], step), f"repeated-event: c{rid} applied {event} twice"))
            else:
                seen[event] = step
    return _verdict("P3", witnesses)


def check_exactly_once_commands(run: _Run) -> Verdict:
    """P4: each committed entry's command batch executes exactly once on its
    switch. Duplicates are flagged unconditionally; missing executions only
    under quiescence and the fault bound."""
    witnesses: list[Witness] = []
    executions = run.executions
    for (sw, index), steps in sorted(executions.items()):
        if len(steps) > 1:
            witnesses.append(Witness(
                tuple(steps),
                f"repeated-command: batch for index {index} executed "
                f"{len(steps)} times on s{sw}"))

    note = ""
    if run.live and run.stall_step is None:
        committed = run.committed_commands()
        for (index, sw), count in sorted(committed.items()):
            if count and (sw, index) not in executions:
                witnesses.append(Witness(
                    (run.last_step,),
                    f"missing-command: committed index {index} never executed "
                    f"on s{sw}"))
        owned = {(sw, index) for (index, sw) in committed}
        for (sw, index), steps in sorted(executions.items()):
            if (sw, index) not in owned:
                witnesses.append(Witness(
                    tuple(steps),
                    f"repeated-command: execution on s{sw} for index {index} "
                    f"which is not a committed entry with commands"))
    else:
        note = "completeness not checked: requires quiescence and at most " \
               "floor(n/2) crashes"
    return _verdict("P4", witnesses, note)


def check_replica_convergence(run: _Run) -> Verdict:
    """P5: surviving replicas end at the same applied index and app state."""
    if run.stall_step is not None:
        return _verdict("P5", [], note="not checked: requires quiescence")
    finals = {rid: run.last_apply.get(rid, (0, "-", 0)) for rid in run.survivors}
    witnesses: list[Witness] = []
    if finals:
        rids = sorted(finals)
        ref = finals[rids[0]]
        for rid in rids[1:]:
            if finals[rid][:2] != ref[:2]:
                steps = tuple(s for s in (ref[2], finals[rid][2]) if s)
                witnesses.append(Witness(
                    steps or (run.last_step,),
                    f"state-divergence: c{rids[0]} ended at index {ref[0]} "
                    f"digest {ref[1]} but c{rid} at index {finals[rid][0]} "
                    f"digest {finals[rid][1]}"))
    return _verdict("P5", witnesses)


# a staged message's type -> the EXEC its commit should log for it
_EXEC_KINDS = {"FlowMod": "FLOWMOD", "PacketOut": "PACKETOUT"}


def check_bundle_atomicity(run: _Run) -> Verdict:
    """P6: staged effects appear contiguously after their bundle's commit,
    and discarded bundles leave no effects."""
    witnesses: list[Witness] = []
    for sw, execs in sorted(run.execs.items()):
        j = 0
        while j < len(execs):
            step, exec_kind, bundle, staged = execs[j]
            j += 1
            if exec_kind == "BUNDLE_COMMIT":
                if staged is None:
                    witnesses.append(Witness((step,), f"spurious-effect: commit of bundle "
                                             f"{bundle} on s{sw} with no staged content"))
                elif [(b, k) for _, k, b, _ in execs[j: j + len(staged)]] == [
                        (bundle, _EXEC_KINDS.get(t)) for t in staged]:
                    j += len(staged)
                else:
                    witnesses.append(Witness(
                        (step,), f"partial-bundle: bundle {bundle} on s{sw} did not "
                                 f"apply its {len(staged)} staged messages contiguously"))
                    while j < len(execs) and execs[j][2] == bundle:
                        j += 1  # already covered by the partial-bundle witness
            elif bundle is not None:
                witnesses.append(Witness((step,), f"spurious-effect: bundled effect on s{sw} "
                                         f"outside any commit window (bundle {bundle})"))
    return _verdict("P6", witnesses)


# ----------------------------------------------------------------------

def check_trace(trace: Trace) -> tuple[list[Verdict], MetricsReport, bool]:
    """The verdicts, the message metrics and whether the run quiesced,
    all read from one pass over ``trace``."""
    run = _Run(trace)
    return run.verdicts(), run.metrics(), run.stall_step is None


def run_all_checks(trace: Trace) -> list[Verdict]:
    return _Run(trace).verdicts()


def compute_metrics(trace: Trace) -> MetricsReport:
    return _Run(trace).metrics()


def classify_anomalies(verdicts: list[Verdict]) -> list[str]:
    """Map the witnesses of failed properties to the anomaly taxonomy."""
    return sorted({ANOMALY_LABELS[w.description.split(":", 1)[0]]
                   for v in verdicts for w in v.witnesses})


def all_passed(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)


def combined(runs: list[list[Verdict]]) -> list[Verdict]:
    """One verdict per property over many runs' ``run_all_checks``
    results, carrying every run's witnesses: it fails exactly when some
    run fails it. With no runs, every property passes."""
    return [_verdict(prop, [w for verdicts in runs for w in verdicts[i].witnesses])
            for i, prop in enumerate(PROPERTIES)]


def summary_line(verdicts: list[Verdict], passed: Optional[bool] = None) -> str:
    """The ``RESULT pass|fail P1=+ ... P6=+`` line. The status is
    ``passed`` when given, for a caller whose status also rests on
    something besides the verdicts, and otherwise whether all passed."""
    if passed is None:
        passed = all_passed(verdicts)
    flags = " ".join(f"{v.prop}={'+' if v.passed else '-'}" for v in verdicts)
    return f"RESULT {'pass' if passed else 'fail'} {flags}"
