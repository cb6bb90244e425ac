"""Trace verdicts for the consistency properties.

P1 total event order, P2 no lost events, P3 no repeated events, P4
exactly-once commands, P5 replica convergence, P6 bundle atomicity.

All checks are read-only functions of one trace. Liveness-flavored
obligations (P2, and P4's "commands eventually execute" half) are only
asserted when the run quiesced with at most floor(n/2) crashes; the
safety halves are asserted unconditionally. Failed verdicts carry
witnesses that cite real trace steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ofmodel import ACK_MARKER
from .trace import Trace

PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P6")

ANOMALY_LABELS = {
    "P1": "ORDER_DIVERGENCE",
    "P2": "LOST_EVENT",
    "P3": "REPEATED_EVENT",
    "P5": "STATE_DIVERGENCE",
}


class CheckError(Exception):
    """Malformed trace: the checker refuses to issue a verdict."""


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


def _fail(prop: str, witnesses: list[Witness], note: str = "") -> Verdict:
    return Verdict(prop, False, tuple(witnesses), note)


def _pass(prop: str, note: str = "") -> Verdict:
    return Verdict(prop, True, (), note)


# ----------------------------------------------------------------------
# trace digestion

class _Run:
    """Pre-parsed view of one trace."""

    def __init__(self, trace: Trace):
        meta = trace.meta
        try:
            self.n: int = meta["n_controllers"]
            self.variant: str = meta["variant"]
            self.quiesced: bool = meta["quiesced"]
            self.crashed: set[int] = set(meta["crashed"])
        except KeyError as exc:
            raise CheckError(f"trace metadata missing {exc}") from exc
        self.records = trace.records
        self.survivors = [c for c in range(self.n) if c not in self.crashed]

        # APPLY records per replica, in step order
        self.applies: dict[int, list[dict]] = {c: [] for c in range(self.n)}
        for rec in self.records:
            if rec.kind != "APPLY":
                continue
            rid = _ctrl_id(rec.actor)
            entry = {"step": rec.step, "detail": rec.detail}
            try:
                entry["index"] = int(rec.detail["index"])
                entry["kind"] = rec.detail["entry"]
            except (KeyError, ValueError) as exc:
                raise CheckError(f"malformed APPLY record at step {rec.step}") from exc
            if entry["kind"] == "EVENT":
                entry["event"] = rec.detail.get("event", "")
                entry["commands"] = _parse_commands(rec.detail.get("commands", ""),
                                                    rec.step)
            entry["digest"] = rec.detail.get("digest", "")
            self.applies.setdefault(rid, []).append(entry)

    @property
    def fault_bound_ok(self) -> bool:
        return len(self.crashed) <= self.n // 2

    def event_applies(self, rid: int) -> list[dict]:
        return [a for a in self.applies.get(rid, []) if a["kind"] == "EVENT"]

    def committed_commands(self) -> dict[tuple[int, int], int]:
        """(log index, switch) -> command count, unioned over survivors."""
        out: dict[tuple[int, int], int] = {}
        for rid in self.survivors:
            for a in self.event_applies(rid):
                for sw, count in a["commands"].items():
                    out[(a["index"], sw)] = count
        return out


def _ctrl_id(actor: str) -> int:
    if not actor.startswith("c"):
        raise CheckError(f"expected controller actor, got {actor!r}")
    return int(actor[1:])


def _parse_commands(text: str, step: int) -> dict[int, int]:
    if not text:
        return {}
    out = {}
    try:
        for part in text.split(","):
            sw, count = part.split("=")
            out[int(sw)] = int(count)
    except ValueError as exc:
        raise CheckError(f"malformed commands detail at step {step}") from exc
    return out


def _detail_int(rec, key: str) -> int:
    try:
        return int(rec.detail[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed {rec.kind} record at step {rec.step}: "
                         f"detail.{key} missing or not an integer") from exc


def _is_ack_hex(payload_hex: str) -> bool:
    return bytes.fromhex(payload_hex).startswith(ACK_MARKER)


# ----------------------------------------------------------------------
# properties

def check_total_order(trace: Trace) -> Verdict:
    """P1: all replicas apply events in prefix-comparable order."""
    run = _Run(trace)
    seqs = {rid: [(a["event"], a["step"]) for a in run.event_applies(rid)]
            for rid in range(run.n)}
    witnesses: list[Witness] = []
    rids = sorted(seqs)
    for i, a in enumerate(rids):
        for b in rids[i + 1:]:
            sa, sb = seqs[a], seqs[b]
            for k in range(min(len(sa), len(sb))):
                if sa[k][0] != sb[k][0]:
                    witnesses.append(Witness(
                        (sa[k][1], sb[k][1]),
                        f"order-divergence: c{a} applied {sa[k][0]} at position "
                        f"{k + 1} where c{b} applied {sb[k][0]}"))
                    break
    return _fail("P1", witnesses) if witnesses else _pass("P1")


def check_at_least_once(trace: Trace) -> Verdict:
    """P2: every switch-emitted event is applied by every surviving replica."""
    run = _Run(trace)
    if not run.quiesced or not run.fault_bound_ok:
        return _pass("P2", note="not checked: requires quiescence and at most "
                                 "floor(n/2) crashes")
    emitted: dict[str, int] = {}
    for rec in run.records:
        if (rec.kind == "SEND" and rec.actor.startswith("s")
                and (rec.msg or {}).get("type") == "PacketIn"
                and not _is_ack_hex(rec.msg["payload"])):
            emitted.setdefault(rec.msg["event"], rec.step)
    witnesses: list[Witness] = []
    for rid in run.survivors:
        applied = {a["event"] for a in run.event_applies(rid)}
        for event, step in sorted(emitted.items(), key=lambda kv: kv[1]):
            if event not in applied:
                witnesses.append(Witness(
                    (step,), f"lost-event: {event} emitted but never applied by c{rid}"))
    return _fail("P2", witnesses) if witnesses else _pass("P2")


def check_at_most_once(trace: Trace) -> Verdict:
    """P3: no replica applies the same event twice."""
    run = _Run(trace)
    witnesses: list[Witness] = []
    for rid in range(run.n):
        seen: dict[str, int] = {}
        for a in run.event_applies(rid):
            if a["event"] in seen:
                witnesses.append(Witness(
                    (seen[a["event"]], a["step"]),
                    f"repeated-event: c{rid} applied {a['event']} twice"))
            else:
                seen[a["event"]] = a["step"]
    return _fail("P3", witnesses) if witnesses else _pass("P3")


def check_exactly_once_commands(trace: Trace) -> Verdict:
    """P4: each committed entry's command batch executes exactly once on its
    switch. Duplicates are flagged unconditionally; missing executions only
    under quiescence and the fault bound."""
    run = _Run(trace)
    witnesses: list[Witness] = []

    # executions: (switch, index) -> [steps]
    executions: dict[tuple[int, int], list[int]] = {}
    for rec in run.records:
        if rec.kind != "EXEC" or not rec.actor.startswith("s"):
            continue
        sw = int(rec.actor[1:])
        d = rec.detail
        if d.get("exec") == "BUNDLE_COMMIT":
            executions.setdefault((sw, _detail_int(rec, "bundle")), []).append(rec.step)
        elif d.get("cmd_ord") == "0":
            executions.setdefault((sw, _detail_int(rec, "cmd_index")), []).append(rec.step)

    for (sw, index), steps in sorted(executions.items()):
        if len(steps) > 1:
            witnesses.append(Witness(
                tuple(steps),
                f"repeated-command: batch for index {index} executed "
                f"{len(steps)} times on s{sw}"))

    gated = run.quiesced and run.fault_bound_ok
    note = ""
    if gated:
        committed = run.committed_commands()
        for (index, sw), count in sorted(committed.items()):
            if count and (sw, index) not in executions:
                step = _last_step(run)
                witnesses.append(Witness(
                    (step,),
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
    return (_fail("P4", witnesses, note) if witnesses
            else _pass("P4", note))


def check_replica_convergence(trace: Trace) -> Verdict:
    """P5: surviving replicas end at the same applied index and app state."""
    run = _Run(trace)
    if not run.quiesced:
        return _pass("P5", note="not checked: requires quiescence")
    finals: dict[int, tuple[int, str, int]] = {}
    for rid in run.survivors:
        applies = run.applies.get(rid, [])
        if applies:
            last = applies[-1]
            finals[rid] = (last["index"], last["digest"], last["step"])
        else:
            finals[rid] = (0, "-", 0)
    witnesses: list[Witness] = []
    if finals:
        rids = sorted(finals)
        ref = finals[rids[0]]
        for rid in rids[1:]:
            if finals[rid][:2] != ref[:2]:
                steps = tuple(s for s in (ref[2], finals[rid][2]) if s)
                witnesses.append(Witness(
                    steps or (_last_step(run),),
                    f"state-divergence: c{rids[0]} ended at index {ref[0]} "
                    f"digest {ref[1]} but c{rid} at index {finals[rid][0]} "
                    f"digest {finals[rid][1]}"))
    return _fail("P5", witnesses) if witnesses else _pass("P5")


def check_bundle_atomicity(trace: Trace) -> Verdict:
    """P6: staged effects appear contiguously after their bundle's commit,
    and discarded bundles leave no effects."""
    run = _Run(trace)
    witnesses: list[Witness] = []

    # staging reconstructed from deliveries; keyed (switch, conn, bundle)
    open_bundles: dict[tuple[int, int, int], list[str]] = {}
    expected_by_step: dict[int, Optional[list[str]]] = {}
    for rec in run.records:
        if rec.kind == "DELIVER" and rec.actor.startswith("s") and rec.msg:
            sw = int(rec.actor[1:])
            conn = _ctrl_id(rec.peer or "c?")
            mtype = rec.msg.get("type")
            if mtype == "BundleOpen":
                # a re-open of a live id is rejected by the switch
                open_bundles.setdefault((sw, conn, rec.msg["bundle_id"]), [])
            elif mtype == "BundleAdd":
                key = (sw, conn, rec.msg["bundle_id"])
                if key in open_bundles:
                    open_bundles[key].append(rec.msg["inner"]["type"])
        elif rec.kind == "CRASH":
            dead = _ctrl_id(rec.actor)
            for key in [k for k in open_bundles if k[1] == dead]:
                del open_bundles[key]
        elif rec.kind == "EXEC" and rec.detail.get("exec") == "BUNDLE_COMMIT":
            sw = int(rec.actor[1:])
            conn = int(rec.detail.get("from", -1))
            key = (sw, conn, _detail_int(rec, "bundle"))
            expected_by_step[rec.step] = open_bundles.pop(key, None)

    kind_of = {"FlowMod": "FLOWMOD", "PacketOut": "PACKETOUT"}
    for sw in {int(r.actor[1:]) for r in run.records
               if r.kind == "EXEC" and r.actor.startswith("s")}:
        execs = [r for r in run.records if r.kind == "EXEC" and r.actor == f"s{sw}"]
        j = 0
        while j < len(execs):
            rec = execs[j]
            if rec.detail.get("exec") == "BUNDLE_COMMIT":
                bundle = rec.detail["bundle"]
                expected = expected_by_step.get(rec.step)
                if expected is None:
                    witnesses.append(Witness(
                        (rec.step,),
                        f"spurious-effect: commit of bundle {bundle} on s{sw} "
                        f"with no staged content"))
                    j += 1
                    continue
                window = execs[j + 1: j + 1 + len(expected)]
                ok = len(window) == len(expected) and all(
                    w.detail.get("bundle") == bundle
                    and w.detail.get("exec") == kind_of.get(exp)
                    for w, exp in zip(window, expected))
                if not ok:
                    witnesses.append(Witness(
                        (rec.step,),
                        f"partial-bundle: bundle {bundle} on s{sw} did not apply "
                        f"its {len(expected)} staged messages contiguously"))
                    j += 1
                    while j < len(execs) and execs[j].detail.get("bundle") == bundle:
                        j += 1  # already covered by the partial-bundle witness
                    continue
                j += 1 + len(expected)
            elif rec.detail.get("bundle") is not None:
                witnesses.append(Witness(
                    (rec.step,),
                    f"spurious-effect: bundled effect on s{sw} outside any "
                    f"commit window (bundle {rec.detail['bundle']})"))
                j += 1
            else:
                j += 1
    return _fail("P6", witnesses) if witnesses else _pass("P6")


def _last_step(run: _Run) -> int:
    return run.records[-1].step if run.records else 0


# ----------------------------------------------------------------------

def run_all_checks(trace: Trace) -> list[Verdict]:
    return [
        check_total_order(trace),
        check_at_least_once(trace),
        check_at_most_once(trace),
        check_exactly_once_commands(trace),
        check_replica_convergence(trace),
        check_bundle_atomicity(trace),
    ]


def classify_anomalies(verdicts: list[Verdict]) -> list[str]:
    """Map failed properties to the anomaly taxonomy."""
    labels: set[str] = set()
    for v in verdicts:
        if v.passed:
            continue
        if v.prop in ANOMALY_LABELS:
            labels.add(ANOMALY_LABELS[v.prop])
        else:  # P4 and P6 classify per witness
            for w in v.witnesses:
                tag = w.description.split(":", 1)[0]
                if tag in ("repeated-command", "spurious-effect"):
                    labels.add("REPEATED_COMMAND")
                elif tag in ("missing-command", "partial-bundle"):
                    labels.add("MISSING_COMMAND")
    return sorted(labels)


def all_passed(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)


def summary_line(verdicts: list[Verdict]) -> str:
    flags = " ".join(f"{v.prop}={'+' if v.passed else '-'}" for v in verdicts)
    status = "pass" if all_passed(verdicts) else "fail"
    return f"RESULT {status} {flags}"
