"""Span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files: each wrapper replaces a
public entry point at the name its caller looks it up by (for example
``sdnsim.netsim.msg_to_wire``, which ``netsim`` imported by name, or the
``Replica.on_*`` methods on the class), so the program itself is unchanged.
Spans are aggregated in memory by (parent span, span) as they close:
calls, inclusive seconds and self seconds (inclusive minus the time of the
child spans inside it). Nothing is written until the caller asks.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` (a module function, method or classmethod)
        with ``make_wrapper(original_function)``."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class RunCounter:
    """Counts simulated runs and trace records. It costs one extra call per
    simulated run, so it stays installed in untraced runs too."""

    def __init__(self):
        self.runs = 0
        self.records = 0

    def install(self, sdnsim, patches: Patches) -> None:
        def make(run):
            def counted_run(sim):
                trace = run(sim)
                self.runs += 1
                self.records += len(trace.records)
                return trace
            return counted_run
        patches.wrap(sdnsim.netsim.Simulation, "run", make)


class Tracer:
    """Aggregating span recorder; one instance per traced measurement.
    ``clock`` returns seconds; the benchmark passes one that leaves out the
    time its speed probe interrupts the program for."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (parent name or None, name) -> [calls, inclusive s, self s]
        self.edges: dict[tuple, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def span(self, name: str):
        """Decorator factory: time every call as span ``name``."""
        edges, stack, clock = self.edges, self._stack, self.clock

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    st = edges.get((parent, name))
                    if st is None:
                        st = edges[(parent, name)] = [0, 0.0, 0.0]
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[1]
            return traced
        return make

    def count(self, name: str):
        """Decorator factory: count calls without timing them."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive s, self s], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def to_obj(self) -> dict:
        return {"edges": [{"parent": p, "span": n, "calls": c, "total_s": t, "self_s": s}
                          for (p, n), (c, t, s) in sorted(self.edges.items(),
                                                          key=lambda kv: -kv[1][1])],
                "counts": dict(self.counts)}


# Each span's layer is the part of its name before the first dot.
def install(tracer: Tracer, sdnsim, patches: Patches, stats: dict) -> None:
    """Wrap every layer's entry points. ``stats`` (a defaultdict(int))
    receives the counts that need a call's arguments or result: crash points,
    replayed records, data packets and flow-table hits."""
    cli, netsim, replica, checker = (sdnsim.cli, sdnsim.netsim, sdnsim.replica,
                                     sdnsim.checker)
    span, count = tracer.span, tracer.count

    def enumerate_points(fn):
        def counted(*args, **kwargs):
            points = fn(*args, **kwargs)
            stats["crash_points"] += len(points)
            stats["replayed_records"] += sum(p.step for p in points)
            return points
        return span("netsim.enumerate")(counted)

    def inject(fn):
        # A table hit is the only way a data packet appends to the exec log.
        def counted(sw, *args, **kwargs):
            before = len(sw.exec_log)
            out = fn(sw, *args, **kwargs)
            stats["packets"] += 1
            stats["table_hits"] += len(sw.exec_log) > before
            return out
        return span("switchsim.inject_data_packet")(counted)

    wrap = patches.wrap
    wrap(cli, "main", span("cli.main"))
    wrap(cli, "load_scenario", span("scenario.load"))
    wrap(cli, "enumerate_crash_points", enumerate_points)
    wrap(cli, "run_all_checks", span("checker.total"))
    wrap(cli, "compute_metrics", span("metrics.compute"))
    wrap(netsim.Simulation, "__init__", span("netsim.init"))
    wrap(netsim.Simulation, "run", span("netsim.run"))
    wrap(netsim, "msg_to_wire", span("trace.msg_to_wire"))
    for method in ("startup", "on_switch_message", "on_replica_message",
                   "on_failure_notice"):
        wrap(replica.Replica, method, span(f"replica.{method}"))
    wrap(replica, "state_digest", span("apps.digest"))
    wrap(replica, "decode_ack", count("ofmodel.decode_ack"))
    wrap(sdnsim.ofmodel, "decode_ack", count("ofmodel.decode_ack"))
    wrap(sdnsim.apps.MacLearner, "step", span("apps.step"))
    wrap(sdnsim.apps.StaticRouter, "step", span("apps.step"))
    for method in ("handle_message", "on_connection_drop"):
        wrap(sdnsim.switchsim.SwitchState, method, span(f"switchsim.{method}"))
    wrap(sdnsim.switchsim.SwitchState, "inject_data_packet", inject)
    wrap(sdnsim.trace.Trace, "append", span("trace.append"))
    wrap(sdnsim.trace.Trace, "write", span("trace.encode"))
    wrap(sdnsim.trace.Trace, "read", span("trace.decode"))
    for prop, fn in (("P1", "check_total_order"), ("P2", "check_at_least_once"),
                     ("P3", "check_at_most_once"), ("P4", "check_exactly_once_commands"),
                     ("P5", "check_replica_convergence"), ("P6", "check_bundle_atomicity")):
        wrap(checker, fn, span(f"checker.{prop}"))
    wrap(checker._Run, "__init__", span("checker.run_build"))


class GcMeter:
    """Cyclic-GC pause time and full collections, read through gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
