"""Golden corpus: the simulator's traces and the checker's verdicts on a
fixed set of runs must not change byte for byte.

The corpus is the fault-free run and every crash-sweep point of each
shipped scenario under NAIVE, PAPER_A and PAPER_B (set by
``Scenario.with_variant``, which drops ``suppress_slave_events`` outside
NAIVE), at every crash target; ``majority_loss`` contributes its plain run
only. The test hashes every trace's canonical lines and the repr of its
verdicts into one sha256. A change that alters any trace or verdict must
say so and re-pin the digest.
"""

import hashlib
from collections import defaultdict
from pathlib import Path

import pytest

from builders import merged_deliveries, point_lines
from sdnsim import Simulation, Trace, load_scenario, run_all_checks, sweep_crash_points
from sdnsim.scenario import VARIANTS, scenario_from_obj, scenario_to_obj

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RUN_ONLY = {"majority_loss"}

CORPUS_TRACES = 1092
# the PAPER_A corpus traces, one per fault-free run and crash point (192
# runs and forks), each with its PAPER_B twin
PAPER_PAIRS = 402
# last re-pinned when EXEC records came to state their command in wire form:
# a FLOWMOD or PACKETOUT EXEC carries the executed message as ``msg``, a
# PACKET_FWD the hit entry as a FlowMod and its ``in_port``, and no EXEC an
# ``info`` text; NAIVE sends, deliveries and executions lost their
# ``cmd_switch`` tag. Every other record line and every verdict stayed the same.
CORPUS_SHA256 = "bd0051c960842af21f7ebe47b4bab597cc4143ddf4df708ce92005999f353bd8"


def corpus_traces():
    """Yield (scenario, trace, lines, incremental) for every corpus trace in
    a fixed order: the scenario its meta line states, the trace the
    simulator returned, the corpus trace's lines and the repr of the
    ``verdicts()`` of the run that wrote the trace, which a sweep fork
    folds from its fork point on. A sweep fork is one corpus trace
    per crash point its group stands for, each with that point's derived
    scenario as its meta line. A point the sweep merged into its group
    after the fork's boundary has the trace of its own replay, whose lines
    differ from the fork's by the merged deliveries."""
    for path in sorted(SCENARIOS.glob("*.json")):
        base = load_scenario(str(path))
        for variant in VARIANTS:
            scenario = base.with_variant(variant)
            if path.stem in RUN_ONLY:
                trace, verdicts = ran(Simulation(scenario))
                yield scenario, trace, trace.to_lines(), verdicts
                continue
            for target in range(scenario.n_controllers):
                run = Simulation(scenario)
                forks = [(points, *ran(fork))
                         for points, fork in sweep_crash_points(run, target)]
                fault_free, verdicts = ran(run)
                if target == 0:
                    yield scenario, fault_free, fault_free.to_lines(), verdicts
                for points, trace, verdicts in forks:
                    for point, lines in point_lines(points, trace):
                        own, own_verdicts = (ran(Simulation(point.scenario))
                                             if merged_deliveries(point, trace)
                                             else (trace, verdicts))
                        yield point.scenario, own, lines, own_verdicts


def ran(sim):
    """The trace of ``sim`` run to its end, and the repr of its ``verdicts()``."""
    trace = sim.run()
    return trace, repr(sim.verdicts())


@pytest.fixture(scope="module")
def corpus():
    """Every corpus trace as (scenario, trace, lines, repr of its verdicts,
    repr of its run's incremental verdicts), built and checked once for
    every test."""
    return [(scenario, trace, lines, repr(run_all_checks(trace)), incremental)
            for scenario, trace, lines, incremental in corpus_traces()]


def test_corpus_traces_and_verdicts_are_unchanged(corpus):
    digest = hashlib.sha256()
    for _, _, lines, verdicts, _ in corpus:
        for line in lines:
            digest.update(line.encode("utf-8") + b"\n")
        digest.update(verdicts.encode("utf-8") + b"\n")
    assert len(corpus) == CORPUS_TRACES
    assert digest.hexdigest() == CORPUS_SHA256


def test_corpus_traces_read_back_unchanged(corpus):
    """The trace gate accepts every corpus trace, and what it reads back
    is what the simulator wrote."""
    for scenario, trace, lines, verdicts, _ in corpus:
        back = Trace.from_lines(lines)
        # a fork's meta is its first point's scenario; the lines state their own
        assert back.meta == scenario_to_obj(scenario)
        assert scenario_from_obj(back.meta) == scenario
        assert back.records == trace.records
        assert back.to_lines() == lines
        assert repr(run_all_checks(back)) == verdicts
    assert len(corpus) == CORPUS_TRACES


def test_incremental_verdicts_equal_a_full_check(corpus):
    """Each run's ``verdicts()``, which a sweep fork folds only from its
    fork point on, are ``run_all_checks`` of its whole trace (ROADMAP
    item 5's bound)."""
    for scenario, _, _, verdicts, incremental in corpus:
        assert incremental == verdicts, scenario.name
    assert len(corpus) == CORPUS_TRACES


def test_no_corpus_trace_discards_a_staged_bundle(corpus):
    """No corpus run crashes a controller while a switch holds a bundle it
    staged, so the discard rule is vacuous here (ROADMAP items 4(b) and
    20). This flips when a sweep first reaches a staged bundle."""
    discards = [(scenario.name, rec.step) for scenario, trace, _, _, _ in corpus
                for rec in trace.records
                if rec.kind == "DROP" and rec.detail.get("reason") == "connection_drop"]
    assert discards == []


def test_paper_b_corpus_traces_are_record_identical_to_paper_a(corpus):
    """PAPER_B's ack clones change no record (ROADMAP item 11), so
    ``compare``'s equivalence line compares record-identical runs: each
    PAPER_A corpus trace has the lines, after its meta line, of the PAPER_B
    trace at the same place in that scenario's block. Making the clones
    load-bearing flips this."""
    blocks = defaultdict(list)  # (shipped scenario, variant) -> record lines
    for scenario, _, lines, _, _ in corpus:
        blocks[scenario.name.partition("+")[0], scenario.variant].append(lines[1:])
    pairs = 0
    for (name, variant), paper_a in blocks.items():
        if variant == "PAPER_A":
            paper_b = blocks[name, "PAPER_B"]
            assert len(paper_a) == len(paper_b), name
            for n, (a, b) in enumerate(zip(paper_a, paper_b)):
                assert a == b, f"{name}: trace {n}"
            pairs += len(paper_a)
    assert pairs == PAPER_PAIRS
