"""Mutation tests: each disables one of the paper's mechanisms and asserts
that a property verdict, not a structural test, kills the mutant.

Mutation analysis after DeMillo, Lipton & Sayward (1978) and Just et al.
(FSE'14), who show mutants to be valid stand-ins for real faults. Each
mutant is applied with ``monkeypatch`` on ``Replica``, so ``src/`` carries
no flag for it, and each test also runs its sweeps unmutated and requires
every point to pass there, so it fails once its monkeypatch is removed.

Only two of the paper's mechanisms are load-bearing in a verdict today:
resending only unacknowledged batches, and registering slaves for async
events. The fence (flushing only after the RoleReply), the majority quorum
and the staged-bundle discard pass every sweep of the shipped scenarios
when disabled, so their mutants need ROADMAP items 1 and 4 first. The
fence fails only when a link is slower than the failure detector, which
needs per-link latency; the quorum needs a check of log-index agreement or
in-flight delivery after a crash; the discard needs controller restarts.
"""

from collections import Counter
from pathlib import Path

import pytest

from sdnsim import cli, load_scenario
from sdnsim.checker import all_passed, classify_anomalies
from sdnsim.ofmodel import SetAsyncConfig
from sdnsim.replica import Replica, SendToSwitch

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("paper_a", "paper_b", "one_command")


def leader_sweep_anomalies(name: str) -> Counter:
    """Crash c0 at every point of a shipped scenario: each anomaly and how
    many points show it, with one ``None`` per failing point."""
    _, rows = cli._sweep(load_scenario(str(SCENARIO_DIR / f"{name}.json")), 0, 1)
    counts = Counter()
    for _, verdicts in rows:
        if not all_passed(verdicts):
            counts[None] += 1
            counts.update(classify_anomalies(verdicts))
    return counts


def resend_without_checking_acks(self, sw):
    """``_flush_owed`` resending every applied batch for ``sw``, acked or not."""
    effects = []
    for i in range(1, self.applied_index + 1):
        if self.commands_by_index.get(i, {}).get(sw):
            effects.extend(self._dispatch(i, sw))
    return effects


def startup_without_async_config(startup):
    def mutant(self):
        return [e for e in startup(self)
                if not (isinstance(e, SendToSwitch) and isinstance(e.msg, SetAsyncConfig))]
    return mutant


@pytest.fixture(scope="module")
def unmutated():
    return {name: leader_sweep_anomalies(name) for name in SCENARIOS}


@pytest.mark.parametrize("name", SCENARIOS)
def test_resend_without_checking_acks_repeats_commands(monkeypatch, unmutated, name):
    monkeypatch.setattr(Replica, "_flush_owed", resend_without_checking_acks)
    anomalies = leader_sweep_anomalies(name)
    assert anomalies["REPEATED_COMMAND"] >= 1
    assert not unmutated[name]


@pytest.mark.parametrize("name, anomaly", [
    ("paper_a", "LOST_EVENT"),
    ("paper_a", "REPEATED_COMMAND"),
    ("paper_b", "LOST_EVENT"),
    ("one_command", "LOST_EVENT"),
])
def test_slaves_not_registered_for_async_events_are_caught(monkeypatch, unmutated,
                                                          name, anomaly):
    monkeypatch.setattr(Replica, "startup", startup_without_async_config(Replica.startup))
    anomalies = leader_sweep_anomalies(name)
    assert anomalies[anomaly] >= 1
    assert not unmutated[name]


def test_paper_b_ack_cloning_prevents_repeats_under_unregistered_slaves(monkeypatch,
                                                                        unmutated):
    # PAPER_B clones ack PacketIns to every connection, so a slave that never
    # registered for async events still learns which batches were acked.
    # PAPER_A's slaves do not, and repeat commands after the failover.
    monkeypatch.setattr(Replica, "startup", startup_without_async_config(Replica.startup))
    assert leader_sweep_anomalies("paper_a")["REPEATED_COMMAND"] >= 1
    anomalies = leader_sweep_anomalies("paper_b")
    assert anomalies[None] >= 1 and anomalies["REPEATED_COMMAND"] == 0
    assert not unmutated["paper_b"]
