import json
from pathlib import Path

import pytest

from builders import learning_scenario, one_command_scenario
from sdnsim import (Simulation, Trace, all_passed, enumerate_crash_points,
                    load_scenario, run_all_checks)
from sdnsim.cli import main
from sdnsim.scenario import scenario_to_obj


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_obj(scenario), indent=2))
    return str(path)


def find_violating_point(scenario):
    for point in enumerate_crash_points(scenario, 0):
        if not all_passed(run_all_checks(Simulation(point.scenario).run())):
            return point
    raise AssertionError("expected a violating crash point")


def test_run_passing_scenario_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "RESULT pass P1=+ P2=+ P3=+ P4=+ P5=+ P6=+"


def test_run_writes_trace_and_metrics_files(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    trace_out = tmp_path / "out.trace"
    metrics_out = tmp_path / "metrics.json"
    assert main(["run", path, "--trace", str(trace_out),
                 "--metrics", str(metrics_out)]) == 0
    trace = Trace.read(str(trace_out))
    assert trace.meta["quiesced"]
    metrics = json.loads(metrics_out.read_text())
    assert metrics["total"] == 18


def test_run_violating_fault_schedule_exits_one(tmp_path, capsys):
    point = find_violating_point(learning_scenario("NAIVE"))
    path = write_scenario(tmp_path, point.scenario)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "RESULT fail" in out
    assert "REPEATED_COMMAND" in out


def test_run_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",')
    assert main(["run", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_run_unknown_key_exits_two(tmp_path, capsys):
    obj = scenario_to_obj(one_command_scenario())
    obj["wristwatch"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 2
    assert "wristwatch" in capsys.readouterr().err


def test_run_missing_file_exits_two(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_seed_override_is_recorded(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    trace_out = tmp_path / "out.trace"
    assert main(["run", path, "--trace", str(trace_out), "--seed", "99"]) == 0
    assert Trace.read(str(trace_out)).meta["seed"] == 99


def test_check_accepts_a_passing_stored_trace(tmp_path, capsys):
    trace = Simulation(one_command_scenario()).run()
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert main(["check", str(path)]) == 0
    assert "RESULT pass" in capsys.readouterr().out


def test_check_flags_a_violating_stored_trace(tmp_path, capsys):
    point = find_violating_point(learning_scenario("NAIVE"))
    trace = Simulation(point.scenario).run()
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert main(["check", str(path)]) == 1


def test_check_truncated_trace_exits_two(tmp_path):
    trace = Simulation(one_command_scenario()).run()
    path = tmp_path / "run.trace"
    lines = trace.to_lines()
    path.write_text("\n".join(lines[:1] + lines[3:]))  # drop a record line
    assert main(["check", str(path)]) == 2


@pytest.mark.parametrize("variant, exec_kind, field", [
    ("PAPER_A", "BUNDLE_COMMIT", "bundle"),
    ("NAIVE", "FLOWMOD", "cmd_index"),
])
def test_check_exec_record_missing_its_index_exits_two(tmp_path, capsys,
                                                        variant, exec_kind, field):
    scenario = load_scenario(str(SCENARIO_DIR / "one_command.json"))
    lines = Simulation(scenario.with_variant(variant)).run().to_lines()
    objs = [json.loads(ln) for ln in lines]
    damaged = [o for o in objs[1:]
               if o["kind"] == "EXEC" and o["detail"]["exec"] == exec_kind]
    assert damaged
    for o in damaged:
        del o["detail"][field]
    path = tmp_path / "run.trace"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    assert main(["check", str(path)]) == 2
    assert f"detail.{field} missing" in capsys.readouterr().err


def test_check_empty_file_exits_two(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text("")
    assert main(["check", str(path)]) == 2


def test_sweep_paper_variant_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["sweep", path, "--crash", "leader"]) == 0
    out = capsys.readouterr().out
    assert "RESULT pass" in out


def test_sweep_naive_variant_exits_one_with_anomaly_rows(tmp_path, capsys):
    path = write_scenario(tmp_path, learning_scenario("NAIVE"))
    assert main(["sweep", path]) == 1
    out = capsys.readouterr().out
    assert "REPEATED_COMMAND" in out
    assert out.strip().splitlines()[-1].startswith("RESULT fail")


def test_sweep_rejects_point_faulted_scenario(tmp_path):
    point = find_violating_point(learning_scenario("NAIVE"))
    path = write_scenario(tmp_path, point.scenario)
    assert main(["sweep", path]) == 2


def test_sweep_rejects_bad_crash_selector(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["sweep", path, "--crash", "nonsense"]) == 2


def test_compare_reports_counts_and_equivalence(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["compare", path]) == 0
    out = capsys.readouterr().out
    assert "NAIVE" in out and "PAPER_A" in out and "PAPER_B" in out
    naive_row = next(l for l in out.splitlines() if l.startswith("NAIVE"))
    paper_row = next(l for l in out.splitlines() if l.startswith("PAPER_A"))
    assert int(naive_row.split()[1]) < int(paper_row.split()[1])
    assert "variant equivalence (PAPER_A vs PAPER_B verdicts): yes" in out
    assert "RESULT pass" in out
