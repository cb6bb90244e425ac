"""Golden CLI output: what ``sdnsim`` prints, exits with and writes on every
shipped scenario must not change byte for byte.

For each scenario the test runs, in process and in this order, ``run
--trace T --metrics M``, ``check T``, ``sweep``, ``sweep --crash
replica:1`` and ``compare``. It hashes each command's exit code, stdout,
stderr and, for ``run``, the metrics file into one sha256, with the
temporary trace path replaced by a placeholder. A change that alters any
output must say so and re-pin the digest.
"""

import hashlib
from pathlib import Path

from sdnsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CLI_COMMANDS = 30
CLI_SHA256 = "6855bd65862d4dc8d3c4a4de9f9210ee698e7ab69626601463b1256f31953fd2"


def test_cli_output_on_every_shipped_scenario_is_unchanged(tmp_path, capsys):
    trace, metrics = str(tmp_path / "run.trace"), tmp_path / "metrics.json"
    digest = hashlib.sha256()
    count = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = str(path)
        for argv in (["run", scenario, "--trace", trace, "--metrics", str(metrics)],
                     ["check", trace],
                     ["sweep", scenario],
                     ["sweep", scenario, "--crash", "replica:1"],
                     ["compare", scenario]):
            code = main(argv)
            out, err = capsys.readouterr()
            assert out.splitlines()[-1].startswith("RESULT "), argv
            digest.update(f"{argv[0]} {path.name} exit {code}\n".encode())
            for text in (out, err):
                digest.update(text.replace(trace, "<trace>").encode("utf-8") + b"\0")
            if argv[0] == "run":
                digest.update(metrics.read_bytes() + b"\0")
            count += 1
    assert count == CLI_COMMANDS
    assert digest.hexdigest() == CLI_SHA256
