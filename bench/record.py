"""Record the expected outputs that bench/run.py checks every call against.

    python3 bench/record.py

Runs each call of the workloads once (about a minute and a half) and
writes bench/expected.json. Only re-record when a change is meant to
alter the CLI's output; the ROADMAP asks refactors to keep it
byte-identical.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from run import SEEDS, SRC, canonical_digest, text_digest


def cli(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "qcluster.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def main():
    expected = {"leclerc": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        for calls in run.LECLERC_CALLS.values():
            for label, seed_file, options in calls:
                report = tmp / f"{label}.json"
                cli(["leclerc", SEEDS / f"{seed_file}.json", *options, "--json", report])
                doc = json.loads(report.read_text())
                expected["leclerc"][label] = {"digest": canonical_digest(doc),
                                              "pairs": len(doc["pairs"])}
        check = cli(["check", SEEDS / "c5p.json"])
        filled = tmp / "c5p-lambda.json"
        filled.write_text(json.dumps(run.seed_with_lambda(SEEDS / "c5p.json", check)))
        dot = tmp / "c5.dot"
        cli(["graph", filled, "--dot", dot])
        shift = cli(["shift", filled, "--direction", "-1"])
        expected["graph-c5"] = {"check": text_digest(check), "graph": text_digest(dot.read_text()),
                                "shift": text_digest(shift)}
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
