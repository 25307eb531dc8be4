#!/usr/bin/env python3
"""Record the gate's references from the current library.

    python3 perfbench/record_references.py [GIT_SHA]

Runs every gram, parseval and incomplete command that any seed can produce,
plus scripts/certify_all.py, and writes their value metrics and CSV files to
perfbench/references.json. Run it only on a commit whose outputs are trusted;
the references were recorded from the seed commit named in the file.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, ROOT, WORK, child_env
import gate
import workloads

# Value metrics gated per command; residuals are gated only through `pass`.
GATED_PREFIXES = {
    "gram": ("size",),
    "parseval": ("s_", "target", "deficiency"),
    "incomplete": ("deficiency_", "flagged_"),
}
# The report's key for the command's own tolerance.
TOLERANCE_KEY = {"gram": "max_entry_dev", "parseval": "bessel_slack", "incomplete": "tol"}


def record_command(command: workloads.Command) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "frame_lab", *command.argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["pass"] is not True:
        raise SystemExit(f"{command.key} does not pass")
    check = command.argv[1]
    metrics = {k: v for k, v in report["metrics"].items() if k.startswith(GATED_PREFIXES[check])}
    return {"tol": report["tolerances"][TOLERANCE_KEY[check]], "metrics": metrics}


def record_certify() -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        subprocess.run(
            [sys.executable, workloads.CERTIFY_SCRIPT, "--out-dir", out],
            cwd=ROOT, env=child_env(), capture_output=True, check=True,
        )
        return {p.name: gate.read_csv_rows(p) for p in sorted(Path(out).glob("*.csv"))}


def main(argv: list[str]) -> int:
    commands = {}
    for command in workloads.all_value_gated():
        commands[command.key] = record_command(command)
        print(command.key, file=sys.stderr)
    references = {
        "recorded_from": argv[0] if argv else None,
        "commands": commands,
        "certify_csv": record_certify(),
    }
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
