#!/usr/bin/env python3
"""Print one JSON line per CLI call: argv, exit code, report and stderr.

    PYTHONPATH=src python scripts/dump_reports.py > reports.jsonl

The calls are every CLI command of the benchmark's workloads for seeds 0-2,
every value-gated command, the `verify` calls of the certification ladder,
the runs at and just past each capacity cap, runs at a tolerance no check
can meet, and runs on malformed input files. Each call runs in process in
one temporary working directory, so file arguments are the same relative
paths on every run. The report is printed without `duration_ms`, the one
field that is not a pure function of the flags; two runs of this script on
code that computes the same things print the same lines.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import certify_all  # noqa: E402  (this script's directory is on sys.path)
from perfbench import workloads  # noqa: E402

from frame_lab import cli  # noqa: E402

SEEDS = (0, 1, 2)
RHO_I = ("--rho-im", "1")
ENTRY = {"re": 0.5, "im": 0}

# Malformed matrix documents for `verify unitarity --matrix-json`.
BAD_MATRICES = {
    "not_json.json": b"not json",
    "no_rows.json": b'{"foo": 1}',
    "list.json": b"[1,2]",
    "bare_numbers.json": json.dumps({"rows": [[0.5] * 4] * 4}).encode(),
    "string_entry.json": json.dumps({"rows": [[{"re": "x", "im": 0}] + [ENTRY] * 3] * 4}).encode(),
    "ragged.json": json.dumps({"rows": [[ENTRY] * 4] * 3 + [[ENTRY]]}).encode(),
    "bad_bytes.json": b"\xff\xfe",
}


def _workload_argvs() -> list[list[str]]:
    argvs = []
    for name in workloads.NAMES:
        for seed in SEEDS:
            argvs += [list(c.argv) for c in workloads.build(name, seed) if not c.is_certify]
    argvs += [list(c.argv) for c in workloads.all_value_gated()]
    return argvs


def _ladder_argvs() -> list[list[str]]:
    return [call for call in certify_all.ladder(Path("out"), 3, 4**5) if call[0] == "verify"]


def _cap_argvs() -> list[list[str]]:
    """The largest run each cap in the README allows, one step past it, and
    the smallest verify cuntz level."""
    gammas = [str(g) for g in range(100)]
    out = []
    for past in (0, 1):
        out += [
            ["verify", "gram", *RHO_I, "--max-word-len", str(5 + past)],
            ["verify", "projection", *RHO_I, "--max-word-len", str(5 + past)],
            ["verify", "cuntz", *RHO_I, "--level", str(4 + past), "--trials", "20"],
            ["verify", "cuntz", *RHO_I, "--level", "2", "--trials", str(500 + past)],
            ["verify", "ruelle", *RHO_I, f"--grid=-1:0:{1000 + past}", "--level", str(4 + past)],
            ["verify", "unitarity", "--samples", str(100_000 + past)],
            ["verify", "parseval", *RHO_I, "--gamma", "3", "--n-max", str(4**10 + past)],
            ["verify", "incomplete", "--gamma", *gammas, *[str(-1)] * past, "--n-max", "4096"],
        ]
    out.append(["verify", "cuntz", *RHO_I, "--level", "4", "--trials", "500"])  # both cuntz caps at once
    # level 0, where the identity sum is one level deeper than the trial vector
    out += [["verify", "cuntz", "--rho-re", "1", "--level", "0", "--trials", "3", "--seed", str(s)]
            for s in SEEDS]
    return out + [["mu4hat", "--t", t] for t in ("0", "2", "-7.25", "1e6", "1e24", "1e30")]


def _other_argvs() -> list[list[str]]:
    """Failing verdicts, the file options and malformed files."""
    strict = ("--tol", "1e-30")
    out = [
        ["verify", "gram", *RHO_I, "--max-word-len", "3", *strict],
        ["verify", "projection", *RHO_I, "--max-word-len", "3", *strict],
        ["verify", "cuntz", *RHO_I, "--level", "2", *strict],
        ["verify", "parseval", "--rho-re", "-1", "--gamma", "1", "--n-max", "64", *strict],
        ["verify", "ruelle", *RHO_I, "--grid=-1:0:21", "--level", "3", *strict],
        ["verify", "unitarity", "--samples", "16", "--matrix-out", "m.json"],
        ["verify", "unitarity", "--matrix-json", "m.json"],
        ["verify", "unitarity", "--matrix-json", "m.json", *strict],
        ["verify", "unitarity", "--matrix-json", "missing.json"],
        ["verify", "incomplete", "--gamma", "0", "3", "--n-max", "256"],
        ["verify", "nogo-mu3", "--out", "nogo.json"],
        ["verify", "nogo-mu3", "--out", "missing_dir/nogo.json"],
        ["verify", "nogo-mu3", "--out", "."],
    ]
    return out + [["verify", "unitarity", "--matrix-json", name] for name in BAD_MATRICES]


def run(argv: list[str]) -> dict:
    """One in-process call; an uncaught exception is recorded as the exit 1
    and last traceback line a separate process would give."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    lines = out.getvalue().splitlines()
    report = json.loads(lines[-1]) if lines else None
    if report is not None:
        report.pop("duration_ms")
    return {"argv": argv, "exit": code, "report": report, "stderr": err.getvalue()}


def main() -> int:
    os.environ.pop("FRAME_LAB_TOL", None)
    argvs = _workload_argvs() + _ladder_argvs() + _cap_argvs() + _other_argvs()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("out").mkdir()
        for name, data in BAD_MATRICES.items():
            Path(name).write_bytes(data)
        for argv in argvs:
            print(json.dumps(run(argv), sort_keys=True), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
