#!/usr/bin/env python3
"""Print one JSON line per CLI call: argv, exit code, report, stderr and
the sha256 of every CSV file the call writes.

    PYTHONPATH=src python scripts/dump_reports.py > reports.jsonl

The calls are every CLI command of the benchmark's workloads for seeds 0-2,
every value-gated command, the calls of the certification ladder (its
`weights` calls and trace exports write their CSVs into the temporary
directory), weight tables whose length straddles the 4^6-row blocks the CSV
is written in, a trace whose last checkpoint is no power of 4, the runs at
each capacity cap, `verify cuntz` at levels 0 and 1 and `verify projection`
at length 5, where a batch holds two words, on banks whose entries are not
dyadic, on the p = 0 bank rho = -1, whose zero weights leave many
x-cylinder totals at exact zeros, and on rho = 1, `verify projection` at
length 4 on the (p, q) = (0.6, 0.8) bank, whose x-cylinder totals all
round, runs at a tolerance no check can meet, on well-formed matrices that
are not admissible (one with an entry so large that H*H overflows), on the
solver's degenerate branch |a10| = 1, bank flags of each kind on
subcommands that took only some kinds before, then every guard row of
tests/cli_probes.py (each refused with exit 2 or 3), one small call of
every subcommand under each FRAME_LAB_TOL value of ENV_TOLS (a subcommand
with a tolerance reads it, the others must not), and last the `-h` help of
the top level, of `verify` and of every subcommand, whose line holds the
help text as `stdout` (and no report), wrapped at the width COLUMNS=80
gives.
Each line records the environment its call ran under, set for that call
alone. Each call runs in process in one temporary working directory, so
file arguments are the same relative paths on every run. A CSV named in the
argv is removed before the call, so a hash is printed only for a file the
call wrote. The report is printed without `duration_ms`, the one field that
is not a pure function of the flags; two runs of this script on code that
computes the same things print the same lines.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

import certify_all  # noqa: E402  (this script's directory is on sys.path)
from cli_probes import GUARDS, INADMISSIBLE_MATRICES, lay_out  # noqa: E402
from perfbench import workloads  # noqa: E402

from frame_lab import cli  # noqa: E402

SEEDS = (0, 1, 2)
RHO_I = ("--rho-im", "1")
RHO_PI_3 = ("--rho-re", "0.5", "--rho-im", "0.8660254037844386")  # rho = e^{i pi/3}
S2 = "0.7071067811865476"  # 1/sqrt(2)

# The solver bank with p = q = 1/sqrt(2), by its six parameters.
PQ_ALPHA = (
    "--alpha-a10-re", S2, "--alpha-a30-re", S2, "--alpha-a11-re", "0.7071067811865475",
    "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1",
)

def _workload_argvs() -> list[list[str]]:
    argvs = []
    for name in workloads.NAMES:
        for seed in SEEDS:
            argvs += [list(c.argv) for c in workloads.build(name, seed) if not c.is_certify]
    argvs += [list(c.argv) for c in workloads.all_value_gated()]
    return argvs


def _ladder_argvs() -> list[list[str]]:
    return certify_all.ladder(Path("out"), 3, 4**5)


def _cap_argvs() -> list[list[str]]:
    """The largest run each cap in the README allows (one step past it is a
    guard row), the smallest verify cuntz levels, on rho = 1 and on three
    banks whose entries are not dyadic, and the longest projection on two of
    them."""
    out = [
        ["verify", "gram", *RHO_I, "--max-word-len", "5"],
        ["verify", "projection", *RHO_I, "--max-word-len", "5"],
        ["verify", "cuntz", *RHO_I, "--level", "4", "--trials", "20"],
        ["verify", "cuntz", *RHO_I, "--level", "2", "--trials", "500"],
        ["verify", "ruelle", *RHO_I, "--grid=-1:0:1000", "--level", "4"],
        ["verify", "unitarity", "--samples", "100000"],
        ["verify", "parseval", *RHO_I, "--gamma", "3", "--n-max", str(4**10)],
        ["verify", "incomplete", "--gamma", *map(str, range(100)), "--n-max", "4096"],
        ["weights", *RHO_I, "--n-max", str(4**10), "--out", "out/weights_cap_0.csv"],
        ["verify", "cuntz", *RHO_I, "--level", "4", "--trials", "500"],  # both cuntz caps at once
    ]
    # level 0, where the identity sum is one level deeper than the trial vector
    out += [["verify", "cuntz", "--rho-re", "1", "--level", "0", "--trials", "3", "--seed", str(s)]
            for s in SEEDS]
    # levels 0 and 1 on banks whose entries are not dyadic, so the level-0
    # symbol and the identity terms round; on the p = q = 1/sqrt(2) solver
    # bank the residuals are not 0
    for bank in (("--p-re", "0.6", "--q-re", "0.8"), RHO_PI_3, PQ_ALPHA):
        out += [["verify", "cuntz", *bank, "--level", level, "--trials", "5"]
                for level in ("0", "1")]
    # length 5, where a batch holds two words of 4^5 atoms, each product of
    # filter rows rounding on these banks
    out += [["verify", "projection", *bank, "--max-word-len", "5"]
            for bank in (("--p-re", "0.6", "--q-re", "0.8"), RHO_PI_3)]
    # length 4 on the same (p, q) bank, whose residual rounds on every x cylinder
    out.append(["verify", "projection", "--p-re", "0.6", "--q-re", "0.8", "--max-word-len", "4"])
    # length 5 on the p = 0 bank rho = -1, whose zero weights leave many x
    # cylinder totals at exact zeros, and on rho = 1
    out += [["verify", "projection", "--rho-re", rho, "--max-word-len", "5"] for rho in ("-1", "1")]
    out += [["mu4hat", "--t", t] for t in ("0", "2", "-7.25", "1e6", "1e24")]
    return out + [["mu4hat", "--t", "1e30", "--tol", "1e-3"]]


def _other_argvs() -> list[list[str]]:
    """Failing verdicts, the file options, inadmissible matrices, the
    solver's degenerate branch |a10| = 1, and each kind of bank flag on more
    subcommands."""
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
        ["verify", "incomplete", "--gamma", "0", "3", "--n-max", "256"],
        ["verify", "incomplete", "--gamma", "1", "--n-max", "256", *strict],
        ["verify", "nogo-mu3", "--out", "nogo.json"],
        ["verify", "gram", "--p-re", "1", "--q-re", "0", "--max-word-len", "3"],  # |a10| = 1
        # one bank grammar: every bank subcommand takes rho, p/q and alpha flags
        ["verify", "incomplete", "--p-re", "0", "--q-re", "1", "--gamma", "1", "3", "--n-max", "256"],
        ["weights", *PQ_ALPHA, "--n-max", "64", "--out", "out/weights_alpha.csv"],
        ["verify", "parseval", *PQ_ALPHA, "--gamma", "5", "--n-max", "256"],
        ["verify", "cuntz", "--p-re", "0.6", "--q-re", "0.8", "--level", "2", "--trials", "5"],
        # a trace whose last checkpoint is no power of 4
        ["verify", "parseval", "--p-re", "0.6", "--q-re", "0.8", "--gamma", "3", "--n-max", "1000",
         "--trace-out", "out/trace_1000.csv"],
    ]
    # weight tables one row short of a block, one block, three blocks and a part
    banks = {"rho_i": RHO_I, "rho_minus_one": ("--rho-re", "-1"),
             "pq": ("--p-re", "0.6", "--q-re", "0.8")}
    for n_max in (4**6 - 1, 4**6, 3 * 4**6 + 5):
        out += [["weights", *flags, "--n-max", str(n_max),
                 "--out", f"out/weights_{name}_{n_max}.csv"] for name, flags in banks.items()]
    return out + [["verify", "unitarity", "--matrix-json", name] for name in INADMISSIBLE_MATRICES]


# One small call of every subcommand, each run once under every FRAME_LAB_TOL
# value of ENV_TOLS: a valid tolerance, and one that is no number.
SMALL_ARGVS = [
    ["mu4hat", "--t", "0.3"],
    ["weights", *RHO_I, "--n-max", "64", "--out", "out/weights_env.csv"],
    ["verify", "unitarity", "--samples", "4"],
    ["verify", "cuntz", *RHO_I, "--level", "1", "--trials", "2"],
    ["verify", "gram", *RHO_I, "--max-word-len", "2"],
    ["verify", "projection", *RHO_I, "--max-word-len", "2"],
    ["verify", "parseval", *RHO_I, "--gamma", "3", "--n-max", "64"],
    ["verify", "ruelle", *RHO_I, "--grid=-1:0:5", "--level", "2"],
    ["verify", "nogo-mu3"],
    ["verify", "incomplete", "--gamma", "1", "--n-max", "64"],
]
ENV_TOLS = ("1e-3", "abc")

# The help of the top level, of `verify` and of each subcommand of
# SMALL_ARGVS, printed at a fixed width: argparse wraps help at the terminal
# width COLUMNS gives.
HELP_ARGVS = [["-h"], ["verify", "-h"]] + [
    [*argv[: 2 if argv[0] == "verify" else 1], "-h"] for argv in SMALL_ARGVS
]
HELP_ENV = {"COLUMNS": "80"}

def run(argv: list[str], env: dict) -> dict:
    """One in-process call with the variables of env set for it alone; an
    uncaught exception is recorded as the exit 1 and last traceback line a
    separate process would give. A call that exits, as -h does after
    printing the help, is recorded with its exit code and its stdout text
    and no report."""
    csvs = [Path(a) for a in argv if a.endswith(".csv")]
    for path in csvs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    help_text = None
    with (
        mock.patch.dict(os.environ, env),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, help_text = exc.code, out.getvalue()
        except Exception as exc:  # noqa: BLE001
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    lines = out.getvalue().splitlines() if help_text is None else []
    report = json.loads(lines[-1]) if lines else None
    if report is not None:
        report.pop("duration_ms")
    hashes = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs if p.is_file()}
    line = {
        "argv": argv, "env": env, "exit": code, "report": report, "stderr": err.getvalue(),
        "csv_sha256": hashes,
    }
    if help_text is not None:
        line["stdout"] = help_text
    return line


def main() -> int:
    os.environ.pop("FRAME_LAB_TOL", None)
    argvs = _workload_argvs() + _ladder_argvs() + _cap_argvs() + _other_argvs()
    calls = [(argv, {}) for argv in argvs + [argv.split() for argv in GUARDS]]
    calls += [(argv, {"FRAME_LAB_TOL": tol}) for tol in ENV_TOLS for argv in SMALL_ARGVS]
    calls += [(argv, HELP_ENV) for argv in HELP_ARGVS]
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        lay_out(Path(work))
        for argv, env in calls:
            print(json.dumps(run(argv, env), sort_keys=True), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
