"""Correctness gate for one command run.

A run passes when it exits 0, prints a JSON report with `pass: true`, and
its value metrics match the references recorded from the seed commit. The
verdicts alone are not enough: `verify incomplete` always passes and
`verify parseval` checks only monotonicity and the Bessel cap. Residuals
such as `max_offdiag` are gated only through `pass`, because a correct
rewrite may round them differently.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Commands whose values must have a reference; a missing one is a failure.
VALUE_GATED = ("gram", "parseval", "incomplete")
CERTIFY_OK_LINE = "[certify] ALL OK"
# certify_all.py checks its traces at 1e-8, the loosest tolerance it uses.
CERTIFY_CSV_TOL = 1e-8


def load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _last_line(stdout: str) -> str:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _compare(name: str, got, want, tol: float) -> str | None:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= tol:
            return None
    elif got == want and type(got) is type(want):
        return None
    return f"{name} = {got!r}, reference {want!r} (tol {tol:g})"


def check_cli(command, returncode: int, stdout: str, references: dict) -> list[str]:
    """Problems with one `python -m frame_lab` run; empty when it passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(_last_line(stdout))
    except json.JSONDecodeError:
        return ["no JSON report on stdout"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("pass") is not True:
        return [f"pass is {report.get('pass')!r}"]
    ref = references["commands"].get(command.key)
    if ref is None:
        return [f"no reference for {command.key!r}"] if command.argv[1] in VALUE_GATED else []
    metrics = report.get("metrics", {})
    problems = []
    for name, want in ref["metrics"].items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
            continue
        problem = _compare(name, metrics[name], want, ref["tol"])
        if problem:
            problems.append(problem)
    return problems


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _rows_close(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    try:
        return all(abs(float(a) - float(b)) <= CERTIFY_CSV_TOL for a, b in zip(got, want))
    except ValueError:
        return False


def check_certify(returncode: int, stdout: str, out_dir: Path, references: dict) -> list[str]:
    """Problems with one certify_all.py run: exit code, verdict line and CSV values."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if _last_line(stdout).strip() != CERTIFY_OK_LINE:
        return [f"last line is {_last_line(stdout)!r}"]
    problems = []
    for name, want in references["certify_csv"].items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        got = read_csv_rows(path)
        if len(got) != len(want) or got[0] != want[0]:
            problems.append(f"{name}: header or row count differs")
            continue
        for row_got, row_want in zip(got[1:], want[1:]):
            if not _rows_close(row_got, row_want):
                problems.append(f"{name}: row {row_got} vs reference {row_want}")
                break
    return problems
