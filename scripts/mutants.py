#!/usr/bin/env python3
"""Mutation census of the checks' pass conditions and the CSV writers'
bytes: does some Tier-1 test fail when a pass condition is weakened or a
writer writes other bytes?

    python scripts/mutants.py

Each mutant is one text edit to a file of src/. For each, the script copies
src/, tests/, scripts/ and pyproject.toml to a temporary directory, applies
the edit there, runs Tier-1 with -x and prints `killed` with the first
failing test, or `survived`. An equivalent mutant changes no result the
library can produce; the reason is printed with it. Before the mutants, the
unedited copy must pass. Exit 1 if a mutant that is not equivalent
survives, 2 if an edit's old text does not occur exactly once or the
unedited copy fails.

A survivor is mended by a test that feeds the check a defect it must fail
on, or by deleting the code the pass condition guards; never by loosening
anything. The full census takes several minutes, so it is not part of
Tier-1; Tier-1 checks only that every old text occurs exactly once.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
TEXT_TEST = "tests/test_package.py::test_every_mutant_edits_one_place"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: str = ""  # why no result of the library can tell it apart


FRAMES = "src/frame_lab/frames.py"
CUNTZ = "src/frame_lab/cuntz.py"
FILTERS = "src/frame_lab/filters.py"

MUTANTS = [
    Mutant(
        "0", FRAMES,
        "monotone = all(b >= a for a, b in zip(values, values[1:]))",
        "monotone = True",
        "verify_parseval: the monotone condition always holds",
        "a trace is a cumsum of nonnegative terms, so it cannot decrease, "
        "and a nan term already fails the Bessel cap",
    ),
    Mutant(
        "1", FRAMES,
        'metrics[f"flagged_{gamma}"] = trace.deficiency > INCOMPLETE_THRESHOLD',
        'metrics[f"flagged_{gamma}"] = True',
        "verify_incomplete: every frequency is flagged",
    ),
    Mutant(
        "2", FRAMES,
        "passed = max_resid <= tol and max_gap <= SPECIALIZATION_TOL",
        "passed = max_resid <= tol",
        "verify_ruelle: the specialization gap is ignored",
    ),
    Mutant(
        "3", CUNTZ,
        "return Check(max(max_offdiag, max_diag_dev) <= tol,",
        "return Check(max_offdiag <= tol,",
        "verify_gram: the diagonal deviation is ignored",
    ),
    Mutant(
        "4", CUNTZ,
        "np.max(np.abs(entries[1:]), initial=0.0)",
        "np.max(np.abs(entries[1:2]), initial=0.0)",
        "verify_gram: only each row's first off-diagonal entry is read",
    ),
    Mutant(
        "5", FILTERS,
        "for lo in range(0, samples, _SWEEP_PASS):",
        "for lo in range(0, min(samples, _SWEEP_PASS), _SWEEP_PASS):",
        "verify_unitarity: only the first pass of the sweep runs",
    ),
    Mutant(
        "6", FILTERS,
        "for condition, dev in deviations(A).items():",
        'for condition, dev in [(c, d) for c, d in deviations(A).items() if c != "kernel"]:',
        "FilterBank: the kernel condition is skipped",
    ),
    Mutant(
        "row2-guard", FILTERS,
        '        ("row2_norm", "|a21|^2+|a22|^2 = 1", lambda: n21 + n22 - 1.0),\n',
        "",
        "solve_alpha: the row2_norm guard is left out of the table",
    ),
    Mutant(
        "7", CUNTZ,
        "for done in range(0, trials, TRIALS_PER_PASS):",
        "for done in range(0, min(trials, TRIALS_PER_PASS), TRIALS_PER_PASS):",
        "verify_cuntz: only the first pass of trials runs",
    ),
    Mutant(
        "8", CUNTZ,
        "return Check(max_orth <= tol and max_ident <= tol,",
        "return Check(max_orth <= tol,",
        "verify_cuntz: the identity residual is left out of the verdict",
    ),
    Mutant(
        "10", FRAMES,
        "pairs = [(g1 - g2, c1 * c2.conjugate())",
        "pairs = [(g1 - g2, c1 * c2)",
        "parseval_trace: the target without the conjugate",
    ),
    Mutant(
        "11", FILTERS,
        "return Check(obstructed == [True, False], metrics, tolerances)",
        "return Check(obstructed[0], metrics, tolerances)",
        "verify_nogo_mu3: the scale-4 control is ignored",
    ),
    Mutant(
        "12", FRAMES,
        "passed = monotone and all(v <= trace.target * (1.0 + tol) for v in values)",
        "passed = monotone",
        "verify_parseval: the Bessel cap is ignored",
    ),
    Mutant(
        "13", FRAMES,
        "return Check(bessel and flagged, metrics, tolerances)",
        "return Check(flagged, metrics, tolerances)",
        "verify_incomplete: the Bessel verdict of the traces is ignored",
    ),
    Mutant(
        "x-axes", FRAMES,
        ".sum(axis=tuple(range(1, bits, 2)))",
        ".sum(axis=tuple(range(2, bits + 1, 2)))",
        "verify_projection: the x axes are summed instead of the y axes",
    ),
    Mutant(
        "half-scale", FRAMES,
        "* 2.0 ** -(bits // 2) - weights[n, None]",
        "* 2.0 ** -(bits // 2 + 1) - weights[n, None]",
        "verify_projection: the totals are scaled by 2^-(K+1)",
    ),
    Mutant(
        "minus-zero", FRAMES,
        '_OFF_SUPPORT = ",0.0,0.0,0.0\\r\\n"',
        '_OFF_SUPPORT = ",0.0,0.0,-0.0\\r\\n"',
        "write_weight_table: a row off the support ends in 0.0,0.0,-0.0",
    ),
    Mutant(
        "lf-weights", FRAMES,
        'ends[i] = f",{w.real!r},{w.imag!r},{abs(w) ** 2!r}\\r\\n"',
        'ends[i] = f",{w.real!r},{w.imag!r},{abs(w) ** 2!r}\\n"',
        "write_weight_table: a row on the support ends in \\n, not \\r\\n",
    ),
    Mutant(
        "lf-trace", FRAMES,
        'rows = [f"{N},{float(value)!r},{target}\\r\\n"',
        'rows = [f"{N},{float(value)!r},{target}\\n"',
        "write_trace_csv: its rows end in \\n, not \\r\\n",
    ),
    Mutant(
        "trace-float", FRAMES,
        "{float(value)!r}",
        "{value!r}",
        "write_trace_csv: a row's partial sum is written from the raw value",
    ),
    Mutant(
        "kept-batch", FRAMES,
        "        del coeff  # dropped before the next batch is built\n",
        "",
        "verify_projection: each batch is held while the next is built",
    ),
]


def misplaced() -> list[str]:
    """The mutants whose old text does not occur exactly once in their file."""
    return [m.name for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]


def tier1(root: Path) -> tuple[bool, str]:
    """Run Tier-1 with -x on the copy at root: (passed, first failing test).
    The test of the old texts is left out: every edit fails it."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--deselect={TEXT_TEST}"]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode == 0, failed.group(1) if failed else done.stdout.strip()[-200:]


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """Tier-1 on a temporary copy of the repository, edited by mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, root / name, ignore=ignore)
            else:
                shutil.copy2(source, root / name)
        if mutant is not None:
            path = root / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        return tier1(root)


def main() -> int:
    stale = misplaced()
    if stale:
        print(f"old text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    passed, failure = run(None)
    if not passed:
        print(f"the unedited copy fails Tier-1: {failure}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in MUTANTS:
        passed, failure = run(mutant)
        if not passed:
            verdict = f"killed by {failure}"
        else:
            verdict = f"survived, equivalent: {mutant.equivalent}" if mutant.equivalent else "survived"
        print(f"{mutant.name:>10}  {mutant.reason}\n{'':>12}{verdict}", flush=True)
        survivors += passed and not mutant.equivalent
    print(f"{survivors} non-equivalent survivors in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
