#!/usr/bin/env python3
"""Mutation census of the checks' pass conditions, the CSV writers' bytes
and the transform's bits: does some Tier-1 test fail when a pass condition
is weakened, a writer writes other bytes or the transform rounds otherwise?

    python scripts/mutants.py

Each mutant is one text edit to a file of src/. For each, the script copies
src/, tests/, scripts/, perfbench/ (whose tracer a test runs) and
pyproject.toml to a temporary directory and applies the edit there. It runs
the mutant's killer, the test the last census reported for it, alone; only
when that test passes (or no longer exists) does it run Tier-1 with -x. It
prints `killed` with the failing test, and says so when that is no longer
the recorded killer, or `survived`. An equivalent mutant changes no result
the library can produce; the reason is printed with it. Before the mutants,
the unedited copy must pass. Exit 1 if a mutant that is not equivalent
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
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TEXT_TEST = "tests/test_package.py::test_every_mutant_edits_one_place"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str
    equivalent: str = ""  # why no result of the library can tell it apart
    killer: str = ""  # the test the last census reported as killing it


FRAMES = "src/frame_lab/frames.py"
CUNTZ = "src/frame_lab/cuntz.py"
FILTERS = "src/frame_lab/filters.py"
TRANSFORM = "src/frame_lab/transform.py"
ATOMS = "src/frame_lab/atoms.py"
CLI = "src/frame_lab/cli.py"
PACKAGE = "src/frame_lab/__init__.py"

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
        killer="tests/test_frames.py::test_verify_incomplete",
    ),
    Mutant(
        "2", FRAMES,
        "passed = max_resid <= tol and max_gap <= SPECIALIZATION_TOL",
        "passed = max_resid <= tol",
        "verify_ruelle: the specialization gap is ignored",
        killer="tests/test_frames.py::test_ruelle_fails_on_a_specialization_gap",
    ),
    Mutant(
        "3", CUNTZ,
        "return Check(max(max_offdiag, max_diag_dev) <= tol,",
        "return Check(max_offdiag <= tol,",
        "verify_gram: the diagonal deviation is ignored",
        killer="tests/test_cuntz.py::test_gram_reads_every_entry_of_every_row[diagonal]",
    ),
    Mutant(
        "4", CUNTZ,
        "np.max(np.abs(entries[1:]), initial=0.0)",
        "np.max(np.abs(entries[1:2]), initial=0.0)",
        "verify_gram: only each row's first off-diagonal entry is read",
        killer="tests/test_cuntz.py::test_gram_reads_every_entry_of_every_row[last_offdiagonal]",
    ),
    Mutant(
        "5", FILTERS,
        "for lo in range(0, samples, _SWEEP_PASS):",
        "for lo in range(0, min(samples, _SWEEP_PASS), _SWEEP_PASS):",
        "verify_unitarity: only the first pass of the sweep runs",
        killer="tests/test_filters.py::test_unitarity_sweeps_every_pass",
    ),
    Mutant(
        "6", FILTERS,
        "for condition, dev in deviations(A).items():",
        'for condition, dev in [(c, d) for c, d in deviations(A).items() if c != "kernel"]:',
        "FilterBank: the kernel condition is skipped",
        killer="tests/test_filters.py::test_inadmissible_matrix_is_refused_but_measured[kernel]",
    ),
    Mutant(
        "row2-guard", FILTERS,
        '        ("row2_norm", "|a21|^2+|a22|^2 = 1", lambda: n21 + n22 - 1.0),\n',
        "",
        "solve_alpha: the row2_norm guard is left out of the table",
        killer="tests/test_filters.py::test_solve_alpha_guards[row2_norm]",
    ),
    Mutant(
        "squared", FILTERS,
        "    try:\n        return abs(z) * abs(z)\n"
        "    except OverflowError:\n        return math.inf\n",
        "    return abs(z) * abs(z)\n",
        "solve_alpha, pq_bank: a modulus that overflows raises OverflowError again",
        killer="tests/test_filters.py::test_every_bank_builder_refuses_or_returns_an_admissible_bank",
    ),
    Mutant(
        "7", CUNTZ,
        "for done in range(0, trials, TRIALS_PER_PASS):",
        "for done in range(0, min(trials, TRIALS_PER_PASS), TRIALS_PER_PASS):",
        "verify_cuntz: only the first pass of trials runs",
        killer="tests/test_cuntz.py::test_verify_cuntz_passes_match_the_per_trial_oracle",
    ),
    Mutant(
        "8", CUNTZ,
        "return Check(max_orth <= tol and max_ident <= tol,",
        "return Check(max_orth <= tol,",
        "verify_cuntz: the identity residual is left out of the verdict",
        killer="tests/test_cuntz.py::test_cuntz_fails_on_a_defect_of_the_identity_residual_alone",
    ),
    Mutant(
        "10", FRAMES,
        "pairs = [(g1 - g2, c1 * c2.conjugate())",
        "pairs = [(g1 - g2, c1 * c2)",
        "parseval_trace: the target without the conjugate",
        killer="tests/test_acceptance.py::test_c06_bessel_cap_and_monotonicity",
    ),
    Mutant(
        "11", FILTERS,
        "return Check(obstructed == [True, False], metrics, tolerances)",
        "return Check(obstructed[0], metrics, tolerances)",
        "verify_nogo_mu3: the scale-4 control is ignored",
        killer="tests/test_filters.py::test_verify_nogo_mu3_fails_when_every_row_is_forced",
    ),
    Mutant(
        "12", FRAMES,
        "passed = monotone and all(v <= trace.target * (1.0 + tol) for v in values)",
        "passed = monotone",
        "verify_parseval: the Bessel cap is ignored",
        killer="tests/test_frames.py::test_parseval_fails_above_the_bessel_cap",
    ),
    Mutant(
        "13", FRAMES,
        "return Check(bessel and flagged, metrics, tolerances)",
        "return Check(flagged, metrics, tolerances)",
        "verify_incomplete: the Bessel verdict of the traces is ignored",
        killer="tests/test_frames.py::test_incomplete_fails_when_a_trace_breaks_the_bessel_bound",
    ),
    Mutant(
        "x-axes", FRAMES,
        ".sum(axis=tuple(range(1, bits, 2)))",
        ".sum(axis=tuple(range(2, bits + 1, 2)))",
        "verify_projection: the x axes are summed instead of the y axes",
        killer="tests/test_cuntz.py::test_verify_projection_matches_per_word_oracle[pi_over_3-1]",
    ),
    Mutant(
        "half-scale", FRAMES,
        "* 2.0 ** -(bits // 2) - weights[n, None]",
        "* 2.0 ** -(bits // 2 + 1) - weights[n, None]",
        "verify_projection: the totals are scaled by 2^-(K+1)",
        killer="tests/test_cuntz.py::test_verify_projection_matches_per_word_oracle[pi_over_3-1]",
    ),
    Mutant(
        "minus-zero", FRAMES,
        '_OFF_SUPPORT = ",0.0,0.0,0.0\\r\\n"',
        '_OFF_SUPPORT = ",0.0,0.0,-0.0\\r\\n"',
        "write_weight_table: a row off the support ends in 0.0,0.0,-0.0",
        killer="tests/test_frames.py::test_weight_table_csv_matches_oracle_bytes[rho_one]",
    ),
    Mutant(
        "lf-weights", FRAMES,
        'ends[i] = f",{w.real!r},{w.imag!r},{abs(w) ** 2!r}\\r\\n"',
        'ends[i] = f",{w.real!r},{w.imag!r},{abs(w) ** 2!r}\\n"',
        "write_weight_table: a row on the support ends in \\n, not \\r\\n",
        killer="tests/test_frames.py::test_weight_table_csv_matches_oracle_bytes[rho_one]",
    ),
    Mutant(
        "lf-trace", FRAMES,
        'rows = [f"{N},{float(value)!r},{target}\\r\\n"',
        'rows = [f"{N},{float(value)!r},{target}\\n"',
        "write_trace_csv: its rows end in \\n, not \\r\\n",
        killer="tests/test_frames.py::test_trace_csv",
    ),
    Mutant(
        "trace-float", FRAMES,
        "{float(value)!r}",
        "{value!r}",
        "write_trace_csv: a row's partial sum is written from the raw value",
        killer="tests/test_frames.py::test_trace_csv_writes_numpy_floats_as_floats",
    ),
    Mutant(
        "phase-fmod", TRANSFORM,
        "np.fmod(block, 3.0)",
        "block",
        "mu4_hat_array: the phase rounds t/3 with its whole turns",
        killer="tests/test_transform.py::test_mu4_hat_array_matches_the_ascending_complex_product[integers]",
    ),
    Mutant(
        "signed-zero", TRANSFORM,
        "product * phase + 0.0",
        "product * phase",
        "mu4_hat_array: an exact zero keeps the signs of its parts",
        killer="tests/test_transform.py::test_mu4_hat_array_matches_the_ascending_complex_product[integers]",
    ),
    Mutant(
        "checked-default", ATOMS,
        "def __init__(self, atoms: np.ndarray, checked: bool = False):",
        "def __init__(self, atoms: np.ndarray, checked: bool = True):",
        "FunctionSum: an array is adopted without its range checks unless asked",
        killer="tests/test_atoms.py::test_function_sum_rejects_bad_atoms[row0]",
    ),
    Mutant(
        "gram-tol", CUNTZ,
        "    positive_tol(tol)\n    size = family_size(max_len)\n",
        "    size = family_size(max_len)\n",
        "verify_gram: a tolerance that is not positive and finite is accepted",
        killer="tests/test_filters.py::test_every_check_refuses_a_tolerance_that_is_not_positive_and_finite[gram-0.0]",
    ),
    Mutant(
        "matrix-out-first", CLI,
        "    check = verify_unitarity(args.samples, args.tol)\n"
        "    if args.matrix_out:\n"
        '        with open(args.matrix_out, "w", encoding="utf-8") as fh:\n'
        '            fh.write(matrix_to_json(hadamard_rho(1.0)) + "\\n")\n',
        "    if args.matrix_out:\n"
        '        with open(args.matrix_out, "w", encoding="utf-8") as fh:\n'
        '            fh.write(matrix_to_json(hadamard_rho(1.0)) + "\\n")\n'
        "    check = verify_unitarity(args.samples, args.tol)\n",
        "verify unitarity: the --matrix-out export is written before the check refuses its input",
        killer="tests/test_report_cli.py::test_every_guard_exits_with_its_one_line[verify unitarity --samples 0 --matrix-out ok.json]",
    ),
    Mutant(
        "kept-batch", FRAMES,
        "        del coeff  # dropped before the next batch is built\n",
        "",
        "verify_projection: each batch is held while the next is built",
        killer="tests/test_cuntz.py::test_projection_drops_each_batch_before_the_next_is_built",
    ),
    Mutant(
        "claim-skip", CLI,
        "        for path in (getattr(args, name, None) for name in _OUTPUTS):\n"
        "            if path and _claim(path):\n"
        "                created.append(path)\n",
        "",
        "main: an output that cannot be written is found only after the runner wrote its own",
        killer="tests/test_report_cli.py::test_every_guard_exits_with_its_one_line[verify parseval --trace-out t.csv --out missing/r.json]",
    ),
    Mutant(
        "keep-created", CLI,
        "        for path in created:\n            os.remove(path)\n",
        "        pass\n",
        "main: a refused call leaves the outputs its claims created",
        killer="tests/test_report_cli.py::test_every_guard_exits_with_its_one_line[weights --n-max 1048577 --out w.csv]",
    ),
    Mutant(
        "claim-truncates", CLI,
        "        os.close(os.open(path, os.O_WRONLY))\n",
        "        os.close(os.open(path, os.O_WRONLY | os.O_TRUNC))\n",
        "_claim: an output that existed is emptied even when the call is refused",
        killer="tests/test_report_cli.py::test_every_guard_exits_with_its_one_line[weights --n-max 1048577 --out ok.json]",
    ),
    Mutant(
        "cos-quarter", TRANSFORM,
        "    out[whole] = _QUARTER_TURNS.real[quarters]\n",
        "",
        "cos_turns: a quarter turn is cos(pi/2) = 6.1e-17, not the exact 0.0",
        killer="tests/test_frames.py::test_trace_rho_one_at_basis_frequency",
    ),
    Mutant(
        "blas-threads", PACKAGE,
        'if "numpy" not in sys.modules:\n    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "",
        "frame_lab: importing numpy starts OpenBLAS's pool of one thread per CPU",
        killer="tests/test_package.py::test_the_package_starts_no_blas_threads",
    ),
]


def misplaced() -> list[str]:
    """The mutants whose old text does not occur exactly once in their file."""
    return [m.name for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]


def tier1(root: Path, *tests: str) -> tuple[int, str]:
    """Run the given tests, or all of Tier-1, with -x on the copy at root:
    (pytest's exit code, first failing test). The test of the old texts is
    left out: every edit fails it."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", f"--deselect={TEXT_TEST}", *tests]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    # a test id may hold spaces; pytest ends it at " - " before the message
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", done.stdout, re.M)
    return done.returncode, failed.group(1) if failed else done.stdout.strip()[-200:]


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """(passed, first failing test) on a temporary copy of the repository,
    edited by mutant: its recorded killer alone first, and Tier-1 only when
    that test does not fail (it passes, or no longer exists)."""
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
            if mutant.killer:
                code, failure = tier1(root, mutant.killer)
                if code == 1:
                    return False, failure
        code, failure = tier1(root)
        return code == 0, failure


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
            if failure != mutant.killer:
                verdict += f" (the recorded killer was {mutant.killer or 'none'})"
        else:
            verdict = f"survived, equivalent: {mutant.equivalent}" if mutant.equivalent else "survived"
        print(f"{mutant.name:>10}  {mutant.reason}\n{'':>12}{verdict}", flush=True)
        survivors += passed and not mutant.equivalent
    print(f"{survivors} non-equivalent survivors in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
