import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

import frame_lab
from frame_lab.cli import (
    _BANK_PARAMS, _OUTPUTS, MAX_GRID_POINTS, _bank_from_args, build_parser, main,
)
from frame_lab.cuntz import FAMILY_MAX_LEN, MAX_CUNTZ_LEVEL, MAX_TRIALS, verify_cuntz, verify_gram
from frame_lab.filters import (
    MAX_SAMPLES,
    NOGO_MIN_NORM_GAP,
    NOGO_MIN_PHASE_FACTOR,
    hadamard_rho,
    matrix_to_json,
    pq_bank,
    rho_bank,
    solve_alpha,
    verify_nogo_mu3,
    verify_unitarity,
)
from frame_lab.frames import (
    MAX_ENUM_LEN,
    MAX_GAMMAS,
    MAX_RUELLE_LEVEL,
    SPECIALIZATION_TOL,
    is_parseval,
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
)
from frame_lab.report import Check, report_json
from cli_probes import FILES, GUARDS, INADMISSIBLE_MATRICES, lay_out
from oracles import oracle_trace_checkpoints

S2 = "0.7071067811865476"
# The solver bank with p = q = 1/sqrt(2).
PQ_ALPHA = (
    "--alpha-a10-re", S2, "--alpha-a30-re", S2, "--alpha-a11-re", S2,
    "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_report_round_trip():
    check = Check(True, {"max_offdiag": 1.2e-15}, {"max_entry_dev": 1e-8})
    text = report_json("verify gram", {"rho_re": 0.0, "rho_im": 1.0}, check, 12)
    assert json.loads(text) == {
        "command": "verify gram",
        "params": {"rho_re": 0.0, "rho_im": 1.0},
        "metrics": {"max_offdiag": 1.2e-15},
        "pass": True,
        "tolerances": {"max_entry_dev": 1e-8},
        "duration_ms": 12,
        "version": frame_lab.__version__,
        "schema_version": "1",
    }
    # keys sorted lexicographically
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_report_sanitizes_numpy_scalars():
    # numpy values become Python ones, and a non-finite float its string
    metrics = {"v": np.float64(1.5), "flag": np.bool_(True), "rows": np.arange(2),
               "worst": [np.inf, -np.inf], "dev": np.float64(np.nan)}
    text = report_json("x", {}, Check(np.bool_(False), metrics, {}), 0)
    data = json.loads(text, parse_constant=_reject_constant)
    assert data["pass"] is False
    assert data["metrics"] == {"v": 1.5, "flag": True, "rows": [0, 1], "worst": ["inf", "-inf"],
                               "dev": "nan"}


def test_mu4hat_zero(capsys):
    code, out, _ = run_cli(capsys, "mu4hat", "--t", "0")
    assert code == 0
    assert len(out.splitlines()) == 1
    data = last_json(out)
    assert (data["metrics"]["re"], data["metrics"]["im"]) == (1.0, 0.0)


def test_mu4hat_one_vanishes(capsys):
    code, out, _ = run_cli(capsys, "mu4hat", "--t", "1")
    assert code == 0
    data = last_json(out)
    assert abs(data["metrics"]["re"]) <= 1e-12
    assert abs(data["metrics"]["im"]) <= 1e-12


def test_mu4hat_matches_recursion(capsys):
    from oracles import mu4_hat_recursive

    code, out, _ = run_cli(capsys, "mu4hat", "--t", "2", "--tol", "1e-12")
    data = last_json(out)
    want = mu4_hat_recursive(2.0)
    assert abs(complex(data["metrics"]["re"], data["metrics"]["im"]) - want) < 1e-12


def test_mu4hat_tolerance_reaches_the_factor_count(capsys, monkeypatch):
    # t = 1e30 needs more factors than allowed at the default tolerance, not at 1e-3
    monkeypatch.delenv("FRAME_LAB_TOL", raising=False)
    code, out, _ = run_cli(capsys, "mu4hat", "--t", "1e30")
    assert (code, out) == (3, "")
    code, out, _ = run_cli(capsys, "mu4hat", "--t", "1e30", "--tol", "1e-3")
    assert code == 0 and last_json(out)["tolerances"] == {"tolerance": 1e-3}
    monkeypatch.setenv("FRAME_LAB_TOL", "1e-3")
    code, out, _ = run_cli(capsys, "mu4hat", "--t", "1e30")
    assert code == 0 and last_json(out)["tolerances"] == {"tolerance": 1e-3}


def test_weights_gamma4(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run_cli(
        capsys, "weights", "--rho-re", "1", "--rho-im", "0", "--n-max", "21", "--out", str(out_csv)
    )
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    ones = [int(r.split(",")[0]) for r in rows if r.split(",")[6] == "1.0"]
    assert ones == [0, 1, 4, 5, 16, 17, 20, 21]


def test_weights_gamma3(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run_cli(
        capsys, "weights", "--rho-re", "-1", "--n-max", "15", "--out", str(out_csv)
    )
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    ones = [int(r.split(",")[0]) for r in rows if r.split(",")[6] == "1.0"]
    assert ones == [0, 3, 12, 15]
    assert last_json(out)["metrics"]["parseval_certified"] is False


def test_weights_pq_value(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run_cli(
        capsys,
        "weights",
        "--p-re", "0.7071067811865476", "--q-re", "0.7071067811865476",
        "--n-max", "5", "--out", str(out_csv),
    )
    assert code == 0
    row5 = out_csv.read_text().strip().splitlines()[-1].split(",")
    assert abs(float(row5[4]) - 0.5) < 1e-12  # weight p^2 at n = 5 (two digits equal to 1)
    assert last_json(out)["metrics"]["parseval_certified"] is True


def test_weights_invalid_spec_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "weights", "--rho-re", "0.5", "--n-max", "4", "--out", str(tmp_path / "w.csv")
    )
    assert code == 2
    assert "rho" in err


def test_verify_nogo(capsys):
    code, out, _ = run_cli(capsys, "verify", "nogo-mu3")
    assert code == 0
    data = last_json(out)
    assert data["pass"] is True
    assert abs(data["metrics"]["norm_gap"] - 0.4142) < 1e-3
    assert data["metrics"]["output_vector"] == [1, 0, 0, 0]
    # the report names the thresholds the pass condition compares against
    assert data["tolerances"] == {
        "min_phase_factor_abs": NOGO_MIN_PHASE_FACTOR,
        "norm_gap": NOGO_MIN_NORM_GAP,
    }


def test_verify_unitarity_and_matrix_json(tmp_path, capsys):
    mat = tmp_path / "m.json"
    code, out, _ = run_cli(
        capsys, "verify", "unitarity", "--samples", "16", "--matrix-out", str(mat)
    )
    assert code == 0
    assert last_json(out)["metrics"]["max_dev"] <= 1e-12
    # re-importing the exported matrix passes the admissibility gate
    code, out, _ = run_cli(capsys, "verify", "unitarity", "--matrix-json", str(mat))
    assert code == 0


def test_verify_unitarity_failure_exit_1(tmp_path, capsys):
    path = tmp_path / "row0.json"
    path.write_bytes(INADMISSIBLE_MATRICES["row0.json"])
    code, out, _ = run_cli(capsys, "verify", "unitarity", "--matrix-json", str(path))
    assert code == 1
    assert last_json(out)["pass"] is False


def test_a_huge_matrix_entry_fails_without_a_warning(tmp_path, capsys):
    # H*H overflows to inf, which fails the unitarity bound like any deviation
    path = tmp_path / "huge.json"
    path.write_bytes(INADMISSIBLE_MATRICES["huge.json"])
    code, out, err = run_cli(capsys, "verify", "unitarity", "--matrix-json", str(path))
    assert (code, err) == (1, "")
    assert last_json(out)["metrics"]["max_dev"] == "inf"  # strict JSON has no Infinity


def test_verify_gram_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "gram", "--rho-im", "1", "--max-word-len", "2")
    assert code == 0
    assert last_json(out)["metrics"]["max_offdiag"] <= 1e-8


def test_verify_parseval_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "parseval", "--rho-re", "1", "--gamma", "0", "--n-max", "64"
    )
    assert code == 0
    data = last_json(out)
    for key in ("s_4", "s_16", "s_64"):
        assert abs(data["metrics"][key] - 1.0) <= 1e-10


def test_verify_projection_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "projection", "--rho-im", "1", "--max-word-len", "2"
    )
    assert code == 0
    assert last_json(out)["metrics"]["max_weight_dev"] <= 1e-10


def test_verify_incomplete_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "incomplete", "--gamma", "1", "3", "--n-max", "256"
    )
    assert code == 0
    data = last_json(out)
    assert data["metrics"]["flagged_1"] is True
    assert data["metrics"]["deficiency_3"] <= 1e-12
    # no requested frequency is missing from the span: nothing shows incompleteness
    code, out, _ = run_cli(
        capsys, "verify", "incomplete", "--gamma", "0", "3", "--n-max", "256"
    )
    assert code == 1
    assert last_json(out)["pass"] is False


def test_verify_ruelle_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "ruelle", "--rho-im", "1", "--grid=-1:0:5", "--level", "2"
    )
    assert code == 0
    data = last_json(out)
    assert data["metrics"]["max_refinement_residual"] <= 1e-9
    assert data["tolerances"]["specialization"] == SPECIALIZATION_TOL
    # a solver bank meets the reduced form too
    code, out, _ = run_cli(capsys, "verify", "ruelle", *PQ_ALPHA, "--grid=-1:0:5", "--level", "2")
    assert code == 0
    metrics = last_json(out)["metrics"]
    assert metrics["max_refinement_residual"] <= 1e-9
    assert metrics["max_specialization_gap"] <= SPECIALIZATION_TOL


@pytest.mark.parametrize("gamma", [5, 7])
def test_pq_parseval_reports_match_the_independent_oracle(capsys, gamma):
    # the recursion-path oracle on the digit weights of the --p-re/--q-re bank
    argv = ["verify", "parseval", "--p-re", "0.6", "--q-re", "0.8", "--gamma", str(gamma),
            "--n-max", "4096"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    metrics = last_json(out)["metrics"]
    _, d1, _, d3 = _bank_from_args(build_parser().parse_args(argv))[0].digit_weights
    oracle = oracle_trace_checkpoints(gamma, d1, d3, 4096)
    assert sorted(oracle) == [4, 16, 64, 256, 1024, 4096]
    for n, value in oracle.items():
        assert abs(metrics[f"s_{n}"] - value) <= 1e-12, n


def test_pq_flags_name_the_certify_solver_bank():
    # --p-re P --q-re Q is shorthand for the solver bank a10 = P, a30 = Q,
    # a11 = sqrt(1 - P^2), a12 = a21 = 0, a22 = 1
    a11 = {S2: "0.7071067811865475", "0.6": "0.8"}
    parser = build_parser()
    banks = [bank for _, bank, _ in _certify_script().MENU if bank[0] == "--p-re"]
    assert [bank[1] for bank in banks] == [S2, "0.6"]
    for bank in banks:
        p, q = bank[1], bank[3]
        alpha = ["--alpha-a10-re", p, "--alpha-a30-re", q, "--alpha-a11-re", a11[p],
                 "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1"]
        via_pq, _ = _bank_from_args(parser.parse_args(["weights", *bank, "--n-max", "1"]))
        via_alpha, _ = _bank_from_args(parser.parse_args(["weights", *alpha, "--n-max", "1"]))
        assert via_pq.A.tobytes() == via_alpha.A.tobytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--rho-re", "-1", "--p-re", "0.6", "--q-re", "0.8", "--n-max", "3",
         "--out", "w.csv"],
        ["verify", "parseval", "--rho-im", "1", "--q-im", "0"],
        ["verify", "cuntz", "--rho-re", "-1", *PQ_ALPHA],
        ["verify", "ruelle", "--alpha-a22-im", "0", "--rho-im", "1"],
        ["verify", "gram", "--p-re", "0.6", "--q-re", "0.8", *PQ_ALPHA],
        ["verify", "incomplete", "--rho-re", "-1", "--p-im", "0"],
    ],
    ids=["rho_and_pq", "rho_and_pq_by_im_flags", "rho_and_alpha", "rho_and_alpha_by_im_flag",
         "pq_and_alpha", "rho_and_pq_on_incomplete"],
)
def test_naming_two_banks_exits_2(capsys, monkeypatch, tmp_path, argv):
    # a kind of bank is named when any of its flags is given, and one bank is used
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "two banks" in err
    assert not (tmp_path / "w.csv").exists()


_BANK_FLAGS = {
    f"--{name.replace('_', '-')}-{part}"
    for _, names in _BANK_PARAMS.values() for name in names for part in ("re", "im")
}
# The rho = -1 bank spelled as a solver bank, and the (0.6, 0.8) solver bank.
_MINUS_ONE_ALPHA = (
    "--alpha-a10-re", "0", "--alpha-a30-re", "1", "--alpha-a11-re", "0",
    "--alpha-a12-re", "1", "--alpha-a21-re", "1", "--alpha-a22-re", "0",
)
_PQ_LOPSIDED_ALPHA = (
    "--alpha-a10-re", "0.6", "--alpha-a30-re", "0.8", "--alpha-a11-re", "0.8",
    "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1",
)


def _leaves(parser, words=()) -> dict:
    """The parser of each subcommand under parser, keyed by its words ("verify gram")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(words): parser}
    return {key: leaf for name, sub in subs[0].choices.items()
            for key, leaf in _leaves(sub, (*words, name)).items()}


# Every subcommand, in the order build_parser declares it.
_SUBPARSERS = _leaves(build_parser())
_COMMANDS = list(_SUBPARSERS)
_NO_BANK = ("mu4hat", "verify unitarity", "verify nogo-mu3")


def _options(command) -> list:
    """The actions of the options a subcommand declares, less -h/--help."""
    return [a for a in _SUBPARSERS[command]._actions if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_bank_subcommand_takes_one_bank_grammar(command):
    # each bank subcommand defines exactly the bank flags, and each spelling
    # of a bank names the same matrix on every one of them
    flags = {s for a in _options(command) for s in a.option_strings
             if s.endswith(("-re", "-im"))}
    if command in _NO_BANK:
        assert flags == set()
        return
    assert flags == _BANK_FLAGS
    extra = ["--n-max", "1"] if command == "weights" else []
    spellings = [
        (rho_bank(-1.0), ["--rho-re", "-1"], _MINUS_ONE_ALPHA),
        (pq_bank(0.6, 0.8), ["--p-re", "0.6", "--q-re", "0.8"], _PQ_LOPSIDED_ALPHA),
    ]
    for bank, *argvs in spellings:
        for flags in argvs:
            got, _ = _bank_from_args(build_parser().parse_args([*command.split(), *flags, *extra]))
            assert np.array_equal(got.A, bank.A), flags  # the signs of zero parts may differ


# A cheap run of each subcommand.
_SMALL_FLAGS = {
    "mu4hat": "--t 0.3", "weights": "--n-max 3 --out w.csv", "verify unitarity": "--samples 4",
    "verify cuntz": "--level 1 --trials 2", "verify gram": "--max-word-len 1",
    "verify projection": "--max-word-len 1", "verify parseval": "--n-max 16",
    "verify ruelle": "--grid=-1:0:3 --level 1", "verify nogo-mu3": "",
    "verify incomplete": "--n-max 16",
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_subcommand_is_declared_once(capsys, monkeypatch, tmp_path, command):
    # the parser alone names the report's command and its default tolerance;
    # a subcommand takes --tol, and reads FRAME_LAB_TOL, exactly when it has one
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAME_LAB_TOL", raising=False)
    argv = [*command.split(), *_SMALL_FLAGS[command].split()]
    code, out, _ = run_cli(capsys, *argv)
    report = last_json(out)
    assert code == 0
    assert report["command"] == command
    default_tol = build_parser().parse_args(argv).default_tol
    takes_tol = any(a.dest == "tol" for a in _options(command))
    assert takes_tol == (default_tol is not None)
    if takes_tol:
        assert default_tol in report["tolerances"].values()
    monkeypatch.setenv("FRAME_LAB_TOL", "abc")
    code, out, err = run_cli(capsys, *argv)
    if takes_tol:
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "FRAME_LAB_TOL" in err
    else:
        assert code == 0 and last_json(out)["command"] == command


# The flags each subcommand's report names besides its bank's parameters.
_DECLARED_PARAMS = {
    "mu4hat": {"t"}, "weights": {"n_max", "out"}, "verify unitarity": {"samples"},
    "verify cuntz": {"level", "trials", "seed"}, "verify gram": {"max_word_len"},
    "verify projection": {"max_word_len"}, "verify parseval": {"gamma", "n_max"},
    "verify ruelle": {"grid", "level"}, "verify nogo-mu3": set(),
    "verify incomplete": {"gamma", "n_max"},
}
# Each subcommand at its default bank, and each bank subcommand at a p/q bank.
_PARAMS_CASES = [
    (command, bank) for bank in ([], ["--p-re", "0", "--q-re", "1"]) for command in _COMMANDS
    if not (bank and command in _NO_BANK)
]


@pytest.mark.parametrize("command, bank", _PARAMS_CASES,
                         ids=[" ".join([c, *b]) for c, b in _PARAMS_CASES])
def test_report_params_are_the_banks_and_the_declared_flags(
    capsys, monkeypatch, tmp_path, command, bank
):
    monkeypatch.chdir(tmp_path)
    argv = [*command.split(), *bank, *_SMALL_FLAGS[command].split()]
    args = build_parser().parse_args(argv)
    want = {} if command in _NO_BANK else _bank_from_args(args)[1]
    declared = _DECLARED_PARAMS[command]
    code, out, _ = run_cli(capsys, *argv)
    params = last_json(out)["params"]
    assert code == 0
    assert set(params) == set(want) | declared
    assert {k: params[k] for k in want} == want
    assert {k: params[k] for k in declared} == {k: getattr(args, k) for k in declared}


def test_unitarity_reads_a_matrix_and_names_only_its_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(hadamard_rho(1.0)))
    code, out, _ = run_cli(capsys, "verify", "unitarity", "--samples", "5",
                           "--matrix-json", str(path))
    assert code == 0
    assert last_json(out)["params"] == {"matrix_json": str(path)}


def test_verify_incomplete_refuses_a_parseval_bank(capsys):
    # p != 0: the frame is Parseval, and a truncated trace's deficiency is
    # no evidence of incompleteness
    code, out, err = run_cli(capsys, "verify", "incomplete", "--rho-im", "1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "p = 0" in err


def test_verify_incomplete_takes_any_p_zero_bank(capsys):
    # the solver bank (p, q) = (0, 1) has the digit weights of rho = -1
    code, out, _ = run_cli(capsys, "verify", "incomplete", "--gamma", "1", "3", "--n-max", "256")
    default = last_json(out)
    assert code == 0
    assert (default["params"]["rho_re"], default["params"]["rho_im"]) == (-1.0, 0.0)
    code, out, _ = run_cli(capsys, "verify", "incomplete", "--p-re", "0", "--q-re", "1",
                           "--gamma", "1", "3", "--n-max", "256")
    pq = last_json(out)
    assert code == 0
    assert {k: pq[k] for k in ("pass", "metrics", "tolerances")} == {
        k: default[k] for k in ("pass", "metrics", "tolerances")
    }
    assert pq["params"]["p_re"] == 0.0 and pq["params"]["q_re"] == 1.0


def _contents(directory) -> dict:
    """Each path under directory and its bytes; None for a directory."""
    return {str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


_LAID_OUT = {**FILES, "out": None}  # what lay_out leaves in a directory


@pytest.mark.parametrize("argv", GUARDS)
def test_every_guard_exits_with_its_one_line(capsys, monkeypatch, tmp_path, argv):
    # the row's exit code, nothing on stdout, the row's exact line on stderr,
    # and every path of the working directory as it was, with none added
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAME_LAB_TOL", raising=False)
    lay_out(tmp_path)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (GUARDS[argv][0], "", GUARDS[argv][1] + "\n")
    assert _contents(tmp_path) == _LAID_OUT


_REP_I = ("--rho-im", "1")
# Each verify subcommand with flags, and its library check on the same inputs.
_VERIFY_CASES = {
    "unitarity": (
        ["--samples", "16", "--tol", "1e-11"],
        lambda: verify_unitarity(16, 1e-11),
    ),
    "cuntz": (
        [*PQ_ALPHA, "--level", "2", "--trials", "5", "--seed", "3", "--tol", "1e-9"],
        lambda: verify_cuntz(solve_alpha(*[float(S2)] * 3, 0, 0, 1), 2, 5, 3, 1e-9),
    ),
    "gram": (
        [*_REP_I, "--max-word-len", "2", "--tol", "1e-30"],
        lambda: verify_gram(rho_bank(1j), 2, 1e-30),
    ),
    "projection": (
        [*_REP_I, "--max-word-len", "2", "--tol", "1e-9"],
        lambda: verify_projection(rho_bank(1j), 2, 1e-9),
    ),
    "parseval": (
        ["--p-re", "0.6", "--q-re", "0.8", "--gamma", "5", "--n-max", "64", "--tol", "1e-7"],
        lambda: verify_parseval(parseval_trace([(5, 1.0)], pq_bank(0.6, 0.8), 64), 1e-7),
    ),
    "ruelle": (
        [*_REP_I, "--grid=-1:0:5", "--level", "2", "--tol", "1e-8"],
        lambda: verify_ruelle(rho_bank(1j), np.linspace(-1, 0, 5), 2, 1e-8),
    ),
    "nogo-mu3": ([], verify_nogo_mu3),
    "incomplete": (
        ["--gamma", "1", "3", "--n-max", "256", "--tol", "1e-7"],
        lambda: verify_incomplete(rho_bank(-1.0), [1, 3], 256, 1e-7),
    ),
}


@pytest.mark.parametrize("name", sorted(_VERIFY_CASES))
def test_verify_report_is_the_library_check(capsys, name):
    # the CLI decides nothing: its verdict, metrics and tolerances are the check's
    flags, library_check = _VERIFY_CASES[name]
    code, out, _ = run_cli(capsys, "verify", name, *flags)
    report = last_json(out)
    check = library_check()
    want = json.loads(report_json("", {}, check, 0))
    assert {k: report[k] for k in ("pass", "metrics", "tolerances")} == {
        k: want[k] for k in ("pass", "metrics", "tolerances")
    }
    assert code == (0 if check.passed else 1)


@pytest.mark.parametrize(
    "argv, code", [(["verify", "nogo-mu3"], 0), (["verify", "incomplete", "--gamma", "0"], 1)]
)
def test_a_closed_stdout_exits_by_the_verdict(argv, code):
    # a reader that leaves before the report (`| head -c 0`) costs no traceback
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(frame_lab.__file__).resolve().parents[1])}
    env.pop("FRAME_LAB_TOL", None)
    try:
        result = subprocess.run([sys.executable, "-m", "frame_lab", *argv], stdout=write,
                                stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (code, b"")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "gram", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_subnormal_env_tolerance_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("FRAME_LAB_TOL", "5e-324")
    code, out, err = run_cli(capsys, "mu4hat", "--t", "1")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "capacity" in err


def test_bad_env_tolerance_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FRAME_LAB_TOL", "abc")
    code, out, err = run_cli(capsys, "mu4hat", "--t", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "FRAME_LAB_TOL" in err


def test_default_rho_is_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "gram")
    assert code == 0
    data = last_json(out)
    assert data["pass"] is True
    assert (data["params"]["rho_re"], data["params"]["rho_im"]) == (1.0, 0.0)


def test_verify_infeasible_alpha_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "cuntz",
        "--alpha-a10-re", "0.5", "--alpha-a30-re", "0.5",
        "--alpha-a11-re", "0.5", "--alpha-a12-re", "0",
        "--alpha-a21-re", "0", "--alpha-a22-re", "1",
    )
    assert code == 2
    assert "duality" in err


def test_report_deterministic_modulo_duration(capsys):
    argv = ["verify", "gram", "--rho-im", "1", "--max-word-len", "2"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = last_json(out1), last_json(out2)
    d1.pop("duration_ms")
    d2.pop("duration_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "nogo-mu3", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == last_json(out)


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("FRAME_LAB_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "verify", "gram", "--rho-im", "1", "--max-word-len", "1")
    assert code == 0
    assert last_json(out)["tolerances"]["max_entry_dev"] == 1e-6
    # explicit flag wins over the environment
    code, out, _ = run_cli(
        capsys, "verify", "gram", "--rho-im", "1", "--max-word-len", "1", "--tol", "1e-9"
    )
    assert last_json(out)["tolerances"]["max_entry_dev"] == 1e-9


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CERTIFY_SCRIPT = SCRIPTS / "certify_all.py"


def _script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _certify_script():
    return _script(CERTIFY_SCRIPT)


CODE_SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


class Words:
    """Class docstring."""

    def join(self):
        """Function docstring,
        over two lines."""
        return os.path.join(
            "a",  # a comment inside the call
            "b",
        )


TEXT = """a string that is no docstring
spans two lines"""
'''


def test_code_size_counts_only_lines_of_code(tmp_path, capsys):
    # code lines: import, class, def, the four lines of the call and both
    # lines of TEXT; the docstrings, the comment and the blank lines do not count
    path = tmp_path / "sample.py"
    path.write_text(CODE_SAMPLE)
    code_size = _script(SCRIPTS / "code_size.py")
    assert code_size.code_lines(path) == 9
    assert code_size.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == f"     9  {path}\n     9  {path}\n    18  total\n"


def _certify(capsys, out_dir):
    code = _certify_script().main(["--out-dir", str(out_dir), "--word-len", "2", "--n-max", "64"])
    return code, capsys.readouterr().out.splitlines()


def test_certify_runs_the_cli_ladder(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("FRAME_LAB_TOL", raising=False)
    code, lines = _certify(capsys, tmp_path / "default")
    assert code == 0
    assert lines[-1] == "[certify] ALL OK"
    reports = [json.loads(line) for line in lines[:-1]]
    assert all(r["pass"] is True for r in reports)
    assert len(list((tmp_path / "default").glob("*.csv"))) == 10
    # the environment cannot loosen (or tighten) the certified tolerances
    monkeypatch.setenv("FRAME_LAB_TOL", "1e-30")
    code, lines = _certify(capsys, tmp_path / "env")
    assert code == 0
    assert lines[-1] == "[certify] ALL OK"
    assert [json.loads(line)["tolerances"] for line in lines[:-1]] == [
        r["tolerances"] for r in reports
    ]


def test_verify_cuntz_level_zero_passes_on_every_certified_bank(capsys):
    # at level 0 the identity sum is one level deeper than the trial vector;
    # the residual must still cancel atom by atom. Off rho = +-1 the entries
    # round, and the residual keeps that rounding: it reads above 0
    for name, bank, _ in _certify_script().MENU:
        for seed in range(3):
            argv = ["verify", "cuntz", *bank, "--level", "0", "--trials", "3", "--seed", str(seed)]
            code, out, _ = run_cli(capsys, *argv)
            ident = last_json(out)["metrics"]["max_identity_residual"]
            assert code == 0, (name, seed, last_json(out)["metrics"])
            assert ident <= 1e-15
            if name not in ("rho_one", "rho_minus_one"):
                assert ident > 0, (name, seed)


def test_cuntz_and_the_certify_ladder_leave_numpy_random_unimported(tmp_path):
    # verify cuntz draws with the stdlib generator; importing numpy.random
    # would cost every such process ~15 ms and ~5 MB
    program = "\n".join([
        "import runpy, sys",
        "from frame_lab import cli",
        "codes = [cli.main(['verify', 'cuntz', '--rho-im', '1', '--level', '4', '--trials', '20'])]",
        f"sys.argv = ['certify_all.py', '--out-dir', {str(tmp_path)!r}]",
        "try:",
        f"    runpy.run_path({str(CERTIFY_SCRIPT)!r}, run_name='__main__')",
        "except SystemExit as exit:",
        "    codes.append(exit.code)",
        "print(codes, 'numpy.random' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(frame_lab.__file__).resolve().parents[1])}
    env.pop("FRAME_LAB_TOL", None)
    result = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] False"


def test_certify_reports_a_failed_call(capsys, monkeypatch, tmp_path):
    script = _certify_script()
    monkeypatch.setattr(
        script, "ladder", lambda *_: [["verify", "nogo-mu3"], ["verify", "incomplete", "--gamma", "0"]]
    )
    code = script.main(["--out-dir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "[certify] FAILURES PRESENT"


# The CLI argument space, read from build_parser(): every subcommand and
# every option it declares but -h/--help, each given or not (a required one
# always), its values drawn from _VALUES by the option's dest. The values
# include 0, negative, nan, inf, subnormal and huge ones, and pairs of parts
# whose modulus overflows. Sizes that drive work stay cheap, and every one of
# them also takes values past its capacity guard, which must be refused before
# any work. Every file a call writes lands in the test's working directory.
_FLOAT = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", S2, "0.6", "0.8", "1e-300"]),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1.7e308", "-1.7e308", "5e-324"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_TOL = st.one_of(st.sampled_from(["1e-8", "1e-12"]), _FLOAT)
_HUGE = 10**30


def _ints(*cheap, caps=()):
    """A cheap size, a bad one, one past a cap given, or a huge one."""
    bad = [-_HUGE, -1, 0, *(cap + 1 for cap in caps), _HUGE]
    return st.one_of(st.sampled_from(cheap), st.sampled_from(bad)).map(str)


def _one(values):
    return values.map(lambda v: [v])


_GRID_END = st.one_of(st.sampled_from(["-1", "0", "0.5"]), _FLOAT)
# The values of each option, keyed by its dest; a dest missing here fails at collection.
_VALUES = {
    "t": _one(_FLOAT),
    "tol": _one(_TOL),
    "n_max": _one(_ints(1, 16, 21, caps=[4**MAX_ENUM_LEN])),
    "samples": _one(_ints(1, 4, caps=[MAX_SAMPLES])),
    "matrix_json": _one(st.sampled_from(list(FILES))),  # ok.json, then the probes
    "level": _one(_ints(0, 1, 2, caps=[MAX_CUNTZ_LEVEL, MAX_RUELLE_LEVEL])),
    "trials": _one(_ints(1, caps=[MAX_TRIALS])),
    "seed": _one(_ints(7)),
    "max_word_len": _one(_ints(1, 2, caps=[FAMILY_MAX_LEN])),
    # 2^53: a frequency that float64 does not hold exactly
    "gamma": st.one_of(
        st.lists(_ints(1, 3, 2**53), min_size=1, max_size=3),
        st.integers(1, 3).map(lambda k: [str(g) for g in range(MAX_GAMMAS + k)]),
    ),
    "grid": _one(st.builds("{}:{}:{}".format, _GRID_END, _GRID_END, st.one_of(
        st.sampled_from(["0", "1", "3", "x"]), _ints(3, caps=[MAX_GRID_POINTS])))),
    # a new file, in the working directory or in out/; one under a missing
    # directory, a directory, a name too long to create, an existing file
    **dict.fromkeys(_OUTPUTS, _one(st.sampled_from(
        ["written", "out/written", "missing/written", "out", "x" * 300, "ok.json"]))),
}
# Admissible banks that reach the checks: rho = i, -1 and e^{-i pi/3}, the
# (p, q) banks (0.6, 0.8) and (0, 1), and PQ_ALPHA.
_KNOWN_BANKS = [
    ["--rho-im=1"], ["--rho-re=-1"], ["--rho-re=0.5", "--rho-im=-0.8660254037844386"],
    ["--p-re=0.6", "--q-re=0.8"], ["--p-re=0", "--q-re=1"], list(PQ_ALPHA),
]


@st.composite
def _drawn_bank(draw):
    """Drawn parts of one kind of _BANK_PARAMS, each given or not, except
    that every -re part is given when the draw completes the kind."""
    kind, complete = draw(st.sampled_from(list(_BANK_PARAMS))), draw(st.booleans())
    flags = []
    for name in _BANK_PARAMS[kind][1]:
        for part in ("re", "im"):
            if (complete and part == "re") or draw(st.booleans()):
                flags.append(f"--{name.replace('_', '-')}-{part}={draw(_FLOAT)}")
    return flags


# The flags of one bank: none (the default), a known bank or a drawn one.
_BANK = st.one_of(st.just([]), st.sampled_from(_KNOWN_BANKS), _drawn_bank())


def _tokens(action):
    """The tokens of one option: none, or its flag and drawn values. An option
    of one value is given once per value drawn, and the last one counts."""
    def spell(flag, values):
        return [flag, *values] if action.nargs == "+" else [f"{flag}={v}" for v in values]

    given = st.builds(spell, st.sampled_from(action.option_strings), _VALUES[action.dest])
    return given if action.required else st.one_of(st.just([]), given)


def _grammar(command):
    """The argvs of one subcommand: its bank, if it takes one, and each other option."""
    options = _options(command)
    parts = [_BANK] if any(a.option_strings[0] in _BANK_FLAGS for a in options) else []
    parts += [_tokens(a) for a in options if a.option_strings[0] not in _BANK_FLAGS]
    return st.tuples(*parts).map(lambda drawn: [*command.split(), *itertools.chain(*drawn)])


_ARGV = st.one_of([_grammar(command) for command in _COMMANDS])


def _drawn_options(argvs, done, draws=500) -> set:
    """The option strings of derandomized draws of argvs, drawn until done(them)
    holds or the draws run out."""
    drawn = set()

    def covers(argv):
        drawn.update(a.split("=")[0] for a in argv if a.startswith("--"))
        return done(drawn)

    with contextlib.suppress(NoSuchExample):
        find(argvs, covers, settings=settings(max_examples=draws, derandomize=True, database=None,
                                              phases=[Phase.generate]))
    return drawn


def _bank_as_one(options) -> set:
    """options with every bank flag read as one, "bank": _BANK draws them as one piece."""
    return {"bank" if s in _BANK_FLAGS else s for s in options}


@pytest.mark.parametrize("command", _COMMANDS)
def test_the_grammar_draws_every_option_the_parser_declares(command):
    # a flag added to build_parser() is drawn, or no _VALUES entry holds its
    # dest and collection fails: it cannot be left out of the grammar
    declared = _bank_as_one(s for a in _options(command) for s in a.option_strings)
    drawn = _drawn_options(_grammar(command), lambda drawn: _bank_as_one(drawn) >= declared)
    assert _bank_as_one(drawn) == declared


def test_the_bank_draws_every_bank_flag():
    assert _drawn_options(_BANK, lambda drawn: drawn >= _BANK_FLAGS) == _BANK_FLAGS


def _names_a_parseval_bank(argv) -> bool:
    """Whether argv parses to a bank whose frame is Parseval (p != 0)."""
    try:
        bank, _ = _bank_from_args(build_parser().parse_args(argv))
    except frame_lab.errors.DomainError:
        return False
    return is_parseval(bank)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    """The property test's working directory, laid out anew before each example."""
    return tmp_path_factory.mktemp("cli_property")


def _with_guard_examples(test):
    """Each guard row's argv as an example, given every file output its
    subcommand declares; an argv that names no subcommand as it is."""
    for argv in map(str.split, GUARDS):
        command = next((c for c in _COMMANDS if argv[:len(c.split())] == c.split()), None)
        outputs = [f"{a.option_strings[0]}=written" for a in (_options(command) if command else [])
                   if a.dest in _OUTPUTS and a.option_strings[0] not in argv]
        test = example(argv=[*argv, *outputs])(test)
    return test


@_with_guard_examples
@given(argv=_ARGV)
@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_argv_keeps_the_exit_contract(property_dir, argv):
    # exit 0/1 with one strict JSON report line, or exit 2/3 with nothing on
    # stdout, one line on stderr and every path as it was, with none added
    shutil.rmtree(property_dir)
    property_dir.mkdir()
    lay_out(property_dir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(property_dir)  # where weights writes its default weights.csv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
    finally:
        os.chdir(cwd)
    assert not caught, "a warning is one more stderr line"
    lines = out.getvalue().splitlines()
    default_tol = not any(a.startswith("--tol") for a in argv) and "FRAME_LAB_TOL" not in os.environ
    if argv[:2] == ["verify", "cuntz"] and default_tol:
        assert code != 1, "the Cuntz relations hold on every admissible bank at the default tol"
    if argv[:2] == ["verify", "incomplete"] and _names_a_parseval_bank(argv):
        assert code == 2, "a bank with p != 0 has no incompleteness to certify"
    if code in (0, 1):
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0], parse_constant=_reject_constant), dict)
    else:
        assert code in (2, 3)
        assert lines == []
        assert len(err.getvalue().splitlines()) == 1
        assert _contents(property_dir) == _LAID_OUT, "a refused call leaves every path as it was"
