import contextlib
import importlib.util
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from frame_lab import (
    CuntzRep,
    RunReport,
    WeightSpec,
    parseval_trace,
    rho_bank,
    solve_alpha,
    verify_cuntz,
    verify_gram,
    verify_incomplete,
    verify_nogo_mu3,
    verify_parseval,
    verify_projection,
    verify_ruelle,
    verify_unitarity,
)
from frame_lab.cli import MAX_GRID_POINTS, main
from frame_lab.cuntz import FAMILY_MAX_LEN, MAX_TRIALS
from frame_lab.frames import MAX_ENUM_LEN, MAX_GAMMAS, SPECIALIZATION_TOL
from frame_lab.filters import (
    MAX_SAMPLES,
    NOGO_MIN_NORM_GAP,
    NOGO_MIN_PHASE_FACTOR,
    hadamard_rho,
    matrix_to_json,
)

S2 = "0.7071067811865476"
# The solver bank with p = q = 1/sqrt(2).
PQ_ALPHA = (
    "--alpha-a10-re", S2, "--alpha-a30-re", S2, "--alpha-a11-re", S2,
    "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1",
)
_ENTRY = {"re": 0.5, "im": 0}
# Documents that are not a 4x4 matrix in the matrix_to_json schema.
BAD_MATRIX_FILES = {
    "not_json.json": b"not json",
    "no_rows.json": b'{"foo": 1}',
    "list.json": b"[1,2]",
    "bare_numbers.json": json.dumps({"rows": [[0.5] * 4] * 4}).encode(),
    "string_entry.json": json.dumps({"rows": [[{"re": "x", "im": 0}] + [_ENTRY] * 3] * 4}).encode(),
    "bad_bytes.json": b"\xff\xfe",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_report_round_trip():
    report = RunReport(
        command="verify gram",
        params={"rho_re": 0.0, "rho_im": 1.0},
        metrics={"max_offdiag": 1.2e-15},
        passed=True,
        tolerances={"max_entry_dev": 1e-8},
        duration_ms=12,
        version="0.1.0",
    )
    text = report.to_json()
    assert json.loads(text) == {
        "command": "verify gram",
        "params": {"rho_re": 0.0, "rho_im": 1.0},
        "metrics": {"max_offdiag": 1.2e-15},
        "pass": True,
        "tolerances": {"max_entry_dev": 1e-8},
        "duration_ms": 12,
        "version": "0.1.0",
        "schema_version": "1",
    }
    # keys sorted lexicographically
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_report_sanitizes_numpy_scalars():
    report = RunReport(
        command="x",
        params={},
        metrics={"v": np.float64(1.5), "flag": np.bool_(True)},
        passed=np.bool_(True),
        tolerances={},
        duration_ms=0,
        version="0",
    )
    data = json.loads(report.to_json())
    assert data["metrics"] == {"v": 1.5, "flag": True}


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
    bad = hadamard_rho(1.0).copy()
    bad[0] = [1, 0, 0, 0]
    path = tmp_path / "bad.json"
    path.write_text(matrix_to_json(bad))
    code, out, _ = run_cli(capsys, "verify", "unitarity", "--matrix-json", str(path))
    assert code == 1
    assert last_json(out)["pass"] is False


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
    # a solver bank has no reduced form to compare against
    code, out, _ = run_cli(capsys, "verify", "ruelle", *PQ_ALPHA, "--grid=-1:0:5", "--level", "2")
    assert code == 0
    metrics = last_json(out)["metrics"]
    assert metrics["max_refinement_residual"] <= 1e-9
    assert metrics["max_specialization_gap"] is None


def test_verify_capacity_exit_3(capsys):
    code, _, err = run_cli(capsys, "verify", "gram", "--rho-im", "1", "--max-word-len", "7")
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mu4hat", "--t", "1e300"],
        ["mu4hat", "--t", "1e30"],
        ["verify", "parseval", "--gamma", "1", "--n-max", str(4**10 + 1)],
        ["verify", "incomplete", "--gamma", "1", "--n-max", str(4**10 + 1)],
        ["verify", "incomplete", "--gamma", *map(str, range(MAX_GAMMAS + 1))],
        ["verify", "projection", "--max-word-len", str(FAMILY_MAX_LEN + 1)],
        ["verify", "ruelle", "--grid=0:1:99999999999999999"],
        ["verify", "ruelle", f"--grid=0:1:{MAX_GRID_POINTS + 1}"],
        ["weights", "--n-max", str(4**MAX_ENUM_LEN + 1), "--out", "w.csv"],
        ["verify", "cuntz", "--trials", str(MAX_TRIALS + 1)],
        ["verify", "unitarity", "--samples", str(MAX_SAMPLES + 1)],
    ],
)
def test_uncertifiable_input_exits_3_with_one_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "capacity" in err
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "gram", "--rho-im", "1", "--max-word-len", "0"],
        ["verify", "projection", "--rho-im", "1", "--max-word-len", "0"],
        ["verify", "cuntz", "--rho-re", "1", "--level", "-1"],
        ["verify", "unitarity", "--samples", "0"],
        ["verify", "unitarity", "--rho-im", "1"],
        ["verify", "cuntz", "--rho-re", "1", "--level", "1", "--seed", "-1"],
        # nan fails every `dev <= tol` guard; 1e300 squares to inf, not OverflowError
        ["verify", "parseval", "--rho-re", "nan", "--n-max", "16"],
        ["weights", "--rho-re", "nan", "--n-max", "3", "--out", "w.csv"],
        ["weights", "--p-re", "nan", "--q-re", "1", "--n-max", "3", "--out", "w.csv"],
        ["verify", "parseval", "--p-re", "1e300", "--q-re", "1", "--n-max", "4"],
        ["verify", "gram", "--max-word-len", "1",
         "--alpha-a10-re", "1e300", "--alpha-a30-re", "nan", "--alpha-a11-re", "0",
         "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1"],
        ["verify", "ruelle", "--rho-im", "1", "--grid=0:1:0"],
        ["verify", "incomplete", "--gamma", "1", "1", "--n-max", "16"],
        ["weights", "--rho-re", "1", "--n-max", "-5", "--out", "w.csv"],
        ["verify", "gram", "--rho-im", "1", "--tol", "inf"],
        # each solver constraint holds within tol, the assembled bank does not
        ["verify", "gram", "--max-word-len", "2",
         "--alpha-a10-re", "0.7071067811868476", "--alpha-a30-re", "0.7071067811868476",
         "--alpha-a11-re", "0.7071067811865476", "--alpha-a12-re", "0",
         "--alpha-a21-re", "0", "--alpha-a22-re", "1"],
        # rejected by the parser itself
        ["weights", "--rho-re", "1", "--n-max", "3", "--tol", "1e-3", "--out", "w.csv"],
        ["weights", "--rho-re", "1", "--n-max", "three", "--out", "w.csv"],
        [],
        ["verify"],
        # malformed files, and a report copy that cannot be written
        *[["verify", "unitarity", "--matrix-json", name] for name in BAD_MATRIX_FILES],
        ["verify", "nogo-mu3", "--out", "missing_dir/report.json"],
        ["verify", "nogo-mu3", "--out", "."],
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    for name, data in BAD_MATRIX_FILES.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not (tmp_path / "w.csv").exists()


_REP_I = ("--rho-im", "1")
# Each verify subcommand with flags, and its library check on the same inputs.
_VERIFY_CASES = {
    "unitarity": (
        ["--samples", "16", "--tol", "1e-11"],
        lambda: verify_unitarity(16, 1e-11),
    ),
    "cuntz": (
        [*PQ_ALPHA, "--level", "2", "--trials", "5", "--seed", "3", "--tol", "1e-9"],
        lambda: verify_cuntz(CuntzRep(solve_alpha(*[float(S2)] * 3, 0, 0, 1)), 2, 5, 3, 1e-9),
    ),
    "gram": (
        [*_REP_I, "--max-word-len", "2", "--tol", "1e-30"],
        lambda: verify_gram(CuntzRep(rho_bank(1j)), 2, 1e-30),
    ),
    "projection": (
        [*_REP_I, "--max-word-len", "2", "--tol", "1e-9"],
        lambda: verify_projection(CuntzRep(rho_bank(1j)), 2, 1e-9),
    ),
    "parseval": (
        ["--p-re", "0.6", "--q-re", "0.8", "--gamma", "5", "--n-max", "64", "--tol", "1e-7"],
        lambda: verify_parseval(parseval_trace([(5, 1.0)], WeightSpec.from_pq(0.6, 0.8), 64), 1e-7),
    ),
    "ruelle": (
        [*_REP_I, "--grid=-1:0:5", "--level", "2", "--tol", "1e-8"],
        lambda: verify_ruelle(CuntzRep(rho_bank(1j)), np.linspace(-1, 0, 5), 2, 1e-8, rho=1j),
    ),
    "nogo-mu3": ([], verify_nogo_mu3),
    "incomplete": (
        ["--gamma", "1", "3", "--n-max", "256", "--tol", "1e-7"],
        lambda: verify_incomplete([1, 3], 256, 1e-7),
    ),
}


@pytest.mark.parametrize("name", sorted(_VERIFY_CASES))
def test_verify_report_is_the_library_check(capsys, name):
    # the CLI decides nothing: its verdict, metrics and tolerances are the check's
    flags, library_check = _VERIFY_CASES[name]
    code, out, _ = run_cli(capsys, "verify", name, *flags)
    report = last_json(out)
    check = library_check()
    want = json.loads(RunReport("", {}, check.metrics, check.passed, check.tolerances, 0, "").to_json())
    assert {k: report[k] for k in ("pass", "metrics", "tolerances")} == {
        k: want[k] for k in ("pass", "metrics", "tolerances")
    }
    assert code == (0 if check.passed else 1)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "gram", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


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


def _certify_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "certify_all.py"
    spec = importlib.util.spec_from_file_location("certify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # the residual must still cancel atom by atom
    for name, _, bank, _ in _certify_script().MENU:
        for seed in range(3):
            argv = ["verify", "cuntz", *bank, "--level", "0", "--trials", "3", "--seed", str(seed)]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, (name, seed, last_json(out)["metrics"])
            assert last_json(out)["metrics"]["max_identity_residual"] <= 1e-15


def test_certify_reports_a_failed_call(capsys, monkeypatch, tmp_path):
    script = _certify_script()
    monkeypatch.setattr(
        script, "ladder", lambda *_: [["verify", "nogo-mu3"], ["verify", "incomplete", "--gamma", "0"]]
    )
    code = script.main(["--out-dir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "[certify] FAILURES PRESENT"


# The CLI argument space: every subcommand, with flag values that include 0,
# negative, nan, inf and huge ones. Sizes that drive work stay cheap, and every
# one of them also takes values past its capacity guard, which must be refused
# before any work.
_FLOAT = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", S2, "0.6", "0.8", "1e-300"]),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_TOL = st.one_of(st.sampled_from(["1e-8", "1e-12"]), _FLOAT)
_HUGE = 10**30


def _ints(*cheap, cap=None):
    """A cheap size, a bad one, or one past the cap (if given) or huge."""
    past = [_HUGE] if cap is None else [cap + 1, _HUGE]
    return st.one_of(st.sampled_from(cheap), st.sampled_from([-_HUGE, -1, 0, *past]))


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


@st.composite
def _bank(draw, solver=True):
    kind = draw(st.sampled_from(["default", "rho", "solver"] if solver else ["default", "rho"]))
    if kind == "rho":
        unit = [["--rho-im=1"], ["--rho-re=-1"], ["--rho-re=0.5", "--rho-im=-0.8660254037844386"]]
        if draw(st.booleans()):
            return draw(st.sampled_from(unit))
        return draw(_optional("rho-re", _FLOAT)) + draw(_optional("rho-im", _FLOAT))
    if kind == "solver":
        if draw(st.booleans()):
            return list(PQ_ALPHA)
        return [a for n in ("a10", "a30", "a11", "a12", "a21", "a22")
                for a in draw(_flag(f"alpha-{n}-re", _FLOAT))]
    return []


@st.composite
def _spec(draw):
    if draw(st.booleans()):
        return draw(_bank(solver=False))
    parts = [draw(_optional(name, _FLOAT)) for name in ("p-re", "p-im", "q-re", "q-im")]
    return [a for part in parts for a in part]


@st.composite
def _argv(draw):
    tol = draw(_optional("tol", _TOL))
    command = draw(st.sampled_from(
        ["mu4hat", "weights", "unitarity", "cuntz", "gram", "projection",
         "parseval", "ruelle", "nogo-mu3", "incomplete"]
    ))
    if command == "mu4hat":
        return ["mu4hat", *draw(_flag("t", _FLOAT)), *tol]
    if command == "weights":
        n_max = draw(_flag("n-max", _ints(1, 21, cap=4**MAX_ENUM_LEN)))
        return ["weights", *draw(_spec()), *n_max]
    if command == "unitarity":
        samples = draw(_optional("samples", _ints(1, 4, cap=MAX_SAMPLES)))
        return ["verify", "unitarity", *samples, *tol]
    if command == "cuntz":
        sizes = [
            draw(_optional("level", _ints(0, 1, 2, cap=4))),
            draw(_flag("trials", _ints(1, cap=MAX_TRIALS))),
            draw(_optional("seed", _ints(7))),
        ]
        return ["verify", "cuntz", *draw(_bank()), *[a for s in sizes for a in s], *tol]
    if command in ("gram", "projection"):
        length = draw(_flag("max-word-len", _ints(1, 2, cap=FAMILY_MAX_LEN)))
        return ["verify", command, *draw(_bank()), *length, *tol]
    if command == "parseval":
        gamma = draw(_optional("gamma", _ints(3, 2**53)))
        n_max = draw(_optional("n-max", _ints(16, cap=4**MAX_ENUM_LEN)))
        return ["verify", "parseval", *draw(_spec()), *gamma, *n_max, *tol]
    if command == "ruelle":
        a, b = (draw(st.one_of(st.sampled_from(["-1", "0", "0.5"]), _FLOAT)) for _ in "ab")
        steps = draw(st.one_of(st.sampled_from(["0", "1", "3", "x"]), _ints(3, cap=MAX_GRID_POINTS)))
        level = draw(_optional("level", _ints(1, 2, cap=4)))
        return ["verify", "ruelle", *draw(_bank()), f"--grid={a}:{b}:{steps}", *level, *tol]
    if command == "incomplete":
        gammas = draw(st.one_of(
            st.lists(_ints(1, 3), min_size=1, max_size=3),
            st.integers(1, 3).map(lambda k: list(range(MAX_GAMMAS + k))),
        ))
        n_max = draw(_optional("n-max", _ints(16, cap=4**MAX_ENUM_LEN)))
        return ["verify", "incomplete", "--gamma", *map(str, gammas), *n_max, *tol]
    return ["verify", "nogo-mu3"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def weights_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli_property") / "w.csv")


@given(argv=_argv())
@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_argv_keeps_the_exit_contract(weights_out, argv):
    # exit 0/1 with one JSON report line, or exit 2/3 with nothing on stdout
    # and one line on stderr
    if argv[0] == "weights":
        argv = [*argv, "--out", weights_out]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert not caught, "a warning is one more stderr line"
    lines = out.getvalue().splitlines()
    default_tol = not any(a.startswith("--tol") for a in argv) and "FRAME_LAB_TOL" not in os.environ
    if argv[:2] == ["verify", "cuntz"] and default_tol:
        assert code != 1, "the Cuntz relations hold on every admissible bank at the default tol"
    if code in (0, 1):
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0], parse_constant=_reject_constant), dict)
    else:
        assert code in (2, 3)
        assert lines == []
        assert len(err.getvalue().splitlines()) == 1
