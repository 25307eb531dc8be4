"""The CLI's guards, listed once and read by tests/test_report_cli.py and
scripts/dump_reports.py: GUARDS maps each guard argv, written as one string
of space-separated words, to its exit code and the one line it prints on
stderr, and lay_out makes the working directory every row runs in: FILES,
the files the rows read (one admissible matrix, ok.json, the matrix
documents for `verify unitarity --matrix-json` that are malformed, and the
well-formed ones that are not admissible), and an empty out/ directory for
the outputs the rows name there. A call of a row prints nothing on stdout
and leaves every path as it was. A new guard is one more row."""

import json
from pathlib import Path

from frame_lab.filters import hadamard_rho, matrix_to_json

_ENTRY = {"re": 0.5, "im": 0}

# Documents that are not a 4x4 matrix in the matrix_to_json schema, and last
# a well-formed one whose entry 1e999 parses as inf.
MALFORMED_MATRICES = {
    "not_json.json": b"not json",
    "no_rows.json": b'{"foo": 1}',
    "list.json": b"[1,2]",
    "bare_numbers.json": json.dumps({"rows": [[0.5] * 4] * 4}).encode(),
    "string_entry.json": json.dumps({"rows": [[{"re": "x", "im": 0}] + [_ENTRY] * 3] * 4}).encode(),
    "ragged.json": json.dumps({"rows": [[_ENTRY] * 4] * 3 + [[_ENTRY]]}).encode(),
    "bad_bytes.json": b"\xff\xfe",
    "inf_entry.json": json.dumps({"rows": [[_ENTRY] * 4] * 4}).replace("0.5", "1e999", 1).encode(),
}


def _inadmissible_matrices() -> dict[str, bytes]:
    """Well-formed matrix documents that fail one admissibility condition:
    row 0, the kernel condition, the rho = 1 matrix scaled off unitarity
    (which moves row 0 too), and an entry so large that H*H overflows."""
    row0, kernel, huge = hadamard_rho(1.0), hadamard_rho(1.0), hadamard_rho(1.0)
    row0[0] = [1, 0, 0, 0]
    kernel[1, 0] = 3.0
    huge[1, 1] = 1e200
    matrices = {"row0.json": row0, "kernel.json": kernel, "scaled.json": 1.001 * hadamard_rho(1.0),
                "huge.json": huge}
    return {name: matrix_to_json(A).encode() for name, A in matrices.items()}


INADMISSIBLE_MATRICES = _inadmissible_matrices()
FILES = {"ok.json": matrix_to_json(hadamard_rho(1.0)).encode(), **MALFORMED_MATRICES,
         **INADMISSIBLE_MATRICES}


def lay_out(directory: Path) -> None:
    """Write FILES and an empty out/ directory into directory."""
    (directory / "out").mkdir()
    for name, data in FILES.items():
        (directory / name).write_bytes(data)


_GAMMAS = " ".join(map(str, range(100)))
_LONG = "x" * 300 + ".json"  # longer than a file name may be
_SCHEMA = "error: matrix JSON is not in the rows/re/im schema"
_OFF_UNITARY = (  # each solver constraint holds within tol, the assembled bank does not
    "--alpha-a10-re 0.7071067811868476 --alpha-a30-re 0.7071067811868476 "
    "--alpha-a11-re 0.7071067811865476 --alpha-a12-re 0 --alpha-a21-re 0 --alpha-a22-re 1"
)

GUARDS = {
    # Past a capacity cap: an integer cap names its input, value and cap, a
    # transform cap the input that needs the factors. Each input is checked in
    # full before the next, so a level past its cap wins over a bad seed.
    "verify gram --rho-im 1 --max-word-len 6": (3, "capacity guard: max_len 6 exceeds cap 5"),
    "verify gram --rho-im 1 --max-word-len 7": (3, "capacity guard: max_len 7 exceeds cap 5"),
    "verify projection --max-word-len 6": (3, "capacity guard: max_len 6 exceeds cap 5"),
    "verify projection --rho-im 1 --max-word-len 6": (3, "capacity guard: max_len 6 exceeds cap 5"),
    "verify cuntz --level 5": (3, "capacity guard: level 5 exceeds cap 4"),
    "verify cuntz --level 5 --seed -1": (3, "capacity guard: level 5 exceeds cap 4"),
    "verify cuntz --rho-im 1 --level 5 --trials 20": (3, "capacity guard: level 5 exceeds cap 4"),
    "verify cuntz --trials 501": (3, "capacity guard: trials 501 exceeds cap 500"),
    "verify cuntz --rho-im 1 --level 2 --trials 501":
        (3, "capacity guard: trials 501 exceeds cap 500"),
    "verify ruelle --level 5": (3, "capacity guard: level 5 exceeds cap 4"),
    "verify ruelle --grid=0:1:1001": (3, "capacity guard: grid points 1001 exceeds cap 1000"),
    "verify ruelle --rho-im 1 --grid=-1:0:1001 --level 5":
        (3, "capacity guard: grid points 1001 exceeds cap 1000"),
    "verify ruelle --grid=0:1:99999999999999999":
        (3, "capacity guard: grid points 99999999999999999 exceeds cap 1000"),
    "verify unitarity --samples 100001": (3, "capacity guard: samples 100001 exceeds cap 100000"),
    "verify parseval --gamma 1 --n-max 1048577":
        (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    "verify parseval --rho-im 1 --gamma 3 --n-max 1048577":
        (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    "verify incomplete --gamma 1 --n-max 1048577":
        (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    f"verify incomplete --gamma {_GAMMAS} 100":
        (3, "capacity guard: gamma count 101 exceeds cap 100"),
    f"verify incomplete --gamma {_GAMMAS} -1 --n-max 4096":
        (3, "capacity guard: gamma count 101 exceeds cap 100"),
    "weights --n-max 1048577 --out w.csv": (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    "weights --rho-im 1 --n-max 1048577 --out out/weights_cap_1.csv":
        (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    "mu4hat --t 1e30": (3, "capacity guard: |t| = 1e+30 needs over 64 factors"),
    "mu4hat --t 1e300": (3, "capacity guard: |t| = 1e+300 needs over 64 factors"),
    "mu4hat --t 1 --tol 4e-37": (3, "capacity guard: tolerance 4e-37 needs over 64 factors"),
    # tol / 10 underflows to 0
    "mu4hat --t 1 --tol 5e-324": (3, "capacity guard: tolerance 4.94e-324 needs over 64 factors"),
    # Below an integer floor: the error names the input and its floor.
    "verify gram --max-word-len 0": (2, "error: max_len must be >= 1"),
    "verify gram --rho-im 1 --max-word-len 0": (2, "error: max_len must be >= 1"),
    "verify projection --max-word-len 0": (2, "error: max_len must be >= 1"),
    "verify projection --rho-im 1 --max-word-len 0": (2, "error: max_len must be >= 1"),
    "verify cuntz --level -1": (2, "error: level must be >= 0"),
    "verify cuntz --rho-re 1 --level -1": (2, "error: level must be >= 0"),
    "verify cuntz --seed -1": (2, "error: seed must be >= 0"),
    "verify cuntz --rho-re 1 --level 1 --seed -1": (2, "error: seed must be >= 0"),
    "verify cuntz --trials 0": (2, "error: trials must be >= 1"),
    "verify unitarity --samples 0": (2, "error: samples must be >= 1"),
    "verify ruelle --level 0": (2, "error: level must be >= 1"),
    "verify ruelle --grid=-1:0:0": (2, "error: grid points must be >= 1"),
    "verify ruelle --rho-im 1 --grid=0:1:0": (2, "error: grid points must be >= 1"),
    "verify parseval --n-max 0": (2, "error: n_max must be >= 1"),
    "weights --n-max -1 --out out/weights_bad.csv": (2, "error: n_max must be >= 0"),
    "weights --rho-re 1 --n-max -5 --out w.csv": (2, "error: n_max must be >= 0"),
    # Values no check can take.
    "mu4hat --t nan": (2, "error: t must be a finite real number, got nan"),
    "mu4hat --t inf": (2, "error: t must be a finite real number, got inf"),
    "mu4hat --t 1 --tol 0": (2, "error: tolerance must be positive and finite, got 0.0"),
    "mu4hat --t 1 --tol -1": (2, "error: tolerance must be positive and finite, got -1.0"),
    "verify gram --rho-im 1 --tol inf":
        (2, "error: tolerance must be positive and finite, got inf"),
    "verify incomplete --gamma 1 1": (2, "error: frequencies must be distinct, got [1, 1]"),
    "verify incomplete --gamma 1 1 --n-max 16":
        (2, "error: frequencies must be distinct, got [1, 1]"),
    "verify parseval --gamma 9007199254740992":
        (2, "error: frequencies must stay below 2^53 to be exact in float64"),
    # a and b finite, b - a not: refused before linspace warns
    "verify ruelle --grid=-1e308:1e308:3":
        (2, "error: --grid must be a:b:steps with b - a finite, got '-1e308:1e308:3'"),
    # Banks that are not admissible. nan fails every `dev <= tol` guard, and
    # a part of 1e300 squares to inf; so does a modulus whose parts are finite.
    "verify cuntz --rho-re 0.5": (2, "error: |rho| must be 1 within 1e-12, got |rho| = 0.5"),
    "verify parseval --rho-re nan --n-max 16":
        (2, "error: |rho| must be 1 within 1e-12, got |rho| = nan"),
    "weights --rho-re nan --n-max 3 --out w.csv":
        (2, "error: |rho| must be 1 within 1e-12, got |rho| = nan"),
    "weights --p-re nan --q-re 1 --n-max 3 --out w.csv":
        (2, "error: infeasible parameters: duality violated (|a10|^2 + |a30|^2 = 1 off by nan)"),
    "verify parseval --p-re 1e300 --q-re 1 --n-max 4":
        (2, "error: infeasible parameters: duality violated (|a10|^2 + |a30|^2 = 1 off by inf)"),
    "verify gram --max-word-len 1 --alpha-a10-re 1e300 --alpha-a30-re nan --alpha-a11-re 0 "
    "--alpha-a12-re 0 --alpha-a21-re 0 --alpha-a22-re 1":
        (2, "error: infeasible parameters: duality violated (|a10|^2 + |a30|^2 = 1 off by nan)"),
    "verify gram --p-re 1.7e308 --p-im 1.7e308 --q-re 0":
        (2, "error: infeasible parameters: duality violated (|a10|^2 + |a30|^2 = 1 off by inf)"),
    "verify gram --alpha-a10-re 1 --alpha-a30-re 0 --alpha-a11-re 1.7e308 --alpha-a11-im 1.7e308 "
    "--alpha-a12-re 0 --alpha-a21-re 1 --alpha-a22-re 0":
        (2, "error: infeasible parameters: row1_norm violated (|a10|^2+|a11|^2+|a12|^2 = 1 off by inf)"),
    f"verify gram --max-word-len 2 {_OFF_UNITARY}":
        (2, "error: infeasible parameters: unitarity violated (off by 1.06e-12)"),
    "verify gram --rho-re 1 --p-re 0.6 --q-re 0.8":
        (2, "error: the flags name two banks, rho and p/q; give one"),
    "verify gram --p-im 0.1":
        (2, "error: the p/q bank needs every -re flag; missing --p-re, --q-re"),
    "verify incomplete --rho-im 1 --gamma 1 --n-max 256":
        (2, "error: incompleteness needs a p = 0 bank, got p = 0.5+0.5j"),
    # Rejected by the parser itself.
    "": (2, "error: the following arguments are required: command"),
    "verify": (2, "error: the following arguments are required: check"),
    "verify unitarity --rho-im 1": (2, "error: unrecognized arguments: --rho-im 1"),
    "weights --rho-re 1 --n-max 3 --tol 1e-3 --out w.csv":
        (2, "error: unrecognized arguments: --tol 1e-3"),
    "weights --rho-re 1 --n-max three --out w.csv":
        (2, "error: argument --n-max: invalid int value: 'three'"),
    # a matrix to read and one to write: the export is not dropped in silence
    "verify unitarity --matrix-json ok.json --matrix-out m.json":
        (2, "error: argument --matrix-out: not allowed with argument --matrix-json"),
    "verify unitarity --matrix-json m.json --matrix-out m_out.json":
        (2, "error: argument --matrix-out: not allowed with argument --matrix-json"),
    # Files that cannot be read.
    "verify unitarity --matrix-json missing.json":
        (2, "error: [Errno 2] No such file or directory: 'missing.json'"),
    "verify unitarity --matrix-json not_json.json":
        (2, f"{_SCHEMA} (Expecting value: line 1 column 1 (char 0))"),
    "verify unitarity --matrix-json no_rows.json": (2, f"{_SCHEMA} ('rows')"),
    "verify unitarity --matrix-json list.json":
        (2, f"{_SCHEMA} (list indices must be integers or slices, not str)"),
    "verify unitarity --matrix-json bare_numbers.json":
        (2, f"{_SCHEMA} ('float' object is not subscriptable)"),
    "verify unitarity --matrix-json string_entry.json":
        (2, f"{_SCHEMA} (complex() can't take second arg if first is a string)"),
    "verify unitarity --matrix-json ragged.json":
        (2, "error: matrix JSON must contain 4 rows of 4 entries"),
    "verify unitarity --matrix-json bad_bytes.json":
        (2, f"{_SCHEMA} (Expecting value: line 1 column 1 (char 0))"),
    "verify unitarity --matrix-json inf_entry.json": (2, "error: A must have finite entries"),
    # Outputs the OS will not open for writing, refused before anything is
    # computed or written: an unwritable output wins over a capacity guard.
    "verify nogo-mu3 --out .": (2, "error: [Errno 21] Is a directory: '.'"),
    "verify nogo-mu3 --out missing_dir/nogo.json":
        (2, "error: [Errno 2] No such file or directory: 'missing_dir/nogo.json'"),
    "verify nogo-mu3 --out missing_dir/report.json":
        (2, "error: [Errno 2] No such file or directory: 'missing_dir/report.json'"),
    "verify parseval --trace-out t.csv --out missing/r.json":
        (2, "error: [Errno 2] No such file or directory: 'missing/r.json'"),
    "verify unitarity --matrix-out m.json --out missing/r.json":
        (2, "error: [Errno 2] No such file or directory: 'missing/r.json'"),
    f"verify parseval --trace-out t.csv --out {_LONG}":
        (2, f"error: [Errno 36] File name too long: '{_LONG}'"),
    f"verify unitarity --matrix-out m.json --out {_LONG}":
        (2, f"error: [Errno 36] File name too long: '{_LONG}'"),
    "weights --n-max 1048577 --out missing/w.csv":
        (2, "error: [Errno 2] No such file or directory: 'missing/w.csv'"),
    # A refused call leaves an output that existed as it was, for each runner
    # that writes one: it refuses before its first write. It removes an
    # output it created, here weights' default weights.csv.
    "weights --n-max 1048577 --out ok.json":
        (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
    "verify unitarity --samples 0 --matrix-out ok.json": (2, "error: samples must be >= 1"),
    "verify parseval --n-max 0 --trace-out ok.json": (2, "error: n_max must be >= 1"),
    "weights --n-max 1048577": (3, "capacity guard: n_max 1048577 exceeds cap 1048576"),
}
