"""The CLI's probe inputs, listed once and read by tests/test_report_cli.py
and scripts/dump_reports.py: the matrix documents for `verify unitarity
--matrix-json` that are malformed or not admissible, the solver parameters
whose modulus overflows, and one argv per input guard that no other call of
the dump reaches."""

import json

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

# Solver parameters whose parts are finite and whose modulus overflows: each
# squares to inf, and the first guard that reads it refuses the bank thus.
OVERFLOWING_MODULUS = {
    ("verify", "gram", "--p-re", "1.7e308", "--p-im", "1.7e308", "--q-re", "0"):
        "duality violated (|a10|^2 + |a30|^2 = 1 off by inf)",
    ("verify", "gram", "--alpha-a10-re", "1", "--alpha-a30-re", "0", "--alpha-a11-re", "1.7e308",
     "--alpha-a11-im", "1.7e308", "--alpha-a12-re", "0", "--alpha-a21-re", "1",
     "--alpha-a22-re", "0"):
        "row1_norm violated (|a10|^2+|a11|^2+|a12|^2 = 1 off by inf)",
}

# One call per input guard that no other call of the dump reaches: the
# capacity guards (exit 3), then the bad-input guards (exit 2), then a
# tolerance that needs more factors than the cap at any t.
GUARD_ARGVS = [
    ["verify", "ruelle", "--level", "5"],
    # two bad inputs: each is checked in full before the next, so the level cap wins
    ["verify", "cuntz", "--level", "5", "--seed", "-1"],
    ["verify", "ruelle", "--level", "0"],
    ["verify", "ruelle", "--grid=-1:0:0"],
    ["verify", "incomplete", "--gamma", "1", "1"],
    ["verify", "parseval", "--n-max", "0"],
    ["verify", "parseval", "--gamma", "9007199254740992"],
    ["weights", "--n-max", "-1", "--out", "out/weights_bad.csv"],
    ["verify", "cuntz", "--trials", "0"],
    ["verify", "cuntz", "--level", "-1"],
    ["verify", "cuntz", "--seed", "-1"],
    ["verify", "unitarity", "--samples", "0"],
    ["verify", "gram", "--max-word-len", "0"],
    ["verify", "projection", "--max-word-len", "0"],
    ["mu4hat", "--t", "nan"],
    ["mu4hat", "--t", "inf"],
    ["mu4hat", "--t", "1", "--tol", "0"],
    ["mu4hat", "--t", "1", "--tol", "-1"],
    ["verify", "gram", "--rho-re", "1", "--p-re", "0.6", "--q-re", "0.8"],
    ["verify", "gram", "--p-im", "0.1"],
    *map(list, OVERFLOWING_MODULUS),
    ["mu4hat", "--t", "1", "--tol", "4e-37"],
]
