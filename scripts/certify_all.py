#!/usr/bin/env python3
"""End-to-end certification run over a menu of weight families.

Runs the CLI's verification ladder (Cuntz relations, Gram orthonormality,
projection formula, refinement identity, Parseval trace) and weight table on
every family of the menu, plus the scale-3 obstruction, each as one
in-process `frame_lab.cli.main` call at the CLI's default tolerances. Each
call prints its JSON report; trace and weight CSVs go to --out-dir. The last
line is the verdict; exit 0 only if every call exits 0.
"""

import argparse
import os
from pathlib import Path

from frame_lab import cli

S2 = "0.7071067811865476"  # 1/sqrt(2)

# name, bank flags (every subcommand of the ladder takes the same ones),
# parseval gamma (the p = 0 family has no exact trace at gamma = 0, so it is
# traced at gamma = 1)
MENU = [
    ("rho_one", ["--rho-re", "1"], "0"),
    ("rho_i", ["--rho-im", "1"], "0"),
    ("rho_minus_one", ["--rho-re", "-1"], "1"),
    ("pq_balanced", ["--p-re", S2, "--q-re", S2], "0"),
    ("pq_lopsided", ["--p-re", "0.6", "--q-re", "0.8"], "0"),
]


def ladder(out_dir: Path, word_len: int, n_max: int) -> list[list[str]]:
    """CLI argv lists of every check the certification runs, in order."""
    calls = []
    for name, bank, gamma in MENU:
        calls += [
            ["verify", "cuntz", *bank, "--level", "2", "--trials", "10", "--seed", "99"],
            ["verify", "gram", *bank, "--max-word-len", str(word_len)],
            ["verify", "projection", *bank, "--max-word-len", str(word_len)],
            ["verify", "ruelle", *bank, "--grid=-1:0:11", "--level", "2"],
            ["verify", "parseval", *bank, "--gamma", gamma, "--n-max", str(n_max),
             "--trace-out", str(out_dir / f"trace_{name}.csv")],
            ["weights", *bank, "--n-max", "64", "--out", str(out_dir / f"weights_{name}.csv")],
        ]
    return calls + [["verify", "nogo-mu3"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="certify the standard weight-family menu")
    ap.add_argument("--out-dir", default="out", help="directory for CSV artifacts")
    ap.add_argument("--word-len", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=4**5)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The ladder certifies at the CLI's defaults; the environment may not loosen them.
    os.environ.pop("FRAME_LAB_TOL", None)

    codes = [cli.main(call) for call in ladder(out_dir, args.word_len, args.n_max)]
    all_ok = not any(codes)
    print(f"[certify] {'ALL OK' if all_ok else 'FAILURES PRESENT'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
