#!/usr/bin/env python3
"""Recompute the frozen regression constants used by the test suite.

Everything here goes through the recursion-path transform oracle (descend
t -> t/4 with a closed form for tiny t), which shares no code with the
library's ascending truncated product. Paste-ready output.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import mu4_hat_recursive, oracle_h_partial, oracle_trace_checkpoints  # noqa: E402

from frame_lab import rho_bank  # noqa: E402

S2 = 2**-0.5


def main() -> int:
    print("# pq = (1/sqrt2, 1/sqrt2), f = e_0, checkpoints 4^1..4^8")
    for N, v in sorted(oracle_trace_checkpoints(0, S2, S2, 4**8).items()):
        print(f"S_{N} = {v!r}")

    print("# pq = (1/sqrt2, 1/sqrt2), f = e_2 (non-terminating), checkpoints to 4^6")
    for N, v in sorted(oracle_trace_checkpoints(2, S2, S2, 4**6).items()):
        print(f"S_{N} = {v!r}")

    print("# rho = -1 (p = 0), f = e_1, checkpoints to 4^8")
    for N, v in sorted(oracle_trace_checkpoints(1, 0.0, 1.0, 4**8).items()):
        print(f"S_{N} = {v!r}")

    print("# rho = -1, energy function h_4 at t = -1/2")
    bank = rho_bank(-1.0)
    print(f"h_4(-1/2) = {float(oracle_h_partial(-0.5, bank, 4))!r}")

    print("# transform spot values by the recursion path")
    for t in (2.0, 0.5, -7.25):
        print(f"mu4_hat({t}) = {mu4_hat_recursive(t)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
