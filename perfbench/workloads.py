"""The benchmark's workloads: which commands each one runs, built from a seed.

Seed 0 is the default seed. It gives the README flags and the argv lists
the workloads were designed around; their outputs were recorded as the
references in `references.json`. Any other seed draws rho on the unit
circle (away from +-1), the parseval and incompleteness frequencies gamma
and the `verify cuntz --seed` values from the fixed sets below. Members of
one set do the same work: word lengths, `n_max`, trials and grid sizes never
change, and the gamma sets were chosen so that each member needs the same
number of transform factors (counts in the comments, measured at
`n_max = 4^8`). Every member's outputs are recorded too, so every seed
gates on values, not only on verdicts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

S2 = "0.7071067811865476"  # 1/sqrt(2)

# The solver bank with p = q = 1/sqrt(2).
PQ = (
    "--alpha-a10-re", S2, "--alpha-a30-re", S2, "--alpha-a11-re", S2,
    "--alpha-a12-re", "0", "--alpha-a21-re", "0", "--alpha-a22-re", "1",
)

# rho = e^{i theta} for theta in {pi/2, pi/3, 2pi/3, -pi/2, -pi/3, -2pi/3}.
# rho = +-1 is left out: it zeroes filter coefficients and so changes the work.
# Every command passes rho explicitly because the CLI default rho = 0 is
# rejected with exit 2.
RHOS = (
    ("--rho-im", "1"),
    ("--rho-re", "0.5", "--rho-im", "0.8660254037844386"),
    ("--rho-re", "-0.5", "--rho-im", "0.8660254037844386"),
    ("--rho-im", "-1"),
    ("--rho-re", "0.5", "--rho-im", "-0.8660254037844386"),
    ("--rho-re", "-0.5", "--rho-im", "-0.8660254037844386"),
)

# gamma = 0 on the balanced family is the exact orthonormal-basis case; no
# other gamma does the same work, so it stays fixed.
PARSEVAL_LOPSIDED_GAMMAS = (5, 7, 13, 15)  # 97,044 .. 97,056 factors
PARSEVAL_RHO_GAMMAS = (17, 19, 33, 35)  # 82,271 .. 82,635 factors
# One set per position of `verify incomplete --gamma a b c`.
INCOMPLETE_GAMMAS = (
    (1, 5, 13, 17),  # 4,121 factors each
    (2, 6, 10, 14),  # 4,120 .. 4,121
    (3, 0, 12, 15),  # 526
)
# Seeds whose random test vectors give the same normalize traffic:
# 10,436 .. 10,468 atoms at level 2 and 8,940 at level 4.
CUNTZ_L2_SEEDS = (7, 1, 4, 5, 12, 17, 19, 33)
CUNTZ_L4_SEEDS = (11, 2, 5, 6, 7, 9, 10, 12)

CERTIFY_SCRIPT = "scripts/certify_all.py"

WHY = {
    "gram": "Gram orthonormality at word length 4: the dense inner-product kernel, reading the transform memo warm",
    "spectral": "Parseval traces, incompleteness and the energy function to 4^8: the transform read cold, weights and digit counts",
    "operators": "Projection formula and Cuntz relations: exact atom calculus and operator action, no dense kernel or cold transform",
    "certify": "scripts/certify_all.py with its defaults: the mixed ladder over five weight families and the CSV writers",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One process of a workload: `python -m frame_lab *argv`, or the certify script."""

    argv: tuple[str, ...]

    @property
    def is_certify(self) -> bool:
        return self.argv[0] == CERTIFY_SCRIPT

    @property
    def key(self) -> str:
        """The command line as one string; references are keyed by it."""
        return " ".join(self.argv)


def _cli(*parts) -> Command:
    return Command(tuple(str(p) for p in itertools.chain.from_iterable(
        p if isinstance(p, tuple) else (p,) for p in parts
    )))


class _Picker:
    """Draws set members; seed 0 always takes each set's first member."""

    def __init__(self, seed: int):
        self._rng = None if seed == 0 else random.Random(seed)

    def one(self, choices):
        return choices[0] if self._rng is None else self._rng.choice(choices)

    def two(self, choices):
        return tuple(choices[:2]) if self._rng is None else tuple(self._rng.sample(choices, 2))


def build(name: str, seed: int = 0) -> list[Command]:
    """The commands of workload `name` for `seed`, in the order they run."""
    pick = _Picker(seed)
    if name == "gram":
        rho_a, rho_b = pick.two(RHOS)
        return [
            _cli("verify", "gram", rho_a, "--max-word-len", 4),
            _cli("verify", "gram", rho_b, "--max-word-len", 4),
            _cli("verify", "gram", "--max-word-len", 4, PQ),
        ]
    if name == "spectral":
        return [
            _cli("verify", "parseval", "--p-re", S2, "--q-re", S2, "--gamma", 0, "--n-max", 65536),
            _cli("verify", "parseval", "--p-re", "0.6", "--q-re", "0.8",
                 "--gamma", pick.one(PARSEVAL_LOPSIDED_GAMMAS), "--n-max", 65536),
            _cli("verify", "parseval", pick.one(RHOS),
                 "--gamma", pick.one(PARSEVAL_RHO_GAMMAS), "--n-max", 65536),
            _cli("verify", "incomplete", "--gamma",
                 tuple(str(pick.one(s)) for s in INCOMPLETE_GAMMAS), "--n-max", 65536),
            _cli("verify", "ruelle", pick.one(RHOS), "--grid=-1:0:21", "--level", 3),
        ]
    if name == "operators":
        return [
            _cli("verify", "projection", pick.one(RHOS), "--max-word-len", 4),
            _cli("verify", "projection", "--max-word-len", 3, PQ),
            _cli("verify", "cuntz", "--rho-re", 1, "--level", 2, "--trials", 20,
                 "--seed", pick.one(CUNTZ_L2_SEEDS)),
            _cli("verify", "cuntz", "--level", 4, "--trials", 20,
                 "--seed", pick.one(CUNTZ_L4_SEEDS), PQ),
        ]
    if name == "certify":
        return [Command((CERTIFY_SCRIPT,))]
    raise ValueError(f"unknown workload {name!r}")


def all_value_gated() -> list[Command]:
    """Every gram, parseval and incomplete command any seed can produce."""
    out = [_cli("verify", "gram", rho, "--max-word-len", 4) for rho in RHOS]
    out.append(_cli("verify", "gram", "--max-word-len", 4, PQ))
    out.append(build("spectral", 0)[0])
    out += [
        _cli("verify", "parseval", "--p-re", "0.6", "--q-re", "0.8", "--gamma", g, "--n-max", 65536)
        for g in PARSEVAL_LOPSIDED_GAMMAS
    ]
    out += [
        _cli("verify", "parseval", rho, "--gamma", g, "--n-max", 65536)
        for rho in RHOS for g in PARSEVAL_RHO_GAMMAS
    ]
    out += [
        _cli("verify", "incomplete", "--gamma", tuple(map(str, gammas)), "--n-max", 65536)
        for gammas in itertools.product(*INCOMPLETE_GAMMAS)
    ]
    return out
