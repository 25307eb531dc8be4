"""Command-line front end: construction plus verification suites.

Each subcommand is declared once, in build_parser, with its runner, its
report's command string, its default tolerance, the rho of its default
bank and the flags its report's params name. main resolves each of these
inputs once, then calls the runner, which only computes a report.Check
(most runners are one library call), and turns the check into its report
(report.report_json) and an exit code: 0 pass, 1 check failed, 2 bad input
or infeasible parameters (a DomainError, or an OSError on an output path),
3 capacity guard (a CapacityError); the type of a refusal alone gives its
exit code.
Reports go to stdout as strict JSON with sorted keys; a reader that closes
stdout early leaves the exit code to the verdict. Complex flags are passed
as separate --*-re/--*-im real pairs. Every subcommand that takes a filter
bank takes the same bank flags: a rho bank, the solver bank of (p, q), or
the solver bank of the six alpha parameters. A subcommand with a tolerance
takes --tol, and without it reads the environment variable FRAME_LAB_TOL
before its declared default.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from .errors import CapacityError, DomainError, in_range, positive_tol
from .filters import (
    DEFAULT_UNITARITY_TOL,
    FilterBank,
    hadamard_rho,
    matrix_from_json,
    matrix_to_json,
    pq_bank,
    rho_bank,
    solve_alpha,
    verify_nogo_mu3,
    verify_unitarity,
)
from .cuntz import verify_cuntz, verify_gram
from .frames import (
    is_parseval,
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
    write_trace_csv,
    write_weight_table,
)
from .report import Check, report_json
from .transform import TOL, mu4_hat_array

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3

MAX_GRID_POINTS = 1000  # verify ruelle --grid steps; the largest run takes seconds

def _resolve_tol(args) -> float:
    """The subcommand's tolerance: --tol, else FRAME_LAB_TOL, else the
    default its parser declares; it must be positive and finite."""
    tol = args.tol
    if tol is None:
        env = os.environ.get("FRAME_LAB_TOL")
        if env is None:
            return args.default_tol
        try:
            tol = float(env)
        except ValueError:
            raise DomainError(f"FRAME_LAB_TOL must be a number, got {env!r}") from None
    return positive_tol(tol)


# Each kind of bank: its builder and its complex parameters in the builder's
# order, each given as a pair of flags --NAME-re/--NAME-im; a kind is named
# when any of its flags is given.
_BANK_PARAMS = {
    "rho": (rho_bank, ("rho",)),
    "p/q": (pq_bank, ("p", "q")),
    "alpha": (solve_alpha, tuple(f"alpha_a{jk}" for jk in ("10", "30", "11", "12", "21", "22"))),
}
_RHO_HELP = {
    "--rho-re": "Re(rho), |rho| = 1; given only --rho-im, the value >= 0 that puts rho "
                "on the circle",
    "--rho-im": "Im(rho), default 0",
}


def _bank_from_args(args) -> tuple[FilterBank, dict]:
    """The bank the flags name and its params <name>_re/<name>_im: a rho
    bank, the solver bank of --p-re/--q-re (filters.pq_bank) or of the six
    --alpha-* parameters (filters.solve_alpha); when none is named, the rho
    bank at the default rho the subcommand's parser declares. Naming two
    kinds of bank is bad input."""
    given = {}  # kind -> {name: (re, im)} for each kind with a flag given
    for kind, (_, names) in _BANK_PARAMS.items():
        pairs = {n: (getattr(args, f"{n}_re"), getattr(args, f"{n}_im")) for n in names}
        if any(v is not None for pair in pairs.values() for v in pair):
            given[kind] = pairs
    if len(given) > 1:
        raise DomainError(f"the flags name two banks, {' and '.join(given)}; give one")
    kind, pairs = next(iter(given.items()), ("rho", {"rho": (args.default_rho, 0.0)}))
    missing = [f"--{n.replace('_', '-')}-re" for n, (re, _) in pairs.items() if re is None]
    if missing and kind != "rho":
        raise DomainError(f"the {kind} bank needs every -re flag; missing {', '.join(missing)}")
    z = {n: complex(*(0.0 if v is None else v for v in pair)) for n, pair in pairs.items()}
    if missing:
        # --rho-im without --rho-re: the unit-circle point above it with
        # Re(rho) >= 0; |--rho-im| > 1 (or nan) has no such point, and the
        # rho it gives is refused by rho_bank
        im = z["rho"].imag
        z["rho"] = complex(math.sqrt(1.0 - im**2) if abs(im) <= 1.0 else 0.0, im)
    params = {}
    for n, v in z.items():
        params.update({f"{n}_re": v.real, f"{n}_im": v.imag})
    return _BANK_PARAMS[kind][0](*z.values()), params


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors take main's one-line exit-2 path.

    Subparsers are built with the parent's class, so they raise too; -h
    still prints the help and exits 0.
    """

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every main call.

    Each subcommand is declared once, by one command() call that records
    what main needs to run it: its runner, the report's command string, its
    default tolerance (None: no --tol), the rho of its default bank (None:
    no bank flags) and the flags its report's params name. A runner reads
    the tolerance main resolved as args.tol and the bank as args.bank, and
    returns the Check. The flags several subcommands share (the bank's,
    --tol and verify's --out) are declared once, on three parent parsers,
    and command() passes each subcommand the ones it takes.
    """
    bank = _Parser(add_help=False)
    for _, names in _BANK_PARAMS.values():
        for flag in (f"--{n.replace('_', '-')}-{part}" for n in names for part in ("re", "im")):
            bank.add_argument(flag, type=float, help=_RHO_HELP.get(flag))
    tolerance = _Parser(add_help=False)
    tolerance.add_argument("--tol", type=float)
    report = _Parser(add_help=False)
    report.add_argument("--out", dest="report_out", help="also write the JSON report to this file")

    parser = _Parser(
        prog="frame-lab",
        description="Construct and certify weighted Fourier frames for the Cantor-4 measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name, help_text, run, tol=None, rho=1.0, params=()):
        parents = []
        if rho is not None:
            parents.append(bank)
        if tol is not None:
            parents.append(tolerance)
        if name.startswith("verify "):
            parents.append(report)
        p = subs.add_parser(name.split()[-1], help=help_text, parents=parents)
        p.set_defaults(run=run, report_name=name, default_tol=tol, default_rho=rho,
                       params=params, report_out=None)
        return p

    p_mu = command(sub, "mu4hat", "evaluate the measure transform at t", _run_mu4hat, TOL,
                   rho=None, params=("t",))
    p_mu.add_argument("--t", type=float, required=True)

    p_w = command(sub, "weights", "write the weight table CSV for n = 0..n-max", _run_weights,
                  params=("n_max", "out"))
    p_w.add_argument("--n-max", type=int, required=True)
    p_w.add_argument("--out", default="weights.csv")

    p_v = sub.add_parser("verify", help="run a verification suite")
    vsub = p_v.add_subparsers(dest="check", required=True)

    v_unit = command(vsub, "verify unitarity", "max |H*H - I| over sampled banks",
                     _run_verify_unitarity, DEFAULT_UNITARITY_TOL, rho=None,
                     params=lambda a: ("matrix_json",) if a.matrix_json else ("samples",))
    v_unit.add_argument("--samples", type=int, default=64, help="rho values on the unit circle")
    matrix = v_unit.add_mutually_exclusive_group()  # read one matrix, or export rho = 1
    matrix.add_argument("--matrix-json", default=None, help="check one matrix from a JSON file")
    matrix.add_argument("--matrix-out", default=None, help="export the constructed matrix as JSON")

    v_cuntz = command(vsub, "verify cuntz", "isometry relations on random vectors",
                      lambda a: verify_cuntz(a.bank, a.level, a.trials, a.seed, a.tol), 1e-10,
                      params=("level", "trials", "seed"))
    v_cuntz.add_argument("--level", type=int, default=2)
    v_cuntz.add_argument("--trials", type=int, default=20)
    v_cuntz.add_argument("--seed", type=int, default=7)

    v_gram = command(vsub, "verify gram", "Gram matrix of the generated family",
                     lambda a: verify_gram(a.bank, a.max_word_len, a.tol), 1e-8,
                     params=("max_word_len",))
    v_gram.add_argument("--max-word-len", type=int, default=3)

    v_proj = command(vsub, "verify projection", "projection weights vs closed form",
                     lambda a: verify_projection(a.bank, a.max_word_len, a.tol), 1e-10,
                     params=("max_word_len",))
    v_proj.add_argument("--max-word-len", type=int, default=3)

    v_par = command(vsub, "verify parseval", "partial-sum trace for one exponential",
                    _run_verify_parseval, 1e-8, params=("gamma", "n_max"))
    v_par.add_argument("--gamma", type=int, default=0)
    v_par.add_argument("--n-max", type=int, default=256)
    v_par.add_argument("--trace-out", default=None, help="write the trace CSV here")

    v_ru = command(vsub, "verify ruelle", "refinement identity of the energy function",
                   lambda a: verify_ruelle(a.bank, _parse_grid(a.grid), a.level, a.tol), 1e-9,
                   params=("grid", "level"))
    v_ru.add_argument("--grid", default="-1:0:21", help="a:b:steps")
    v_ru.add_argument("--level", type=int, default=2)

    command(vsub, "verify nogo-mu3", "scale-3 obstruction certificate",
            lambda a: verify_nogo_mu3(), rho=None)

    v_inc = command(vsub, "verify incomplete", "deficiency of a p = 0 family (default rho = -1)",
                    lambda a: verify_incomplete(a.bank, a.gamma, a.n_max, a.tol), 1e-8,
                    rho=-1.0, params=("gamma", "n_max"))
    v_inc.add_argument("--gamma", type=int, nargs="+", default=[1])
    v_inc.add_argument("--n-max", type=int, default=4096)

    return parser


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
        if not math.isfinite(b - a):  # also a or b not finite
            raise ValueError
    except ValueError as exc:
        raise DomainError(f"--grid must be a:b:steps with b - a finite, got {text!r}") from exc
    # capped before linspace allocates; verify_ruelle refuses an empty grid
    return np.linspace(a, b, in_range("grid points", steps, 0, MAX_GRID_POINTS))


def _run_mu4hat(args) -> Check:
    value = complex(mu4_hat_array(args.t, args.tol)[0])
    metrics = {"re": value.real, "im": value.imag, "abs": abs(value)}
    return Check(True, metrics, {"tolerance": args.tol})


def _run_weights(args) -> Check:
    nonzero = write_weight_table(args.out, args.bank, args.n_max)
    metrics = {
        "rows": args.n_max + 1,
        "nonzero_weights": nonzero,
        "parseval_certified": is_parseval(args.bank),
    }
    return Check(True, metrics, {})


def _run_verify_unitarity(args) -> Check:
    if args.matrix_json:
        with open(args.matrix_json, "rb") as fh:
            return verify_unitarity(args.samples, args.tol, matrix_from_json(fh.read()))
    check = verify_unitarity(args.samples, args.tol)
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_json(hadamard_rho(1.0)) + "\n")
    return check


def _run_verify_parseval(args) -> Check:
    trace = parseval_trace([(args.gamma, 1.0)], args.bank, args.n_max)
    if args.trace_out:
        write_trace_csv(args.trace_out, trace)
    return verify_parseval(trace, args.tol)


# The args that name a file the run writes: weights' table, verify parseval's
# trace, verify unitarity's matrix export and a verify report's copy.
_OUTPUTS = ("out", "trace_out", "matrix_out", "report_out")


def _claim(path: str) -> bool:
    """Open path for writing, as the run will, but without truncating it, and
    return whether this call created the file. The OS refuses, with the
    OSError open gives, every path the run could not write: a missing or
    unwritable directory, a directory, a name that is too long."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        return True
    except FileExistsError:
        os.close(os.open(path, os.O_WRONLY))
        return False


def main(argv=None) -> int:
    """Run one CLI call and return its exit code.

    Every output path is claimed (_claim) once the tolerance and the bank
    are resolved and before the runner computes, so the OS refuses a path
    the run cannot write before anything is written. A call refused after
    that, with exit 2 or 3, removes the files its claims created, and a file
    that existed before was never truncated: every runner refuses before its
    first write, and nothing that main does after a runner can refuse.
    """
    started = time.monotonic()
    created = []  # the outputs this call created, removed if it is refused
    try:
        args = build_parser().parse_args(argv)
        params = {}
        if args.default_tol is not None:
            args.tol = _resolve_tol(args)
        if args.default_rho is not None:
            args.bank, params = _bank_from_args(args)
        for path in (getattr(args, name, None) for name in _OUTPUTS):
            if path and _claim(path):
                created.append(path)
        check = args.run(args)
        names = args.params(args) if callable(args.params) else args.params
        params.update({name: getattr(args, name) for name in names})
        text = report_json(args.report_name, params, check,
                           int((time.monotonic() - started) * 1000))
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        created = []  # the call ran: what it wrote stays
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        for path in created:
            os.remove(path)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout: silence the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PASS if check.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
