"""Command-line front end: construction plus verification suites.

Each verify subcommand is one library function that returns a report.Check;
this module parses the flags, resolves the tolerance, names the params,
and turns the check into a report and an exit code: 0 pass, 1 check
failed, 2 bad input or infeasible parameters, 3 capacity guard. Reports go
to stdout as JSON with sorted keys; complex flags are passed as separate
--*-re/--*-im real pairs. The environment variable FRAME_LAB_TOL overrides
the default tolerance of any subcommand whose --tol flag is not given.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    InfeasibleParameters,
    UnsupportedShape,
)
from .filters import (
    DEFAULT_UNITARITY_TOL,
    filter_bank_from_A,
    hadamard_rho,
    matrix_from_json,
    matrix_to_json,
    solve_alpha,
    verify_nogo_mu3,
    verify_unitarity,
)
from .cuntz import CuntzRep, verify_cuntz, verify_gram
from .frames import (
    WeightSpec,
    parseval_trace,
    verify_incomplete,
    verify_parseval,
    verify_projection,
    verify_ruelle,
    write_trace_csv,
    write_weight_table,
)
from .report import Check, RunReport
from .transform import TOL, mu4_hat

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3

MAX_GRID_POINTS = 1000  # verify ruelle --grid steps; the largest run takes seconds

_DEFAULT_TOLS = {
    "mu4hat": TOL,
    "unitarity": DEFAULT_UNITARITY_TOL,
    "cuntz": 1e-10,
    "gram": 1e-8,
    "projection": 1e-10,
    "parseval": 1e-8,
    "ruelle": 1e-9,
    "incomplete": 1e-8,
}


def _resolve_tol(args, command: str) -> float:
    tol = getattr(args, "tol", None)
    if tol is None:
        env = os.environ.get("FRAME_LAB_TOL")
        if env is None:
            return _DEFAULT_TOLS[command]
        try:
            tol = float(env)
        except ValueError:
            raise DomainError(f"FRAME_LAB_TOL must be a number, got {env!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


def _add_rho_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rho-re", type=float, default=None,
        help="Re(rho), |rho| = 1; defaults to the value >= 0 that puts rho on the unit circle",
    )
    p.add_argument("--rho-im", type=float, default=0.0, help="Im(rho)")


def _rho_from_args(args) -> complex:
    """rho from the flags; with no --rho-re, rho = 1 or the unit-circle point above --rho-im."""
    re = args.rho_re
    if re is None:
        # |--rho-im| > 1 (or nan) has no such point; the rho it gives is refused later
        re = math.sqrt(1.0 - args.rho_im**2) if abs(args.rho_im) <= 1.0 else 0.0
    return complex(re, args.rho_im)


def _add_alpha_flags(p: argparse.ArgumentParser) -> None:
    for name in ("a10", "a30", "a11", "a12", "a21", "a22"):
        p.add_argument(f"--alpha-{name}-re", type=float, default=None)
        p.add_argument(f"--alpha-{name}-im", type=float, default=0.0)


def _alpha_values(args):
    names = ("a10", "a30", "a11", "a12", "a21", "a22")
    res = [getattr(args, f"alpha_{n}_re") for n in names]
    if all(v is None for v in res):
        return None
    if any(v is None for v in res):
        raise DomainError("all six --alpha-*-re flags are required together")
    return [complex(getattr(args, f"alpha_{n}_re"), getattr(args, f"alpha_{n}_im")) for n in names]


def _rep_from_args(args) -> tuple[CuntzRep, dict, complex | None]:
    """The representation of the bank the flags name, its params, and its
    rho: None for a solver bank, for which the refinement identity has no
    reduced form."""
    alphas = _alpha_values(args)
    if alphas is not None:
        bank = solve_alpha(*alphas)
        params = {f"alpha{i}": [z.real, z.imag] for i, z in zip(("10", "30", "11", "12", "21", "22"), alphas)}
        return CuntzRep(bank), params, None
    rho = _rho_from_args(args)
    bank = filter_bank_from_A(hadamard_rho(rho), DEFAULT_UNITARITY_TOL)
    return CuntzRep(bank), {"rho_re": rho.real, "rho_im": rho.imag}, rho


def _spec_from_args(args) -> tuple[WeightSpec, dict]:
    if args.p_re is not None or args.q_re is not None:
        if args.p_re is None or args.q_re is None:
            raise DomainError("--p-re and --q-re must be given together")
        p = complex(args.p_re, args.p_im)
        q = complex(args.q_re, args.q_im)
        return WeightSpec.from_pq(p, q), {
            "p_re": p.real, "p_im": p.imag, "q_re": q.real, "q_im": q.imag,
        }
    rho = _rho_from_args(args)
    return WeightSpec.from_rho(rho), {"rho_re": rho.real, "rho_im": rho.imag}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors take main's one-line exit-2 path.

    Subparsers are built with the parent's class, so they raise too; -h
    still prints the help and exits 0.
    """

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every main call."""
    parser = _Parser(
        prog="frame-lab",
        description="Construct and certify weighted Fourier frames for the Cantor-4 measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu4hat", help="evaluate the measure transform at t")
    p_mu.add_argument("--t", type=float, required=True)
    p_mu.add_argument("--tol", type=float, default=None)

    p_w = sub.add_parser("weights", help="write the weight table CSV for n = 0..n-max")
    _add_rho_flags(p_w)
    p_w.add_argument("--p-re", type=float, default=None)
    p_w.add_argument("--p-im", type=float, default=0.0)
    p_w.add_argument("--q-re", type=float, default=None)
    p_w.add_argument("--q-im", type=float, default=0.0)
    p_w.add_argument("--n-max", type=int, required=True)
    p_w.add_argument("--out", default="weights.csv")

    p_v = sub.add_parser("verify", help="run a verification suite")
    vsub = p_v.add_subparsers(dest="check", required=True)

    def _verify_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        vp = vsub.add_parser(name, help=help_text)
        vp.add_argument("--out", default=None, help="also write the JSON report to this file")
        return vp

    v_unit = _verify_parser("unitarity", "max |H*H - I| over sampled banks")
    v_unit.add_argument("--samples", type=int, default=64, help="rho values on the unit circle")
    v_unit.add_argument("--matrix-json", default=None, help="check one matrix from a JSON file")
    v_unit.add_argument("--matrix-out", default=None, help="export the constructed matrix as JSON")
    v_unit.add_argument("--tol", type=float, default=None)

    v_cuntz = _verify_parser("cuntz", "isometry relations on random vectors")
    _add_rho_flags(v_cuntz)
    _add_alpha_flags(v_cuntz)
    v_cuntz.add_argument("--level", type=int, default=2)
    v_cuntz.add_argument("--trials", type=int, default=20)
    v_cuntz.add_argument("--seed", type=int, default=7)
    v_cuntz.add_argument("--tol", type=float, default=None)

    v_gram = _verify_parser("gram", "Gram matrix of the generated family")
    _add_rho_flags(v_gram)
    _add_alpha_flags(v_gram)
    v_gram.add_argument("--max-word-len", type=int, default=3)
    v_gram.add_argument("--tol", type=float, default=None)

    v_proj = _verify_parser("projection", "projection weights vs closed form")
    _add_rho_flags(v_proj)
    _add_alpha_flags(v_proj)
    v_proj.add_argument("--max-word-len", type=int, default=3)
    v_proj.add_argument("--tol", type=float, default=None)

    v_par = _verify_parser("parseval", "partial-sum trace for one exponential")
    _add_rho_flags(v_par)
    v_par.add_argument("--p-re", type=float, default=None)
    v_par.add_argument("--p-im", type=float, default=0.0)
    v_par.add_argument("--q-re", type=float, default=None)
    v_par.add_argument("--q-im", type=float, default=0.0)
    v_par.add_argument("--gamma", type=int, default=0)
    v_par.add_argument("--n-max", type=int, default=256)
    v_par.add_argument("--trace-out", default=None, help="write the trace CSV here")
    v_par.add_argument("--tol", type=float, default=None)

    v_ru = _verify_parser("ruelle", "refinement identity of the energy function")
    _add_rho_flags(v_ru)
    _add_alpha_flags(v_ru)
    v_ru.add_argument("--grid", default="-1:0:21", help="a:b:steps")
    v_ru.add_argument("--level", type=int, default=2)
    v_ru.add_argument("--tol", type=float, default=None)

    _verify_parser("nogo-mu3", "scale-3 obstruction certificate")

    v_inc = _verify_parser("incomplete", "deficiency of the p = 0 family")
    v_inc.add_argument("--gamma", type=int, nargs="+", default=[1])
    v_inc.add_argument("--n-max", type=int, default=4096)
    v_inc.add_argument("--tol", type=float, default=None)

    return parser


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError
        if steps > MAX_GRID_POINTS:
            raise CapacityError(f"grid of {steps} points exceeds cap {MAX_GRID_POINTS}")
        return np.linspace(a, b, steps)
    except ValueError as exc:
        raise DomainError(f"--grid must be a:b:steps with finite a, b, got {text!r}") from exc


def _run_mu4hat(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "mu4hat")
    value = mu4_hat(args.t, tol)
    metrics = {"re": value.real, "im": value.imag, "abs": abs(value)}
    return {"t": args.t}, Check(True, metrics, {"tolerance": tol})


def _run_weights(args) -> tuple[dict, Check]:
    spec, params = _spec_from_args(args)
    nonzero = write_weight_table(args.out, spec, args.n_max)
    metrics = {
        "rows": args.n_max + 1,
        "nonzero_weights": nonzero,
        "parseval_certified": spec.parseval_certified,
    }
    params.update({"n_max": args.n_max, "out": args.out})
    return params, Check(True, metrics, {})


def _run_verify_unitarity(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "unitarity")
    if args.matrix_json:
        with open(args.matrix_json, "rb") as fh:
            A = matrix_from_json(fh.read())
        return {"matrix_json": args.matrix_json}, verify_unitarity(args.samples, tol, A)
    check = verify_unitarity(args.samples, tol)
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_json(hadamard_rho(1.0)) + "\n")
    return {"samples": args.samples}, check


def _run_verify_cuntz(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "cuntz")
    rep, params, _ = _rep_from_args(args)
    params.update({"level": args.level, "trials": args.trials, "seed": args.seed})
    return params, verify_cuntz(rep, args.level, args.trials, args.seed, tol)


def _run_verify_gram(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "gram")
    rep, params, _ = _rep_from_args(args)
    params.update({"max_word_len": args.max_word_len})
    return params, verify_gram(rep, args.max_word_len, tol)


def _run_verify_projection(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "projection")
    rep, params, _ = _rep_from_args(args)
    params.update({"max_word_len": args.max_word_len})
    return params, verify_projection(rep, args.max_word_len, tol)


def _run_verify_parseval(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "parseval")
    spec, params = _spec_from_args(args)
    trace = parseval_trace([(args.gamma, 1.0)], spec, args.n_max)
    if args.trace_out:
        write_trace_csv(args.trace_out, trace)
    params.update({"gamma": args.gamma, "n_max": args.n_max})
    return params, verify_parseval(trace, tol)


def _run_verify_ruelle(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "ruelle")
    rep, params, rho = _rep_from_args(args)
    grid = _parse_grid(args.grid)
    params.update({"grid": args.grid, "level": args.level})
    return params, verify_ruelle(rep, grid, args.level, tol, rho=rho)


def _run_verify_nogo(args) -> tuple[dict, Check]:
    return {}, verify_nogo_mu3()


def _run_verify_incomplete(args) -> tuple[dict, Check]:
    tol = _resolve_tol(args, "incomplete")
    params = {"gamma": list(args.gamma), "n_max": args.n_max}
    return params, verify_incomplete(args.gamma, args.n_max, tol)


_RUNNERS = {
    "mu4hat": _run_mu4hat,
    "weights": _run_weights,
    "unitarity": _run_verify_unitarity,
    "cuntz": _run_verify_cuntz,
    "gram": _run_verify_gram,
    "projection": _run_verify_projection,
    "parseval": _run_verify_parseval,
    "ruelle": _run_verify_ruelle,
    "nogo-mu3": _run_verify_nogo,
    "incomplete": _run_verify_incomplete,
}


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        verify = args.command == "verify"
        command = f"verify {args.check}" if verify else args.command
        params, check = _RUNNERS[args.check if verify else args.command](args)
        report = RunReport(
            command=command,
            params=params,
            metrics=check.metrics,
            passed=check.passed,
            tolerances=check.tolerances,
            duration_ms=int((time.monotonic() - started) * 1000),
            version=__version__,
        )
        text = report.to_json()
        if verify and args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InfeasibleParameters, DomainError, ContractError, UnsupportedShape, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(text)
    return EXIT_PASS if check.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
