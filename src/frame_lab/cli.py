"""Command-line front end: construction plus verification suites.

Exit codes: 0 pass, 1 check failed, 2 bad input or infeasible parameters,
3 capacity guard. Reports go to stdout as JSON with sorted keys; complex
flags are passed as separate --*-re/--*-im real pairs. The environment
variable FRAME_LAB_TOL overrides the default tolerance of any subcommand
whose --tol flag is not given.
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
    NOGO_MIN_NORM_GAP,
    NOGO_MIN_PHASE_FACTOR,
    filter_bank_from_A,
    hadamard_rho,
    matrix_from_json,
    matrix_to_json,
    mu3_nogo_certificate,
    solve_alpha,
)
from .cuntz import CuntzRep, generated_family, gram_X4, verify_cuntz
from .frames import (
    SPECIALIZATION_TOL,
    WeightSpec,
    incompleteness_report,
    parseval_trace,
    project_V,
    verify_ruelle,
    weight_table,
    write_trace_csv,
    write_weight_table,
)
from .report import RunReport
from .transform import mu4_hat

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3

# Caps on the sizes only the CLI loops over; each largest run takes seconds.
MAX_SAMPLES = 100_000  # verify unitarity --samples
MAX_GRID_POINTS = 1000  # verify ruelle --grid steps
MAX_GAMMAS = 100  # verify incomplete --gamma frequencies, one trace each

_DEFAULT_TOLS = {
    "mu4hat": 1e-12,
    "unitarity": 1e-12,
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


def _bank_from_args(args, tol: float):
    alphas = _alpha_values(args) if hasattr(args, "alpha_a10_re") else None
    if alphas is not None:
        bank = solve_alpha(*alphas, tol=tol)
        params = {f"alpha{i}": [z.real, z.imag] for i, z in zip(("10", "30", "11", "12", "21", "22"), alphas)}
        return bank, params
    rho = _rho_from_args(args)
    bank = filter_bank_from_A(hadamard_rho(rho), tol)
    return bank, {"rho_re": rho.real, "rho_im": rho.imag}


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


def _emit(report: RunReport, out_path: str | None = None) -> None:
    text = report.to_json()
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _run_mu4hat(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "mu4hat")
    value = mu4_hat(args.t, tol)
    metrics = {"re": value.real, "im": value.imag, "abs": abs(value)}
    return True, {"t": args.t}, metrics, {"tolerance": tol}


def _run_weights(args) -> tuple[bool, dict, dict, dict]:
    spec, params = _spec_from_args(args)
    nonzero = write_weight_table(args.out, spec, args.n_max)
    metrics = {
        "rows": args.n_max + 1,
        "nonzero_weights": nonzero,
        "parseval_certified": spec.parseval_certified,
    }
    params.update({"n_max": args.n_max, "out": args.out})
    return True, params, metrics, {}


def _run_verify_unitarity(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "unitarity")
    if args.matrix_json:
        with open(args.matrix_json, encoding="utf-8") as fh:
            A = matrix_from_json(fh.read())
        bank = filter_bank_from_A(A, tol)
        dev = bank.checks["unitarity_max_dev"]
        params = {"matrix_json": args.matrix_json}
        passed = bank.admissible
        metrics = {
            "max_dev": dev,
            "first_row_max_dev": bank.checks["first_row_max_dev"],
            "kernel_max_dev": bank.checks["kernel_max_dev"],
        }
    else:
        samples = int(args.samples)
        if samples < 1:
            raise ContractError("--samples must be >= 1")
        if samples > MAX_SAMPLES:
            raise CapacityError(f"--samples {samples} exceeds cap {MAX_SAMPLES}")
        max_dev = 0.0
        for m in range(samples):
            rho = np.exp(2j * np.pi * m / samples)
            bank = filter_bank_from_A(hadamard_rho(complex(rho)), tol)
            max_dev = max(max_dev, bank.checks["unitarity_max_dev"])
            if args.matrix_out and m == 0:
                with open(args.matrix_out, "w", encoding="utf-8") as fh:
                    fh.write(matrix_to_json(bank.A) + "\n")
        params = {"samples": samples}
        metrics = {"max_dev": max_dev}
        passed = max_dev <= tol
    return passed, params, metrics, {"unitarity": tol}


def _run_verify_cuntz(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "cuntz")
    bank, params = _bank_from_args(args, 1e-12)
    rep = CuntzRep(bank)
    report = verify_cuntz(rep, args.level, args.trials, args.seed, tol)
    params.update({"level": args.level, "trials": args.trials, "seed": args.seed})
    metrics = {
        "max_orthogonality_residual": report.max_orthogonality_residual,
        "max_identity_residual": report.max_identity_residual,
    }
    return report.passed, params, metrics, {"relative_residual": tol}


def _run_verify_gram(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "gram")
    bank, params = _bank_from_args(args, 1e-12)
    rep = CuntzRep(bank)
    report = gram_X4(rep, args.max_word_len)
    params.update({"max_word_len": args.max_word_len})
    metrics = {
        "size": report.size,
        "max_offdiag": report.max_offdiag,
        "max_diag_dev": report.max_diag_dev,
    }
    return report.max_dev <= tol, params, metrics, {"max_entry_dev": tol}


def _run_verify_projection(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "projection")
    bank, params = _bank_from_args(args, 1e-12)
    rep = CuntzRep(bank)
    projected = [(n, project_V(vec)) for n, vec in generated_family(rep, args.max_word_len)]
    # S_omega 1 projects to d_n e_n, n = c(omega), with the bank's digit weights
    support, _, d = weight_table([bank.digit_weight(j) for j in range(4)], len(projected) - 1)
    weights = np.zeros(len(projected), dtype=complex)
    weights[support] = d
    max_dev = 0.0
    for (n, got), expect in zip(projected, weights.tolist()):
        if len(got) != 1 or got[0].frequency != n:
            max_dev = float("inf")
            continue
        max_dev = max(max_dev, abs(got[0].weight - expect))
    params.update({"max_word_len": args.max_word_len})
    return max_dev <= tol, params, {"max_weight_dev": max_dev}, {"weight_dev": tol}


def _bessel_monotone(trace, tol: float) -> bool:
    """Partial sums never decrease and stay below the Bessel cap target * (1 + tol)."""
    values = [v for _, v in trace.checkpoints]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    return monotone and all(v <= trace.target * (1.0 + tol) for v in values)


def _run_verify_parseval(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "parseval")
    spec, params = _spec_from_args(args)
    trace = parseval_trace([(args.gamma, 1.0)], spec, args.n_max)
    if args.trace_out:
        write_trace_csv(args.trace_out, trace)
    params.update({"gamma": args.gamma, "n_max": args.n_max})
    metrics = {f"s_{N}": v for N, v in trace.checkpoints}
    metrics.update({"target": trace.target, "deficiency": trace.deficiency})
    return _bessel_monotone(trace, tol), params, metrics, {"bessel_slack": tol}


def _run_verify_ruelle(args) -> tuple[bool, dict, dict, dict]:
    tol = _resolve_tol(args, "ruelle")
    bank, params = _bank_from_args(args, 1e-12)
    rep = CuntzRep(bank)
    grid = _parse_grid(args.grid)
    # The reduced form of the refinement identity holds for rho banks only.
    rho = _rho_from_args(args) if "rho_re" in params else None
    report = verify_ruelle(rep, grid, args.level, tol, rho=rho)
    params.update({"grid": args.grid, "level": args.level})
    metrics = {
        "max_refinement_residual": report.max_refinement_residual,
        "max_specialization_gap": report.max_specialization_gap,
    }
    return report.passed, params, metrics, {"residual": tol, "specialization": SPECIALIZATION_TOL}


def _run_verify_nogo(args) -> tuple[bool, dict, dict, dict]:
    cert = mu3_nogo_certificate()
    metrics = {
        "norm_gap": cert.norm_gap,
        "input_norm": cert.input_norm,
        "output_norm": cert.output_norm,
        "output_vector": list(cert.output_vector),
        "min_phase_factor_abs": min(abs(f) for f in cert.row_phase_factors),
    }
    tolerances = {"min_phase_factor_abs": NOGO_MIN_PHASE_FACTOR, "norm_gap": NOGO_MIN_NORM_GAP}
    return cert.passed, {}, metrics, tolerances


def _run_verify_incomplete(args) -> tuple[bool, dict, dict, dict]:
    if len(args.gamma) > MAX_GAMMAS:
        raise CapacityError(f"{len(args.gamma)} frequencies exceed cap {MAX_GAMMAS}")
    if len(set(args.gamma)) < len(args.gamma):
        raise DomainError(f"--gamma frequencies must be distinct, got {args.gamma}")
    tol = _resolve_tol(args, "incomplete")
    report = incompleteness_report(args.gamma, args.n_max)
    metrics = {}
    for entry in report.entries:
        metrics[f"deficiency_{entry.gamma}"] = entry.deficiency
        metrics[f"flagged_{entry.gamma}"] = entry.flagged
    # Every trace obeys the Bessel cap, and the family misses some requested gamma.
    passed = all(_bessel_monotone(e.trace, tol) for e in report.entries) and any(
        e.flagged for e in report.entries
    )
    params = {"gamma": list(args.gamma), "n_max": args.n_max}
    return passed, params, metrics, {"report_threshold": report.threshold, "bessel_slack": tol}


_VERIFY_RUNNERS = {
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
        if args.command == "mu4hat":
            passed, params, metrics, tolerances = _run_mu4hat(args)
            command = "mu4hat"
        elif args.command == "weights":
            passed, params, metrics, tolerances = _run_weights(args)
            command = "weights"
        else:
            command = f"verify {args.check}"
            passed, params, metrics, tolerances = _VERIFY_RUNNERS[args.check](args)
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InfeasibleParameters, DomainError, ContractError, UnsupportedShape, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    duration_ms = int((time.monotonic() - started) * 1000)
    report = RunReport(
        command=command,
        params=params,
        metrics=metrics,
        passed=passed,
        tolerances=tolerances,
        duration_ms=duration_ms,
        version=__version__,
    )
    out_path = getattr(args, "out", None) if args.command == "verify" else None
    _emit(report, out_path)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
