#!/usr/bin/env python3
"""frame-lab certification benchmark.

    python3 perfbench/run.py --workload gram --seed 0 --seconds 15 --trace 0

Runs the workload's commands (see workloads.py) the way users run them:
each `frame-lab verify ...` as `python -m frame_lab` with PYTHONPATH=src,
and scripts/certify_all.py, every one in a fresh process, one at a time
from this single parent process. That is a closed loop with one client, and
every command starts with a cold transform memo, as it does for a user.
Every command's report or exit code goes through the gate in gate.py.

A run measures, in order:

1. `setup_s`: the wall time of an interpreter that imports `frame_lab.cli`
   and builds its parser. One sample is discarded, SETUP_SAMPLES are taken
   now and one more before each timed pass, so that the samples span the
   run; the median is reported.
2. One discarded pass over the workload, so bytecode compilation and the
   file cache do not land in the first sample.
3. Timed passes, repeated until `--seconds` have elapsed. `wall_s` is the
   sum over the workload's commands of each command's median wall time,
   and `peak_rss_mb` the largest max-RSS of any timed process.
4. With `--trace 1`, one more pass in which every command runs under
   tracer.py, giving the per-layer metrics. Timed passes never trace.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`. The line before it records provenance.
All files the run writes go under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH_DIR / "references.json"
REQUIRED = ("src/frame_lab/cli.py", "scripts/certify_all.py")
SETUP_CODE = "import frame_lab.cli as cli; cli.build_parser()"
SETUP_SAMPLES = 4
# A hung command is killed once the run has lasted this long, so that the
# run still ends, with the command counted as failed, within 180 s.
RUN_LIMIT_S = 170.0

# name, unit
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_BANK = ("filters.hadamard_rho", "filters.filter_bank_from_A", "filters.solve_alpha")
_CSV = ("frames.write_weight_table", "frames.write_trace_csv")
# name, unit, better, spans summed, count key, denominator key (for ratios)
PER_LAYER = (
    ("transform.mu4_hat.calls", "count", "lower", ("transform.mu4_hat",), "calls", None),
    ("transform.mu4_hat.self_s", "s", "lower", ("transform.mu4_hat",), "self_s", None),
    ("transform.mu4_hat.repeat_ratio", "ratio", "lower", ("transform.mu4_hat",), "repeats", "calls"),
    ("transform.cis.calls", "count", "lower", ("transform.cis",), "calls", None),
    ("transform.cis.self_s", "s", "lower", ("transform.cis",), "self_s", None),
    ("words.enumerate_X4.self_s", "s", "lower", ("words.enumerate_X4",), "self_s", None),
    ("words.digit_counts.calls", "count", "lower", ("words.digit_counts",), "calls", None),
    ("words.digit_counts.self_s", "s", "lower", ("words.digit_counts",), "self_s", None),
    ("atoms.normalize.calls", "count", "lower", ("atoms.normalize",), "calls", None),
    ("atoms.normalize.self_s", "s", "lower", ("atoms.normalize",), "self_s", None),
    ("atoms.normalize.atoms_in", "count", "lower", ("atoms.normalize",), "atoms_in", None),
    ("atoms.normalize.keep_ratio", "ratio", "higher", ("atoms.normalize",), "atoms_out", "atoms_in"),
    ("atoms.inner_product.calls", "count", "lower", ("atoms.inner_product",), "calls", None),
    ("atoms.inner_product.self_s", "s", "lower", ("atoms.inner_product",), "self_s", None),
    ("atoms.inner_product.atom_pairs", "count", "lower", ("atoms.inner_product",), "atom_pairs", None),
    ("atoms.refine.self_s", "s", "lower", ("atoms.refine",), "self_s", None),
    ("filters.bank.self_s", "s", "lower", _BANK, "self_s", None),
    ("filters.little_m.calls", "count", "lower", ("filters.little_m",), "calls", None),
    ("filters.little_m.self_s", "s", "lower", ("filters.little_m",), "self_s", None),
    ("cuntz.dense_inner.calls", "count", "lower", ("cuntz.dense_inner",), "calls", None),
    ("cuntz.dense_inner.self_s", "s", "lower", ("cuntz.dense_inner",), "self_s", None),
    ("cuntz.dense_inner.terms", "count", "lower", ("cuntz.dense_inner",), "terms", None),
    ("cuntz.gram_X4.self_s", "s", "lower", ("cuntz.gram_X4",), "self_s", None),
    ("cuntz.gram_X4.entries", "count", "lower", ("cuntz.gram_X4",), "entries", None),
    ("cuntz.apply_S.calls", "count", "lower", ("cuntz.apply_S",), "calls", None),
    ("cuntz.apply_S.self_s", "s", "lower", ("cuntz.apply_S",), "self_s", None),
    ("cuntz.apply_S_star.calls", "count", "lower", ("cuntz.apply_S_star",), "calls", None),
    ("cuntz.apply_S_star.self_s", "s", "lower", ("cuntz.apply_S_star",), "self_s", None),
    ("cuntz.apply_word.self_s", "s", "lower", ("cuntz.apply_word",), "self_s", None),
    ("cuntz.s_word_one.calls", "count", "lower", ("cuntz.s_word_one",), "calls", None),
    ("cuntz.s_word_one.self_s", "s", "lower", ("cuntz.s_word_one",), "self_s", None),
    ("cuntz.verify_cuntz.self_s", "s", "lower", ("cuntz.verify_cuntz",), "self_s", None),
    ("frames.parseval_trace.self_s", "s", "lower", ("frames.parseval_trace",), "self_s", None),
    ("frames.parseval_trace.terms", "count", "lower", ("frames.parseval_trace",), "terms", None),
    ("frames.frame_weight.calls", "count", "lower", ("frames.frame_weight",), "calls", None),
    ("frames.frame_weight.self_s", "s", "lower", ("frames.frame_weight",), "self_s", None),
    ("frames.frame_weight.zero_ratio", "ratio", "lower", ("frames.frame_weight",), "zeros", "calls"),
    ("frames.h_partial.calls", "count", "lower", ("frames.h_partial",), "calls", None),
    ("frames.h_partial.self_s", "s", "lower", ("frames.h_partial",), "self_s", None),
    ("frames.project_V.calls", "count", "lower", ("frames.project_V",), "calls", None),
    ("frames.project_V.self_s", "s", "lower", ("frames.project_V",), "self_s", None),
    ("frames.verify_ruelle.self_s", "s", "lower", ("frames.verify_ruelle",), "self_s", None),
    ("frames.write_csv.self_s", "s", "lower", _CSV, "self_s", None),
    ("frames.write_csv.bytes", "bytes", "lower", _CSV, "bytes", None),
    ("cli.main.self_s", "s", "lower", ("cli.main",), "self_s", None),
)
# Measured by run.py rather than summed from spans.
PROCESS_METRICS = (
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    trace_summary: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRAME_LAB_TOL", None)  # every command runs at its default tolerance
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns commands one at a time and gates each one."""

    def __init__(self, references: dict):
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = child_env()
        self.references = references
        self.attempted = 0
        self.failed = 0

    def spawn(self, args: list[str]) -> tuple[int, str, float, object]:
        """Run one process to completion: exit code, stdout, wall seconds, rusage."""
        with tempfile.TemporaryFile(dir=WORK) as out:
            start = perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=out)
            watchdog = threading.Timer(max(0.0, self.deadline - start), _kill, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            return proc.returncode, out.read().decode(errors="replace"), wall, usage

    def run_command(self, command: workloads.Command, traced: bool = False) -> Sample:
        args = [sys.executable]
        summary_path = None
        if traced:
            summary_path = WORK / f"trace-{self.attempted}.json"
            spans_path = WORK / f"spans-{self.attempted}.npz"
            args += [str(BENCH_DIR / "tracer.py"), str(summary_path), str(spans_path), "--"]
        elif not command.is_certify:
            args += ["-m", "frame_lab"]
        args += command.argv
        out_dir = None
        if command.is_certify:
            out_dir = Path(tempfile.mkdtemp(dir=WORK))
            args += ["--out-dir", str(out_dir)]
        try:
            code, stdout, wall, usage = self.spawn(args)
            if command.is_certify:
                problems = gate.check_certify(code, stdout, out_dir, self.references)
            else:
                problems = gate.check_cli(command, code, stdout, self.references)
        finally:
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
        if traced and code == 0:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            sample.trace_summary = summary["spans"]
            sample.wall_s -= summary["teardown_s"]
        if problems:
            self.failed += 1
            print(f"FAILED {command.key}: {'; '.join(problems)}", file=sys.stderr)
        return sample

    def run_pass(self, commands, traced: bool = False) -> list[Sample]:
        return [self.run_command(c, traced) for c in commands]

    def setup_sample(self) -> float:
        """Wall time of an interpreter that imports the CLI and builds its parser."""
        code, _, wall, _ = self.spawn([sys.executable, "-c", SETUP_CODE])
        if code != 0:
            raise SystemExit(f"set-up interpreter exited {code}")
        return wall


def command_medians(passes: list[list[Sample]], field: str) -> list[float]:
    """Per command, the median of `field` over the timed passes."""
    return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def merge_summaries(summaries) -> dict:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for span, counts in summary.items():
            into = merged.setdefault(span, {})
            for key, value in counts.items():
                into[key] = into.get(key, 0) + value
    return merged


def layer_metrics(merged: dict) -> dict:
    """PER_LAYER values from the merged trace summaries; absent spans count zero."""
    def total(spans, key):
        return sum(merged.get(s, {}).get(key, 0) for s in spans)

    values = {}
    for name, _, _, spans, key, denominator in PER_LAYER:
        value = total(spans, key)
        if denominator is not None:
            base = total(spans, denominator)
            value = value / base if base else 0.0
        values[name] = value
    return values


def total_self(merged: dict) -> float:
    return sum(counts.get("self_s", 0.0) for counts in merged.values())


def provenance(name: str, seed: int, commands, passes, references: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "argv": [c.key for c in commands],
        "timed_passes": len(passes),
        "command_wall_s": command_medians(passes, "wall_s"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "references_from": references.get("recorded_from"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a frame-lab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    references = gate.load_references(REFERENCES)
    commands = workloads.build(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    runner = Runner(references)
    setup_walls = [runner.setup_sample() for _ in range(SETUP_SAMPLES + 1)][1:]
    runner.run_pass(commands)  # discarded warm-up
    passes = []
    started = perf_counter()
    while not passes or perf_counter() - started < args.seconds:
        setup_walls.append(runner.setup_sample())
        passes.append(runner.run_pass(commands))
    wall_s = sum(command_medians(passes, "wall_s"))

    if args.trace:
        traced = runner.run_pass(commands, traced=True)
        traced_wall = sum(s.wall_s for s in traced)
        merged = merge_summaries(s.trace_summary for s in traced if s.trace_summary)
        values = layer_metrics(merged)
        values["proc.cpu_s"] = sum(command_medians(passes, "cpu_s"))
        values["trace.overhead_s"] = traced_wall - wall_s
        values["trace.coverage"] = total_self(merged) / traced_wall
        units = {n: u for n, u, *_ in PER_LAYER} | {n: u for n, u, _ in PROCESS_METRICS}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": max(s.maxrss_kb for p in passes for s in p) / 1024.0,
        }
        units = dict(END_TO_END)

    info = provenance(args.workload, args.seed, commands, passes, references)
    info["fail_frac"] = runner.failed / runner.attempted
    print(json.dumps({"provenance": info}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
