"""Traced run of one command: spans around the public functions of each layer.

    python perfbench/tracer.py SUMMARY.json SPANS.npz -- verify gram --rho-im 1 --max-word-len 2
    python perfbench/tracer.py SUMMARY.json SPANS.npz -- scripts/certify_all.py --out-dir DIR

The wrappers replace every module's binding of each listed function, not
only the defining module's, because `atoms`, `cuntz`, `frames`, `cli` and the
package `__init__` import these names directly. The command then runs in
this process through `frame_lab.cli.main(argv)`, or through the script's
`main`. Spans (name, start, end, parent) stay in memory and are written to
SPANS.npz when the command ends; SUMMARY.json gets per-span-name calls, self
time and the work counts below. A listed function that no longer exists is
skipped and reports zero calls.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from array import array
from functools import wraps
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_mu4_hat(tracer, counts, args, kwargs, result):
    # Keyed on (evaluator, argument) from the call itself, so the ratio
    # describes the traffic whatever the memo does.
    cfg = _arg(args, kwargs, 1, "cfg", tracer.default_evaluator)
    key = (id(cfg), args[0] if args else kwargs.get("t"))
    if key in tracer.seen_mu4:
        counts["repeats"] = counts.get("repeats", 0) + 1
    else:
        tracer.seen_mu4.add(key)


def _count_normalize(tracer, counts, args, kwargs, result):
    counts["atoms_in"] = counts.get("atoms_in", 0) + len(_arg(args, kwargs, 0, "F").atoms)
    counts["atoms_out"] = counts.get("atoms_out", 0) + len(result.atoms)


def _count_inner_product(tracer, counts, args, kwargs, result):
    pairs = len(_arg(args, kwargs, 0, "F").atoms) * len(_arg(args, kwargs, 1, "G").atoms)
    counts["atom_pairs"] = counts.get("atom_pairs", 0) + pairs


def _count_dense_inner(tracer, counts, args, kwargs, result):
    level = max(_arg(args, kwargs, 2, "level_f"), _arg(args, kwargs, 5, "level_g"))
    counts["terms"] = counts.get("terms", 0) + 4**level


def _count_gram(tracer, counts, args, kwargs, result):
    counts["entries"] = counts.get("entries", 0) + result.size * (result.size + 1) // 2


def _count_parseval(tracer, counts, args, kwargs, result):
    terms = (_arg(args, kwargs, 2, "n_max") + 1) * len(_arg(args, kwargs, 0, "f"))
    counts["terms"] = counts.get("terms", 0) + terms


def _count_frame_weight(tracer, counts, args, kwargs, result):
    if result == 0:
        counts["zeros"] = counts.get("zeros", 0) + 1


def _count_csv(tracer, counts, args, kwargs, result):
    counts["bytes"] = counts.get("bytes", 0) + os.path.getsize(_arg(args, kwargs, 0, "path"))


# span name -> (module of frame_lab, function, work counter)
TRACED = {
    "transform.mu4_hat": ("transform", "mu4_hat", _count_mu4_hat),
    "transform.cis": ("transform", "cis", None),
    "words.enumerate_X4": ("words", "enumerate_X4", None),
    "words.digit_counts": ("words", "digit_counts", None),
    "atoms.normalize": ("atoms", "normalize", _count_normalize),
    "atoms.inner_product": ("atoms", "inner_product", _count_inner_product),
    "atoms.refine": ("atoms", "refine", None),
    "filters.hadamard_rho": ("filters", "hadamard_rho", None),
    "filters.filter_bank_from_A": ("filters", "filter_bank_from_A", None),
    "filters.solve_alpha": ("filters", "solve_alpha", None),
    "filters.little_m": ("filters", "little_m", None),
    "cuntz.dense_inner": ("cuntz", "dense_inner", _count_dense_inner),
    "cuntz.gram_X4": ("cuntz", "gram_X4", _count_gram),
    "cuntz.apply_S": ("cuntz", "apply_S", None),
    "cuntz.apply_S_star": ("cuntz", "apply_S_star", None),
    "cuntz.apply_word": ("cuntz", "apply_word", None),
    "cuntz.s_word_one": ("cuntz", "s_word_one", None),
    "cuntz.verify_cuntz": ("cuntz", "verify_cuntz", None),
    "frames.parseval_trace": ("frames", "parseval_trace", _count_parseval),
    "frames.frame_weight": ("frames", "frame_weight", _count_frame_weight),
    "frames.h_partial": ("frames", "h_partial", None),
    "frames.project_V": ("frames", "project_V", None),
    "frames.verify_ruelle": ("frames", "verify_ruelle", None),
    "frames.write_weight_table": ("frames", "write_weight_table", _count_csv),
    "frames.write_trace_csv": ("frames", "write_trace_csv", _count_csv),
    # The entry point: frame_lab.cli.main, or the script's main on certify.
    "cli.main": ("cli", "main", None),
}


class Tracer:
    """Records one span per call of a wrapped function, in flat arrays."""

    def __init__(self, default_evaluator=None):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, dict] = {}
        self.seen_mu4: set = set()
        self.default_evaluator = default_evaluator
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts.setdefault(name, {})
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self time in seconds, and the work counts."""
        names = [self.names[i] for i in self.name_ids]
        calls, self_s = aggregate(names, self.starts, self.ends, self.parents)
        out = {name: dict(counts) for name, counts in self.counts.items()}
        for name in calls:
            out[name].update(calls=calls[name], self_s=self_s[name])
        return out

    def save_spans(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def aggregate(names, starts, ends, parents) -> tuple[dict, dict]:
    """Calls and summed self time per name.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it because the command is single-threaded.
    `parents[i]` is the index of span i's parent, or -1 for a root span.
    """
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
    self_time = duration - child
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for name, value in zip(names, self_time.tolist()):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + value
    return calls, self_s


def install(tracer: Tracer) -> None:
    """Wrap each TRACED function and rebind it in every frame_lab module."""
    import frame_lab.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in list(sys.modules.items()) if n == "frame_lab" or n.startswith("frame_lab.")]
    transform = sys.modules.get("frame_lab.transform")
    tracer.default_evaluator = getattr(transform, "DEFAULT_EVALUATOR", None)
    for name, (module_name, function_name, counter) in TRACED.items():
        original = getattr(sys.modules.get(f"frame_lab.{module_name}"), function_name, None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def run(command: list[str], tracer: Tracer) -> int:
    """Run one CLI command or the certify script in this process."""
    if command[0].endswith(".py"):
        spec = importlib.util.spec_from_file_location("certify_all", command[0])
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        sys.argv = list(command)
        return tracer.wrap("cli.main", script.main)()
    import frame_lab.cli

    return frame_lab.cli.main(command)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, spans_path, command = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    code = run(command, tracer)
    sys.stdout.flush()
    finished = perf_counter()
    summary = {"spans": tracer.summary()}
    tracer.save_spans(spans_path)
    summary["teardown_s"] = perf_counter() - finished
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
