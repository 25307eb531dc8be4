"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "tests"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCES = gate.load_references(run.REFERENCES)


def _traced_summary(tmp_path, argv, prelude=""):
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import tracer\n{prelude}\n"
        f"sys.exit(tracer.main({[str(tmp_path / 's.json'), str(tmp_path / 's.npz'), '--', *argv]!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=run.child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "s.json").read_text())["spans"], proc.stdout


def test_wrappers_count_calls_made_through_other_modules_bindings(tmp_path):
    # gram_X4 reaches dense_inner through cuntz's binding and mu4_hat through
    # the name cuntz imported from transform: 16 words give 16*17/2 pairs.
    spans, stdout = _traced_summary(tmp_path, ["verify", "gram", "--rho-im", "1", "--max-word-len", "2"])
    assert spans["cuntz.dense_inner"]["calls"] == 136
    assert spans["transform.mu4_hat"]["calls"] == 136
    # 10 pairs of length-1 words cost 4 terms each, the other 126 pairs 16.
    assert spans["cuntz.dense_inner"]["terms"] == 10 * 4 + 126 * 16
    assert spans["cuntz.gram_X4"]["entries"] == 136
    assert spans["cli.main"]["calls"] == 1
    assert json.loads(stdout.splitlines()[-1])["pass"] is True


def test_missing_function_reports_zero_calls(tmp_path):
    prelude = "tracer.TRACED['frames.gone'] = ('frames', 'no_such_function', None)"
    spans, _ = _traced_summary(tmp_path, ["verify", "nogo-mu3"], prelude)
    assert "frames.gone" not in spans
    assert run.layer_metrics(run.merge_summaries([spans]))["frames.h_partial.calls"] == 0


def test_self_time_subtracts_direct_children_only():
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- c [2, 3]
    #   +- b [5, 6]
    names = ["a", "b", "c", "b"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    calls, self_s = tracer.aggregate(names, starts, ends, parents)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert sum(self_s.values()) == pytest.approx(10.0)


def _report(command, metrics, passed=True):
    return json.dumps({"command": "verify", "metrics": metrics, "pass": passed})


def test_gate_accepts_reference_and_rejects_doctored_reports():
    command = workloads.build("spectral", 0)[3]
    assert command.argv[1] == "incomplete"
    metrics = dict(REFERENCES["commands"][command.key]["metrics"])
    assert gate.check_cli(command, 0, _report(command, metrics), REFERENCES) == []
    assert gate.check_cli(command, 0, _report(command, metrics, passed=False), REFERENCES)
    drifted = dict(metrics, deficiency_1=metrics["deficiency_1"] + 1e-6)
    assert gate.check_cli(command, 0, _report(command, drifted), REFERENCES)
    flipped = dict(metrics, flagged_1=not metrics["flagged_1"])
    assert gate.check_cli(command, 0, _report(command, flipped), REFERENCES)
    assert gate.check_cli(command, 1, _report(command, metrics), REFERENCES)
    assert gate.check_cli(command, 0, "", REFERENCES)


def test_gate_requires_a_reference_for_value_gated_commands():
    command = workloads.Command(("verify", "parseval", "--rho-im", "1", "--gamma", "2"))
    report = _report(command, {"target": 1.0})
    assert gate.check_cli(command, 0, report, REFERENCES) == [f"no reference for {command.key!r}"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_seed_has_references(name):
    for seed in range(64):
        for command in workloads.build(name, seed):
            if not command.is_certify and command.argv[1] in gate.VALUE_GATED:
                assert command.key in REFERENCES["commands"], (seed, command.key)


def test_seed_zero_is_the_designed_workload():
    keys = [c.key for c in workloads.build("gram", 0)]
    assert keys[0] == "verify gram --rho-im 1 --max-word-len 4"
    assert keys[1] == "verify gram --rho-re 0.5 --rho-im 0.8660254037844386 --max-word-len 4"
    assert workloads.build("operators", 0)[2].key == "verify cuntz --rho-re 1 --level 2 --trials 20 --seed 7"


def test_parseval_references_match_the_independent_oracle():
    from oracles import oracle_trace_checkpoints

    from frame_lab.cli import _spec_from_args, build_parser

    parser = build_parser()
    checked = 0
    for key, ref in REFERENCES["commands"].items():
        argv = key.split()
        if argv[1] != "parseval":
            continue
        args = parser.parse_args(argv)
        spec, _ = _spec_from_args(args)
        oracle = oracle_trace_checkpoints(args.gamma, spec.p, spec.q, args.n_max)
        for n, value in oracle.items():
            assert ref["metrics"][f"s_{n}"] == pytest.approx(value, abs=ref["tol"]), (key, n)
        checked += 1
    assert checked == 1 + len(workloads.PARSEVAL_LOPSIDED_GAMMAS) + len(workloads.RHOS) * len(
        workloads.PARSEVAL_RHO_GAMMAS
    )


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(n, u, b) for n, u, b, *_ in run.PER_LAYER] + list(run.PROCESS_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers
