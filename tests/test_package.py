"""The package's shape, its two exception types, the modules a run imports, copies of its records,
the text edits of the mutation census and the benchmark's traced run."""

import copy
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import frame_lab
from frame_lab.filters import FilterBank
from frame_lab.frames import PartialSumTrace, parseval_trace

ROOT = Path(__file__).resolve().parents[1]


def test_the_package_binds_its_modules_and_nothing_else():
    # every name has one import path, the module that defines it: the
    # package holds its version and its modules, and re-exports nothing
    public = {name: value for name, value in vars(frame_lab).items() if not name.startswith("_")}
    strays = sorted(name for name, value in public.items() if not isinstance(value, types.ModuleType))
    assert not strays
    assert {"atoms", "cuntz", "errors", "filters", "frames", "report", "transform"} <= set(public)
    assert isinstance(frame_lab.__version__, str)
    assert not hasattr(frame_lab, "__all__")


def test_the_package_refuses_with_two_exception_types():
    # the type of a refusal alone gives its exit code: DomainError exit 2,
    # CapacityError exit 3
    defined = {
        name for name, value in vars(frame_lab.errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert defined == {"DomainError", "CapacityError"}
    assert issubclass(frame_lab.errors.DomainError, ValueError)
    assert issubclass(frame_lab.errors.CapacityError, RuntimeError)


def test_every_mutant_edits_one_place():
    # a refactor that moves a mutant's old text would turn the mutant into a
    # no-op that survives; the census itself runs outside Tier-1
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.misplaced() == []
    assert all(m.old != m.new and m.file.startswith("src/") for m in mutants.MUTANTS)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def _imports(*args: str) -> set[str]:
    """The modules a fresh interpreter imports to run args, read from -X importtime."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-X", "importtime", *args]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def test_no_process_loads_csv_or_dataclasses():
    # the library writes its CSVs as text and its records are plain classes,
    # so neither module adds to the start-up time and peak RSS of a run
    for args in (["-c", "import frame_lab.cli"], ["-m", "frame_lab", "verify", "nogo-mu3"]):
        modules = _imports(*args)
        assert "frame_lab.cli" in modules
        assert not modules & {"csv", "_csv", "dataclasses"}, args


def test_the_package_starts_no_blas_threads():
    # the library makes no BLAS call: before numpy is imported it asks
    # OpenBLAS for one thread, keeps a value the caller set, and sets nothing
    # once numpy is imported. This process's own import set the variable.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")

    def fresh(first="", **preset):
        program = (f"import os; {first}import frame_lab.cli; "
                   "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
        done = subprocess.run([sys.executable, "-c", program], env={**env, **preset},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert fresh() == ["1", "1"]
    assert fresh(OPENBLAS_NUM_THREADS="2")[0] == "2"
    assert fresh("import numpy; ")[0] == "None"


def test_the_records_copy_and_pickle(bank_i):
    # the read-only bank refuses setattr, so a copy is built through the
    # constructor, which checks it again
    trace = parseval_trace([(1, 1.0)], bank_i, 64)
    for copied in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        bank, T = copied(bank_i), copied(trace)
        assert type(bank) is FilterBank and np.array_equal(bank.A, bank_i.A)
        assert not bank.A.flags.writeable
        assert type(T) is PartialSumTrace and T.checkpoints == trace.checkpoints
        assert np.array_equal(T.n, trace.n) and np.array_equal(T.terms, trace.terms)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cuntz", "--rho-re", "1", "--level", "2", "--trials", "3"],
        ["verify", "projection", "--rho-im", "1", "--max-word-len", "2"],
        ["verify", "parseval", "--rho-im", "1", "--gamma", "3", "--n-max", "64"],
    ],
)
def test_the_benchmarks_traced_run_passes(tmp_path, argv):
    # perfbench/tracer.py wraps the layers' functions and reads its work
    # counts from their arguments and results, so a library change that a
    # counter no longer fits fails the benchmark's traced run
    tracer = ROOT / "perfbench" / "tracer.py"
    command = [sys.executable, str(tracer), str(tmp_path / "s.json"), str(tmp_path / "s.npz"), "--"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("FRAME_LAB_TOL", None)
    done = subprocess.run([*command, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["pass"] is True
