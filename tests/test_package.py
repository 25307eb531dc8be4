"""The package's shape, the modules a run imports, copies of its records
and the text edits of the mutation census."""

import copy
import importlib.util
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import frame_lab
from frame_lab.atoms import FunctionSum
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


def test_the_records_copy_and_pickle(bank_i):
    # the read-only records refuse setattr, so a copy is built through the
    # constructor, which checks it again
    F = FunctionSum([(1.0, 0.5, 3, 1), (2j, 0.0, 0, 0)])
    trace = parseval_trace([(1, 1.0)], bank_i, 64)
    for copied in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        bank, G, T = copied(bank_i), copied(F), copied(trace)
        assert type(bank) is FilterBank and np.array_equal(bank.A, bank_i.A)
        assert type(G) is FunctionSum and np.array_equal(G.atoms, F.atoms)
        assert not bank.A.flags.writeable and not G.atoms.flags.writeable
        assert type(T) is PartialSumTrace and T.checkpoints == trace.checkpoints
        assert np.array_equal(T.n, trace.n) and np.array_equal(T.terms, trace.terms)
