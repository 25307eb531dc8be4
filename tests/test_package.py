"""The package's shape and the text edits of the mutation census."""

import importlib.util
import types
from pathlib import Path

import frame_lab

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
