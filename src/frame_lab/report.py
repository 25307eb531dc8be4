"""Check results and the machine-readable run reports of the CLI.

Every verification returns a Check; the CLI copies it into a RunReport,
serialized as JSON with lexicographically sorted keys. Every field except
duration_ms is a pure function of the flags and the package version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    """A verdict, the measurements it rests on, and the tolerances: for a
    verification, every threshold its verdict compares a measurement
    against."""

    passed: bool
    metrics: dict
    tolerances: dict


def _jsonable(value):
    """Convert numpy scalars and containers to plain JSON-ready values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class RunReport:
    command: str
    params: dict
    metrics: dict
    passed: bool
    tolerances: dict
    duration_ms: int
    version: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": _jsonable(self.params),
            "metrics": _jsonable(self.metrics),
            "pass": bool(self.passed),
            "tolerances": _jsonable(self.tolerances),
            "duration_ms": int(self.duration_ms),
            "version": self.version,
            "schema_version": "1",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
