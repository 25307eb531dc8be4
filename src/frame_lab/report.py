"""Check results and the machine-readable run reports of the CLI.

Every verification returns a Check; report_json turns it into the run's
report, one strict JSON object with lexicographically sorted keys. A
non-finite metric is written as its string ("inf", "-inf", "nan"). Every
field except duration_ms is a pure function of the flags and the package
version.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from . import __version__


class Check(NamedTuple):
    """A verdict, the measurements it rests on, and the tolerances: for a
    verification, every threshold its verdict compares a measurement
    against."""

    passed: bool
    metrics: dict
    tolerances: dict


def _plain(value):
    """value with numpy values as Python ones and each non-finite float as its string."""
    value = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def report_json(command: str, params: dict, check: Check, duration_ms: int) -> str:
    """The run report of check, computed by command on params."""
    report = {
        "command": command,
        "params": params,
        "metrics": check.metrics,
        "pass": check.passed,
        "tolerances": check.tolerances,
        "duration_ms": duration_ms,
        "version": __version__,
        "schema_version": "1",
    }
    return json.dumps(_plain(report), sort_keys=True, allow_nan=False)
