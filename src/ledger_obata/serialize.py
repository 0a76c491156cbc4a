"""Metric JSON input and output.

Schema: {"m": int, "repr": "T" | "form" | "eigen", ...} with "T" carrying
the m x m coefficient matrix, "form" the (m-1) x (m-1) quadratic form "a",
and "eigen" an adapted "basis" (m-1 rows of length m) plus "gammas".
Floats are written with 17 significant digits so a read back is bit exact.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .coeff import AdaptedSystem, is_adapted
from .errors import InputError
from .metrics import MetricT, MetricForm, form_to_T, metric_from_system


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise InputError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def dumps_numeric(obj: Any, indent: int = 0) -> str:
    """Serialize dicts/lists/numbers/strings, floats at 17 significant digits.

    A list of scalars prints on one line whatever its length.  A list that
    holds dicts or lists prints on one line when that line has at most 72
    characters, and one item per line otherwise.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_numeric(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        inner = ", ".join(dumps_numeric(v, indent + 2) for v in seq)
        scalars = not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if scalars or (len(inner) <= 72 and "\n" not in inner):
            return "[" + inner + "]"
        items = [f"{pad}  {dumps_numeric(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def metric_to_dict(metric: MetricT) -> dict:
    return {"m": metric.m, "repr": "T", "T": [list(row) for row in metric.matrix]}


def write_json(obj: Any, path: str) -> None:
    """Write ``obj`` through ``dumps_numeric``, with a final newline."""
    with open(path, "w") as fh:
        fh.write(dumps_numeric(obj))
        fh.write("\n")


def write_metric(metric: MetricT, path: str) -> None:
    write_json(metric_to_dict(metric), path)


def _as_matrix(data: Any, label: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{label} is not a numeric matrix: {exc}")
    if arr.ndim != 2:
        raise InputError(f"{label} must be two-dimensional, got shape {arr.shape}")
    return arr


def metric_from_dict(data: dict) -> MetricT:
    """Parse any of the three representations into the canonical MetricT."""
    if not isinstance(data, dict):
        raise InputError("metric JSON must be an object")
    try:
        m = int(data["m"])
        kind = data["repr"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"metric JSON needs integer 'm' and string 'repr': {exc}")
    if kind == "T":
        t = _as_matrix(data.get("T"), "'T'")
        if t.shape != (m, m):
            raise InputError(f"'T' must be {m}x{m}, got {t.shape}")
        return MetricT(t)
    if kind == "form":
        a = _as_matrix(data.get("a"), "'a'")
        if a.shape != (m - 1, m - 1):
            raise InputError(f"'a' must be {m - 1}x{m - 1}, got {a.shape}")
        return form_to_T(MetricForm(a))
    if kind == "eigen":
        basis = _as_matrix(data.get("basis"), "'basis'")
        try:
            gammas = np.array(data["gammas"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"'eigen' metric needs numeric 'gammas': {exc}")
        if basis.shape != (m - 1, m):
            raise InputError(f"'basis' must be {m - 1}x{m}, got {basis.shape}")
        if gammas.shape != (m - 1,):
            raise InputError(f"'gammas' must have length {m - 1}")
        if np.any(gammas <= 0):
            raise InputError("'gammas' must be positive")
        system = AdaptedSystem(basis, gammas)
        if not is_adapted(system):
            raise InputError("'basis' rows must be orthonormal with zero sums")
        return metric_from_system(system)
    raise InputError(f"unknown metric repr {kind!r} (expected 'T', 'form' or 'eigen')")


def read_json(path: str) -> Any:
    """Parse a JSON file; an unreadable or malformed file is an ``InputError``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def read_metric(path: str) -> MetricT:
    return metric_from_dict(read_json(path))
