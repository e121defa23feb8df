"""JSON file formats for ensembles and measurements, plus record emission.

Complex matrices are stored as nested row-major lists whose innermost
entries are two-element [re, im] arrays. Structural problems (wrong keys,
ragged shapes, non-numeric entries) raise FileFormatError; physics-level
violations (hermiticity, traces, prior normalization) are reported through
the ensemble validation path so callers can distinguish a broken file from
a well-formed description of invalid data.

Emitted records print every float with 17 significant digits so values
round-trip losslessly; the stdlib encoder offers no hook for that, hence
the small serializer here. Non-finite floats become null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ensemble import StateEnsemble
from .solver import Povm

# Spaces per nesting level in emitted records and files.
JSON_INDENT = 2


class FileFormatError(ValueError):
    """The file is not a structurally valid ensemble or POVM description."""


def _is_number(x) -> bool:
    # bool is an int subclass but makes no sense as a matrix entry
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# complex matrix <-> [re, im] pairs

def _matrix_from_pairs(obj, dim: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise FileFormatError(f"{what}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{what}: row {r} is not a list of {dim} entries")
        for c, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_number(x) for x in entry)):
                raise FileFormatError(
                    f"{what}: entry ({r},{c}) is not a two-element [re, im] array")
            try:
                out[r, c] = complex(entry[0], entry[1])
            except OverflowError:
                raise FileFormatError(
                    f"{what}: entry ({r},{c}) is too large for a float") from None
    return out


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(m[r, c].real), float(m[r, c].imag)]
             for c in range(m.shape[1])]
            for r in range(m.shape[0])]


# ---------------------------------------------------------------------------
# 17-significant-digit JSON

def _emit(o, out: list, level: int) -> None:
    pad = " " * (JSON_INDENT * level)
    pad_in = " " * (JSON_INDENT * (level + 1))
    if o is None:
        out.append("null")
    elif isinstance(o, bool):
        out.append("true" if o else "false")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        x = float(o)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(o, str):
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(o):
            out.append(pad_in)
            _emit(item, out, level + 1)
            out.append(",\n" if k < len(o) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{\n")
        items = list(o.items())
        for k, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(pad_in + json.dumps(key) + ": ")
            _emit(value, out, level + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(o)} to JSON")


def dumps_json(obj) -> str:
    """Serialize to JSON, indented by JSON_INDENT spaces, with every finite
    float at 17 significant digits (lossless round-trip) and non-finite
    floats as null. Key order is insertion order, so equal inputs produce
    byte-identical output."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def float_repr(x: float) -> str:
    """The 17-significant-digit rendering used in CSV rows."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# ensemble files

def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return obj


def _require_dim(obj: dict, path) -> int:
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: \"dim\" must be a positive integer")
    return dim


def load_ensemble(path, validate: bool = True) -> StateEnsemble:
    """Parse { "dim", "priors", "states" }; with ``validate`` the physics
    checks run too and raise EnsembleValidationError on violations."""
    obj = _load_json(path)
    dim = _require_dim(obj, path)
    priors = obj.get("priors")
    states = obj.get("states")
    if (not isinstance(priors, list) or not priors
            or not all(_is_number(p) for p in priors)):
        raise FileFormatError(f"{path}: \"priors\" must be a nonempty number list")
    if not isinstance(states, list) or len(states) != len(priors):
        raise FileFormatError(
            f"{path}: \"states\" must list one matrix per prior")
    matrices = [
        _matrix_from_pairs(s, dim, f"{path}: state {j}")
        for j, s in enumerate(states)
    ]
    try:
        e = StateEnsemble(matrices, np.array(priors, dtype=float))
    except OverflowError:
        raise FileFormatError(f"{path}: a prior is too large for a float") from None
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if validate:
        e.require_valid()
    return e


def save_ensemble(path, e: StateEnsemble) -> None:
    record = {
        "dim": e.dim,
        "priors": [float(p) for p in e.priors],
        "states": [matrix_to_pairs(s) for s in e.states],
    }
    Path(path).write_text(dumps_json(record))


# ---------------------------------------------------------------------------
# POVM files

def load_povm(path) -> Povm:
    """Parse { "dim", "elements" }; element 0 is the inconclusive outcome.
    PSD and closure are semantic checks, left to povm_violations."""
    obj = _load_json(path)
    dim = _require_dim(obj, path)
    elements = obj.get("elements")
    if not isinstance(elements, list) or len(elements) < 2:
        raise FileFormatError(
            f"{path}: \"elements\" must list at least two matrices")
    matrices = [
        _matrix_from_pairs(m, dim, f"{path}: element {k}")
        for k, m in enumerate(elements)
    ]
    try:
        return Povm(matrices)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def povm_record(povm: Povm) -> dict:
    """The { "dim", "elements" } object that :func:`load_povm` parses."""
    return {
        "dim": povm.dim,
        "elements": [matrix_to_pairs(m) for m in povm.elements],
    }


def save_povm(path, povm: Povm) -> None:
    Path(path).write_text(dumps_json(povm_record(povm)))
