"""JSON file formats for ensembles and measurements, plus record emission.

Complex matrices are stored as nested row-major lists whose innermost
entries are two-element [re, im] arrays. A file's whole list of matrices is
checked level by level on flattened lists (every matrix, row and entry a
list of the right length, every number a JSON integer or float), and its
numbers are converted by one numpy call; any other input goes to a
per-entry walk that names the first bad entry, and never returns a matrix.
Structural problems (wrong keys, ragged shapes, non-numeric entries) raise
FileFormatError; physics-level violations (hermiticity, traces, prior
normalization) are reported through the ensemble validation path so
callers can distinguish a broken file from a well-formed description of
invalid data. The file's encoding (UTF-8, -16 or -32, with or without a
byte-order mark) is detected from its bytes.

Emitted records print every float with 17 significant digits so values
round-trip losslessly; the stdlib encoder offers no hook for that, hence
the small serializer here. Non-finite floats become null.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .ensemble import Povm, StateEnsemble

# Spaces per nesting level in emitted records and files.
JSON_INDENT = 2


class FileFormatError(ValueError):
    """The file is not a structurally valid ensemble or POVM description."""


def _is_number(x) -> bool:
    # bool is an int subclass but makes no sense as a matrix entry
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# complex matrix <-> [re, im] pairs

def _flat_leaves(objs: list, dim: int) -> list | None:
    """The numbers of the matrices in ``objs`` in row-major order, [re, im]
    by [re, im]; None unless every matrix, row and entry is a list of the
    right length and every number a JSON integer or float (numpy alone would
    also take true, "1.5" and null)."""
    nodes = objs
    for width in (dim, dim, 2):
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {width}:
            return None
        nodes = list(chain.from_iterable(nodes))
    return nodes if set(map(type, nodes)) <= {int, float} else None


def _stack_from_pairs(objs: list, dim: int, what: str) -> np.ndarray:
    """The complex (len(objs), dim, dim) stack of the matrices in ``objs``;
    ``what`` names one of them in messages, e.g. "path: state"."""
    leaves = _flat_leaves(objs, dim)
    if leaves is not None:
        try:
            a = np.array(leaves, dtype=np.float64)
        except OverflowError:
            pass  # an integer too large for a float, which the walk names
        else:
            return a.view(np.complex128).reshape(len(objs), dim, dim)
    for j, obj in enumerate(objs):
        _raise_first_fault(obj, dim, f"{what} {j}")
    raise FileFormatError(f"{what}s are not {dim} x {dim} matrices of [re, im] pairs")


def _raise_first_fault(obj, dim: int, what: str) -> None:
    """Raise FileFormatError for the first bad row or entry of one matrix."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise FileFormatError(f"{what}: expected {dim} rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{what}: row {r} is not a list of {dim} entries")
        for c, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_number(x) for x in entry)):
                raise FileFormatError(
                    f"{what}: entry ({r},{c}) is not a two-element [re, im] array")
            try:
                complex(entry[0], entry[1])
            except OverflowError:
                raise FileFormatError(
                    f"{what}: entry ({r},{c}) is too large for a float") from None


def matrix_to_pairs(m: np.ndarray) -> list:
    """The nested [re, im] lists of a complex matrix, or of a stack of them."""
    return (np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
            .reshape(m.shape + (2,)).tolist())


# ---------------------------------------------------------------------------
# 17-significant-digit JSON

def _json_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _json_str(s: str) -> str:
    """``s`` as json.dumps writes it. json is imported on the first string
    a record holds, not with this module, so a command that prints no
    record (fig1) never loads it; that first call puts json's encoder in
    this function's place."""
    global _json_str
    from json.encoder import encode_basestring_ascii as _json_str
    _SCALARS[str] = _json_str
    return _json_str(s)


# what _emit writes for each scalar type that records hold, by exact type
_SCALARS = {
    float: _json_float,
    int: int.__repr__,
    str: _json_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _emit(o, out: list, level: int) -> None:
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        out.append(scalar(o))
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(_json_float(float(o)))
    elif isinstance(o, str):
        out.append(_json_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        pad_in = " " * (JSON_INDENT * (level + 1))
        out.append("[\n" + pad_in)
        for k, item in enumerate(o):
            if k:
                out.append(",\n" + pad_in)
            _emit(item, out, level + 1)
        out.append("\n" + " " * (JSON_INDENT * level) + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        pad_in = " " * (JSON_INDENT * (level + 1))
        out.append("{\n" + pad_in)
        for k, (key, value) in enumerate(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            if k:
                out.append(",\n" + pad_in)
            out.append(_json_str(key) + ": ")
            _emit(value, out, level + 1)
        out.append("\n" + " " * (JSON_INDENT * level) + "}")
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

def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; FileFormatError when it cannot be read."""
    try:
        # os.fspath keeps a non-path argument, such as a file descriptor, a TypeError
        with open(os.fspath(path), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _load_json(path, data: bytes | None) -> dict:
    import json  # here, not at module level: fig1 parses no file
    if data is None:
        data = read_bytes(path)
    try:
        obj = json.loads(data)  # detects UTF-8, -16 or -32 as RFC 8259 allows
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, JSONDecodeError, an integer of too many digits,
        # or arrays or objects nested deeper than the parser recurses
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return obj


def _require_dim(obj: dict, path) -> int:
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: \"dim\" must be a positive integer")
    return dim


def load_ensemble(path, validate: bool = True, data: bytes | None = None) -> StateEnsemble:
    """Parse { "dim", "priors", "states" }; with ``validate`` the physics
    checks run too and raise EnsembleValidationError on violations. When
    ``data`` is given it is the file's bytes, already read, and ``path``
    only names the file in messages."""
    obj = _load_json(path, data)
    dim = _require_dim(obj, path)
    priors = obj.get("priors")
    states = obj.get("states")
    if (not isinstance(priors, list) or not priors
            or not all(_is_number(p) for p in priors)):
        raise FileFormatError(f"{path}: \"priors\" must be a nonempty number list")
    if not isinstance(states, list) or len(states) != len(priors):
        raise FileFormatError(
            f"{path}: \"states\" must list one matrix per prior")
    matrices = _stack_from_pairs(states, dim, f"{path}: state")
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
        "states": matrix_to_pairs(e.states),
    }
    Path(path).write_text(dumps_json(record))


# ---------------------------------------------------------------------------
# POVM files

def load_povm(path, data: bytes | None = None) -> Povm:
    """Parse { "dim", "elements" }; element 0 is the inconclusive outcome.
    PSD and closure are semantic checks, left to povm_violations. ``data``
    is the file's bytes when already read, as for :func:`load_ensemble`."""
    obj = _load_json(path, data)
    dim = _require_dim(obj, path)
    elements = obj.get("elements")
    if not isinstance(elements, list) or len(elements) < 2:
        raise FileFormatError(
            f"{path}: \"elements\" must list at least two matrices")
    matrices = _stack_from_pairs(elements, dim, f"{path}: element")
    try:
        return Povm(matrices)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def povm_record(povm: Povm) -> dict:
    """The { "dim", "elements" } object that :func:`load_povm` parses."""
    return {
        "dim": povm.dim,
        "elements": matrix_to_pairs(povm.elements),
    }


def save_povm(path, povm: Povm) -> None:
    Path(path).write_text(dumps_json(povm_record(povm)))
