"""Print one sha256 digest and one sweep total per named solver grid.

Each digest covers every field of every ``solve_grid`` result of the grid,
floats and arrays as their exact bits, so two checkouts that print the same
lines solve these grids bit for bit alike. The grids are the default
``fig1``, the onset window and the hard families of
``test_hard_ensembles_at_the_default_cap``.

Run from the repository root, against any checkout's package:

    PYTHONPATH=src python tests/grid_digests.py [name ...]

With names, only those grids run. Not collected by pytest (the file name
does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from povmlab import Povm
from povmlab.cli import default_sweep_grid
from povmlab.ensemble import symmetric_qubit_pair
from povmlab.solver import solve_grid
from test_solver import ONSET_WINDOW, _family_a, _family_b, _family_c


def _fig1():
    return [(symmetric_qubit_pair(eta, math.pi / 4), float(t))
            for eta in (0.7, 0.8, 0.9, 1.0)
            for t in default_sweep_grid(eta * math.cos(math.pi / 4))]


def _onset_window():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    return [(e, float(t)) for t in ONSET_WINDOW]


# name: (points, sweep cap)
GRIDS = {
    "fig1": (_fig1, 500),
    "onset-window": (_onset_window, 1000),
    "B-theta-0.01": (lambda: _family_b(0.01), 500),
    "B-theta-1e-3": (lambda: _family_b(1e-3), 500),
    "B-theta-1e-5": (lambda: _family_b(1e-5), 500),
    "A-d-4-N-2": (lambda: _family_a(2), 500),
    "A-d-4-N-3": (lambda: _family_a(3), 500),
    "C-d-8-N-2": (lambda: _family_c(2), 500),
}


def _feed(h, value) -> None:
    """Hash ``value`` with its type, floats and arrays as exact bits."""
    if isinstance(value, Povm):
        value = value.elements
    if isinstance(value, (np.ndarray, np.generic)):
        h.update(f"array{value.shape}{value.dtype}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"float" + value.hex().encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__}[{len(value)}]".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}:{value}".encode())
        _feed(h, list(vars(value).values()))
    else:   # None, bool, int, str
        h.update(repr(value).encode())


def digest(name: str) -> tuple[str, int]:
    """The grid's digest over all its outcomes and its total sweeps."""
    points, cap = GRIDS[name]
    h = hashlib.sha256()
    sweeps = 0
    for outcome in solve_grid(points(), max_iterations=cap):
        _feed(h, outcome)
        sweeps += getattr(outcome, "iterations", 0)
    return h.hexdigest(), sweeps


def main(names: list[str]) -> None:
    for name in names or GRIDS:
        sha, sweeps = digest(name)
        print(f"{name:<14} {sha} sweeps {sweeps}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
