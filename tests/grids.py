"""The named solver grids and the one exact-bits digest of solver outcomes.

A grid is a list of (ensemble, target) points for ``solve_grid``:

- ``fig1(theta)``, the points of ``povmlab fig1 --theta theta``, built by
  :func:`povmlab.cli.fig1_points`; at small theta the states are nearly
  parallel (family B of ``test_hard_ensembles_at_the_default_cap``);
- ``onset_window()``, 33 targets across the plateau onset of the
  eta = 0.9 pair, where the iteration converges slowest;
- ``family_a`` and ``family_c``, random rank-2 states in d = 4 and
  full-rank states in d = 8 (or ``dim``).

``GRIDS`` names each grid with its sweep cap; ``tests/grid_counts.py``
prints the digest and counts of each. :func:`digest` hashes every field of
every outcome, floats and arrays as their exact bits, so equal digests mean
bit-identical results. Not collected by pytest (the file name does not
start with ``test_``).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from conftest import random_density
from povmlab import Povm
from povmlab.cli import fig1_points
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair

# onset +- 0.08 of the eta = 0.9, theta = pi/4 pair, in steps of 0.005
ONSET_WINDOW = np.linspace(0.5563961030678929, 0.7163961030678928, 33)


def fig1(theta: float = math.pi / 4,
         etas: tuple[float, ...] = (0.7, 0.8, 0.9, 1.0)) -> list[tuple[StateEnsemble, float]]:
    """``povmlab fig1 --theta theta``'s points, or those of its ``etas``."""
    return [(e, t) for _, e, t in fig1_points(etas, theta)]


def onset_window() -> list[tuple[StateEnsemble, float]]:
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    return [(e, float(t)) for t in ONSET_WINDOW]


def family_a(n_states: int) -> list[tuple[StateEnsemble, float]]:
    """Random rank-2 states in d = 4 with equal priors, one generator per
    ensemble, seeds 0-5, at ten targets from 0 to 0.9."""
    points = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        e = StateEnsemble(tuple(random_density(rng, 4, 2) for _ in range(n_states)),
                          np.full(n_states, 1.0 / n_states))
        points += [(e, float(t)) for t in np.linspace(0.0, 0.9, 10)]
    return points


def family_c(n_states: int, dim: int = 8) -> list[tuple[StateEnsemble, float]]:
    """Random full-rank states in d = ``dim`` with equal priors, one
    generator per ensemble, seeds 1000-1002, at ten targets from 0 to 0.9."""
    points = []
    for seed in range(1000, 1003):
        rng = np.random.default_rng(seed)
        e = StateEnsemble(tuple(random_density(rng, dim) for _ in range(n_states)),
                          np.full(n_states, 1.0 / n_states))
        points += [(e, float(t)) for t in np.linspace(0.0, 0.9, 10)]
    return points


# name: (points, sweep cap)
GRIDS = {
    "fig1": (fig1, 500),
    "onset-window": (onset_window, 1000),
    "B-theta-0.01": (lambda: fig1(0.01), 500),
    "B-theta-1e-3": (lambda: fig1(1e-3), 500),
    "B-theta-1e-5": (lambda: fig1(1e-5), 500),
    "A-d-4-N-2": (lambda: family_a(2), 500),
    "A-d-4-N-3": (lambda: family_a(3), 500),
    "C-d-8-N-2": (lambda: family_c(2), 500),
    "C-d-16-N-2": (lambda: family_c(2, dim=16), 500),
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


def digest(*outcomes) -> str:
    """The sha256 hex digest of ``outcomes`` in order: solver results,
    certificates or the errors met in their place, with every field."""
    h = hashlib.sha256()
    for outcome in outcomes:
        _feed(h, outcome)
    return h.hexdigest()
