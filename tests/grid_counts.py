"""Print the solver's counts on every named grid as one JSON object.

The object holds one line per grid: its points, the sweeps in all and the
most for one point, the rate evaluations, the points not converged, not
certified optimal and infeasible, and the ``np.linalg.eigh`` and
``eigvalsh`` calls made while the grid is built and solved. None of these
depends on the machine, so two checkouts that print the same object do the
same work on these grids; each grid's process CPU goes to stderr and is not
a count. The grids are those of ``grid_digests.py``, ``cli-fig1``, which is
``povmlab fig1`` through ``cli.main`` with one ensemble per eta, and
``C-d-16-N-2``, family C at d = 16.

Run from the repository root, against any checkout's package:

    PYTHONPATH=src python tests/grid_counts.py [name ...] > BENCH_counts.json

With names, only those grids run. Not collected by pytest (the file name
does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter

import numpy as np

from grid_digests import GRIDS
from povmlab import certificate, cli
from povmlab.solver import InfeasibleTargetError, solve_grid
from test_solver import _family_c

LINALG = ("eigh", "eigvalsh")
calls: Counter = Counter()


def _cli_fig1() -> list:
    """The outcomes of every solve_grid call ``povmlab fig1`` makes; its
    CSV is discarded."""
    outcomes = []

    def recorded(points, **options):
        found = solve_grid(points, **options)
        outcomes.extend(found)
        return found

    cli.solve_grid = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fig1"])
    finally:
        cli.solve_grid = solve_grid
    if code != 0:
        raise SystemExit(f"povmlab fig1 exited with code {code}")
    return outcomes


def _grid(points, cap):
    return lambda: solve_grid(points(), max_iterations=cap)


# name: a call that builds and solves the grid and returns its outcomes
RUNS = {name: _grid(points, cap) for name, (points, cap) in GRIDS.items()}
RUNS["cli-fig1"] = _cli_fig1
RUNS["C-d-16-N-2"] = _grid(lambda: _family_c(2, dim=16), 500)


def counts(name: str) -> dict:
    """The counts of one grid, from its outcomes and the linalg calls."""
    calls.clear()
    outcomes = RUNS[name]()
    results = [r for r in outcomes if not isinstance(r, InfeasibleTargetError)]
    sweeps = [r.iterations for r in results]
    return {
        "points": len(outcomes),
        "sweeps": sum(sweeps),
        "most_sweeps": max(sweeps, default=0),
        "rate_evaluations": sum(r.rate_evaluations for r in results),
        "not_converged": sum(not r.converged for r in results),
        "uncertified": sum(not (isinstance(r.certificate, certificate.Certificate)
                                and r.certificate.optimal) for r in results),
        "infeasible": len(outcomes) - len(results),
        **{fn: calls[fn] for fn in LINALG},
    }


def _counting(name: str):
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return counted


def main(names: list[str]) -> None:
    names = names or list(RUNS)
    for name in LINALG:
        setattr(np.linalg, name, _counting(name))
    print("{", flush=True)
    for k, name in enumerate(names):
        cpu = time.process_time()
        line = json.dumps(counts(name))
        print(f"{name}: {time.process_time() - cpu:.3f} s CPU", file=sys.stderr)
        print(f"  {json.dumps(name)}: {line}{',' if k < len(names) - 1 else ''}", flush=True)
    print("}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
