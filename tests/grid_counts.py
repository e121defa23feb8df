"""Print the solver's digest and counts on every named grid as one JSON object.

The object holds one line per grid of ``grids.GRIDS``: the digest of every
field of every ``solve_grid`` outcome (``grids.digest``), its points, the
sweeps in all and the most for one point, the rate evaluations, the points
not converged, not certified optimal and infeasible, and the
``np.linalg.eigh`` and ``eigvalsh`` calls made while the grid is built and
solved. None of these depends on the machine, so two checkouts that print
the same object solve these grids bit for bit alike and do the same work;
each grid's process CPU goes to stderr and is not a count.

Run from the repository root, against any checkout's package:

    PYTHONPATH=src python tests/grid_counts.py [name ...] > BENCH_counts.json

With names, only those grids run. Not collected by pytest (the file name
does not start with ``test_``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

from grids import GRIDS, digest
from povmlab.solver import InfeasibleTargetError, solve_grid

LINALG = ("eigh", "eigvalsh")
calls: Counter = Counter()


def counts(name: str) -> dict:
    """The digest and counts of one grid, from its outcomes and the linalg
    calls."""
    points, cap = GRIDS[name]
    calls.clear()
    outcomes = solve_grid(points(), max_iterations=cap)
    results = [r for r in outcomes if not isinstance(r, InfeasibleTargetError)]
    sweeps = [r.iterations for r in results]
    return {
        "digest": digest(*outcomes),
        "points": len(outcomes),
        "sweeps": sum(sweeps),
        "most_sweeps": max(sweeps, default=0),
        "rate_evaluations": sum(r.rate_evaluations for r in results),
        "not_converged": sum(not r.converged for r in results),
        "uncertified": sum(not r.certificate.optimal for r in results),
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
    names = names or list(GRIDS)
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
