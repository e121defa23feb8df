"""Closed-loop client for the certify-batch workload.

Usage: python3 bench/client.py MANIFEST [TRACE_OUT]

Loads the request list from MANIFEST, prints ``ready`` once povmlab is
imported, then waits for ``go SECONDS`` on standard input (``quit`` ends
it). It sends one request at a time through the public library, the way
the ``validate``, ``bound`` and ``certify`` commands do, and repeats whole
rounds of the list until SECONDS have passed. Each request writes its
record with ``fileio.dumps_json``. The last line of standard output is a
JSON summary: rounds, per-request latencies in ms, the loop's start on
the ``time.perf_counter`` clock, its wall and CPU time, the first round's
outcomes and whether every round repeated them.

With TRACE_OUT the per-layer tracer is installed first and its spans are
written there at the end.
"""

from __future__ import annotations

import json
import math
import sys
import time


def _violations(vs) -> list:
    return [{"message": v.message, "residual": v.residual, "index": v.index} for v in vs]


def main() -> int:
    manifest_path = sys.argv[1]
    tracer = None
    if len(sys.argv) > 2:
        from tracer import Tracer
        tracer = Tracer(sys.argv[2])
        tracer.install()

    from povmlab import bounds, certificate, ensemble, fileio, solver

    def validate(req):
        e = fileio.load_ensemble(req["ensemble"], validate=False)
        violations = ensemble.validate(e)
        payload = {"valid": not violations, "dim": e.dim, "n_states": e.n_states,
                   "violations": _violations(violations)}
        return payload, not violations

    def bound(req):
        b = bounds.max_relative_success(fileio.load_ensemble(req["ensemble"]))
        payload = {"prs_max": b.prs_max, "per_state_a": list(b.per_state_a),
                   "argmax_state": b.argmax_state, "kernel_dimension": b.kernel_dimension}
        return payload, b.prs_max

    def certify(req):
        e = fileio.load_ensemble(req["ensemble"])
        povm = fileio.load_povm(req["povm"])
        violations = solver.povm_violations(povm)
        if violations:
            return {"error": "POVM failed validation",
                    "violations": _violations(violations)}, "invalid-povm"
        cert = certificate.check(e, povm)
        payload = {
            "a": cert.a,
            "extremal_residuals": list(cert.extremal_residuals),
            "positivity_margins": [None if math.isnan(m) else m
                                   for m in cert.positivity_margins],
            "dual_bound": cert.dual_bound,
            "lambda_asymmetry": cert.lambda_asymmetry,
            "optimal": cert.optimal,
        }
        return payload, cert.optimal

    handlers = {"validate": validate, "bound": bound, "certify": certify}
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    requests = [(handlers[r["kind"]], r) for r in manifest["requests"]]

    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if command[:1] != ["go"]:
        return 0
    seconds = float(command[1])

    latencies: list[float] = []
    first: list | None = None
    consistent = True
    rounds = 0
    with open(manifest["records"], "w") as records:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        while True:
            records.seek(0)
            records.truncate()
            outcomes = []
            for handler, req in requests:
                start = time.perf_counter()
                try:
                    payload, outcome = handler(req)
                except Exception as exc:  # a failed request is reported, not fatal
                    payload, outcome = {"error": repr(exc)}, "error: " + type(exc).__name__
                records.write(fileio.dumps_json(
                    {"command": req["kind"], "request": req["id"], "result": payload}))
                latencies.append((time.perf_counter() - start) * 1e3)
                outcomes.append(outcome)
            rounds += 1
            if first is None:
                first = outcomes
            elif outcomes != first:
                consistent = False
            if time.perf_counter() - t0 >= seconds:
                break
        loop_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.finish()
    print(json.dumps({"rounds": rounds, "t0": t0, "loop_s": loop_s, "cpu_s": cpu_s,
                      "latencies_ms": latencies, "outcomes": first,
                      "consistent": consistent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
