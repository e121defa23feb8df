"""Run the povmlab command line in this process with the per-layer tracer.

Usage: python3 bench/traced_cli.py TRACE_OUT ARGS...

ARGS are the arguments of ``povmlab``; the spans and counters go to
TRACE_OUT when the command returns, and the exit code is the command's.
"""

import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    import povmlab.cli

    code = povmlab.cli.main(sys.argv[2:])
    tracer.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
