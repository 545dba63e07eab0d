"""Traced stand-in for ``python -m passquant.cli``.

Usage: ``python3 cli_traced.py <src dir> <trace out.json> <cli args>...``.
Times the imports, installs the span wrappers, calls ``cli.main(argv)``
and writes the spans to ``<trace out.json>`` when the call returns.  The
report on stdout and the exit code are those of the CLI.
"""

import json
import os
import sys
import time


def main(argv):
    src, out, cli_argv = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401

    t2 = time.perf_counter()
    from passquant import cli

    t3 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    tracer.install("passquant")
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({
                "imports": {
                    "import.numpy_s": t1 - t0,
                    "import.scipy_s": t2 - t1,
                    "import.passquant_self_s": t3 - t2,
                },
                "spans": tracer.spans,
                "hits": [[m, a, n] for (m, a), n in tracer.hits.items()],
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
