"""Set-up probe: a fresh interpreter imports passquant and loads configs.

Usage: ``python3 probe.py <src dir> <config.json>...``.  Prints one JSON
line with the ``time.perf_counter`` reading at which the first unit could
start (the parent subtracts its own reading taken just before spawning;
both read the same monotonic clock) and the split of the import time.
"""

import json
import sys
import time


def main(argv):
    src, configs = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401

    t2 = time.perf_counter()
    import passquant
    from passquant import config

    t3 = time.perf_counter()
    for path in configs:
        config.load_config(path)
    t4 = time.perf_counter()
    print(json.dumps({
        "ready": t4,
        "passquant_file": passquant.__file__,
        "import.numpy_s": t1 - t0,
        "import.scipy_s": t2 - t1,
        "import.passquant_self_s": t3 - t2,
        "config.load_config.calls": len(configs),
        "config.load_config.busy_s": t4 - t3,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
