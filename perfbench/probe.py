"""Set-up probe: import becbox.cli, then parse and validate config files.

    PYTHONPATH=src python perfbench/probe.py [--env] CONFIG...

The benchmark times this whole process as a workload's set-up.  With --env
(used on an untimed warm-up call) it also prints one JSON object describing
the numeric environment the workload commands run in.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy is linked against, None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def main(argv: list[str]) -> int:
    want_env = argv[:1] == ["--env"]
    paths = argv[1:] if want_env else argv
    import becbox.cli  # noqa: F401  (the import every command pays)
    from becbox.config import parse_config

    for path in paths:
        parse_config(path)  # parses and validates
    if want_env:
        print(json.dumps(environment(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
