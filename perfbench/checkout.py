"""Locate the fnlab source of the checkout the benchmark runs in.

The benchmark must measure the library next to it, never an installed copy,
so it puts `<checkout>/src` first on the import path and refuses to run when
that directory holds no fnlab package.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Make `import fnlab` load <checkout>/src/fnlab; exit if it is missing."""
    if not (SRC / "fnlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fnlab package under {SRC}; "
                         "run the benchmark from the root of a repository checkout")
    sys.path.insert(0, str(SRC))


def check_loaded_from_checkout():
    import fnlab
    if Path(fnlab.__file__).resolve().parent != SRC / "fnlab":
        raise SystemExit(f"perfbench: imported fnlab from {fnlab.__file__}, not from {SRC}")


def environment() -> dict:
    """What a result depends on besides the code: scalar backend, Python, cores."""
    from fnlab.rationals import Q
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"backend": f"{Q.__module__}.{Q.__qualname__}",
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc}
