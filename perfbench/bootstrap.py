"""Process set-up shared by the benchmark's entry points.

Importing this module pins the BLAS/OpenMP thread pools to one thread, so
that ``TrainConfig.threads`` is the only parallelism. It must be imported
before numpy.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class CheckoutError(RuntimeError):
    """The working directory is not a checkout holding the package source."""


def import_xova():
    """Import ``xova`` from ``src/`` of the current directory, never elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "xova", "__init__.py")):
        raise CheckoutError(f"no package source at {src}/xova; run from the repository root")
    sys.path.insert(0, src)
    import xova
    import xova.cli  # not imported by the package itself

    if not os.path.abspath(xova.__file__).startswith(src + os.sep):
        raise CheckoutError(f"imported xova from {xova.__file__}, not from {src}")
    return xova
