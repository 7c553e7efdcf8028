"""A picklable predictor factory that kills any pool worker calling it.

In the parent process it builds the ``b2`` preset; inside a worker
process it exits abruptly (``os._exit``), which breaks the whole
``ProcessPoolExecutor`` the way an OOM kill does.  Tests use it to drive
``ParallelRunner``'s ``BrokenProcessPool`` fallback.
"""

import multiprocessing
import os

from repro import presets


def b2_or_die():
    """Build ``b2`` in the parent; exit at once inside a worker."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return presets.build("b2")
