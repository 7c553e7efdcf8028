"""Picklable predictor factories that fail inside pool workers.

In the parent process :func:`b2_or_die` and :func:`b2_or_raise` build the
``b2`` preset.  Inside a worker process the first exits abruptly
(``os._exit``), which breaks the whole ``ProcessPoolExecutor`` the way an
OOM kill does; the second raises, which fails only its own job.  Tests
use them to drive ``ParallelRunner``'s ``BrokenProcessPool`` fallback and
its in-parent rerun of a failed job.  :func:`never_builds` raises
everywhere.
"""

import multiprocessing
import os

from repro import presets


def b2_or_die():
    """Build ``b2`` in the parent; exit at once inside a worker."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return presets.build("b2")


def b2_or_raise():
    """Build ``b2`` in the parent; raise inside a worker."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("worker-side failure")
    return presets.build("b2")


def never_builds():
    raise RuntimeError("this predictor never builds")
