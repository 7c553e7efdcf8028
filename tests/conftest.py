"""Fixtures shared by the worker-pool tests."""

import multiprocessing

import pytest


@pytest.fixture
def pool_starts(monkeypatch):
    """A list that grows by one entry per worker pool the runner starts."""
    import repro.eval.parallel as parallel_mod

    starts = []

    class CountingPool(parallel_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.fixture
def new_children():
    """Returns the child processes started since the test began and alive."""
    before = set(multiprocessing.active_children())
    return lambda: set(multiprocessing.active_children()) - before
