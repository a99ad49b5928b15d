import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail any test that leaves a child process running, as the benchmark
    fails a run that does."""
    yield
    assert not multiprocessing.active_children(), "a test left a worker running"
