"""A time bound on every test, so that a looping defect ends the run with a
traceback instead of hanging it.

Before each test, ``faulthandler.dump_traceback_later`` arms a watchdog that,
after ``LIMIT_S`` seconds, prints every thread's traceback and exits the
process; after the test it is cancelled.  The traceback goes to the stderr
the run started with, duplicated before output capture takes fd 2 over.
"""

import faulthandler
import os
import sys

import pytest

# above the longest timeout a test gives its own subprocesses (60 s)
LIMIT_S = 90.0

STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_bound(request):
    faulthandler.dump_traceback_later(LIMIT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
