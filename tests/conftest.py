import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True, scope="session")
def private_cache_home(tmp_path_factory):
    """``XDG_CACHE_HOME`` at a temporary directory for the whole run, so that
    the matrix cache of in-process reads, and of CLI subprocesses, which
    inherit ``os.environ``, never touches the user's."""
    before = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache-home"))
    yield
    if before is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = before


@pytest.fixture
def traced_peak():
    """Bytes allocated at the peak of ``build()`` above what was allocated
    before it; numpy reports its buffers to ``tracemalloc``."""
    def measure(build) -> int:
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            build()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return measure
