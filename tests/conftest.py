import tracemalloc

import pytest


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
