import tracemalloc

import pytest

from fluctlab import GridSpec, UnitSystem


@pytest.fixture
def units():
    return UnitSystem()


@pytest.fixture
def grid():
    return GridSpec(-12.0, 12.0, 1024)


@pytest.fixture
def peak_bytes():
    """peak_bytes(action, warm_up=True): the tracemalloc peak of one call of action.
    With warm_up, action runs once untraced first, so caches it fills are not counted."""

    def measure(action, warm_up=True):
        if warm_up:
            action()
        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
