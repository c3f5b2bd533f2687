import os
import tracemalloc

import pytest

from fluctlab import GridSpec, UnitSystem


@pytest.fixture(autouse=True)
def _default_h(monkeypatch):
    """Every test starts without FLUCTLAB_H, so an exported value cannot change its
    units; a test of the variable sets it itself."""
    monkeypatch.delenv("FLUCTLAB_H", raising=False)


@pytest.fixture(autouse=True)
def _no_child_left():
    """Every test ends with no child process of its own, running or exited: the
    forked twin of a table or a sweep is reaped before its call returns."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test (waitpid: pid {pid}, status {status}; pid 0 is one still running)")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the twins forked during the test, with two CPUs offered whatever the host has."""
    forked, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


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


@pytest.fixture
def same_text():
    """same_text(actual, expected): assert two texts are equal, comparing them as
    lists of lines (ends kept, so every byte counts) and reporting only the first
    line that differs; a plain == on long texts makes pytest diff them for minutes."""

    def check(actual, expected):
        got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        if got != want:
            i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
            got_line, want_line = (lines[i] if i < len(lines) else "<end of text>" for lines in (got, want))
            pytest.fail(f"line {i + 1} differs ({len(got)} lines against {len(want)} expected):\n"
                        f"  got      {got_line!r}\n  expected {want_line!r}", pytrace=False)

    return check
