import json
import os
import tracemalloc
from types import SimpleNamespace

import pytest

from fluctlab import GridSpec, UnitSystem
from fluctlab import _reader
from fluctlab import io as fio


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
    """The pids of the twins forked during the test, with two CPUs offered whatever the host has,
    and a load of a file of any size sharing its values with a twin (_reader._FORK_BYTES 0)."""
    forked, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(_reader, "_FORK_BYTES", 0)
    return forked


@pytest.fixture
def load_reads(monkeypatch):
    """What this process reads of the files that fluctlab loads (_reader), in order;
    a forked twin's reads go to its own copy, and do not count.

    windows: (start, stop) in the file of the bytes each _Window.read returns, when it returns any.
    spans: (start, stop) of every other os.pread, by its offset and the bytes it returns.
    decoded: (start, stop) of each value that _Window.decoded decodes.
    handles: [path, characters read through the handle] for each file _reader opens.
    json_loads: the path of each file that json.load reads.
    whole(size): the windows of a walk that reads a file of size bytes to its end."""
    reads = SimpleNamespace(windows=[], spans=[], decoded=[], handles=[], json_loads=[])
    reads.whole = lambda size: [(i, min(i + _reader._WINDOW, size)) for i in range(0, size, _reader._WINDOW)]
    real_pread, real_read, real_decoded, real_load = os.pread, _reader._Window.read, _reader._Window.decoded, json.load
    in_read = []

    def counting_pread(fd, size, offset):
        data = real_pread(fd, size, offset)
        if not in_read:
            reads.spans.append((offset, offset + len(data)))
        return data

    def counting_read(window):
        in_read.append(window)
        try:
            data = real_read(window)
        finally:
            in_read.pop()
        if data:
            reads.windows.append((window.offset - len(data), window.offset))
        return data

    def counting_decoded(window, k, item):
        reads.decoded.append(tuple(item[1:]))
        return real_decoded(window, k, item)

    def counting_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        entry = [path, 0]
        reads.handles.append(entry)
        read = handle.read

        def counting_handle_read(*size):
            text = read(*size)
            entry[1] += len(text)
            return text

        handle.read = counting_handle_read
        return handle

    def counting_load(handle, *args, **kwargs):
        reads.json_loads.append(handle.name)
        return real_load(handle, *args, **kwargs)

    monkeypatch.setattr(os, "pread", counting_pread)
    monkeypatch.setattr(_reader._Window, "read", counting_read)
    monkeypatch.setattr(_reader._Window, "decoded", counting_decoded)
    monkeypatch.setattr(_reader, "open", counting_open, raising=False)
    monkeypatch.setattr(json, "load", counting_load)
    return reads


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
