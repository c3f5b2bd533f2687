"""The forked twin's one channel (_turns._shared): the twin sends the odd items
back over its pipe, and only this process yields them or writes them out."""

import fcntl
import io
import os
import pickle

import pytest

from fluctlab import _turns


def test_any_handle_gets_every_block(forks):
    """The twin's blocks reach the handle through this process, so a handle the
    twin could never write for it, such as a StringIO, still gets all five."""
    handle = io.StringIO()
    doc = _turns.Blocks("head\n", "tail\n", lambda k, block: f"{k} {block[0]}\n", [[f"row{b}"] for b in range(5)])
    _turns.write_blocks(handle, doc)
    assert handle.getvalue() == "head\n" + "".join(f"{b} row{b}\n" for b in range(5)) + "tail\n"
    assert len(forks) == 1


def _value(k, item):
    """A value larger than a default 64 KiB pipe, so the twin's sends can fill it."""
    return k, item, str(item) * 100_000


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("how", ["two CPUs", "one CPU", "pipe size refused"])
def test_shared_yields_the_serial_values(forks, monkeypatch, how, n):
    """Forked at the second item, and only where two CPUs are free; a refused
    pipe size leaves the default pipe, and the same values."""
    resized = []
    if how == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif how == "pipe size refused":
        def refuse(fd, cmd, arg):
            resized.append(cmd)
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(fcntl, "fcntl", refuse)
    assert list(_turns._shared(_value, iter(range(n)))) == [_value(k, x) for k, x in enumerate(range(n))]
    assert len(forks) == (how != "one CPU" and n >= 2)
    assert resized == ([fcntl.F_SETPIPE_SZ] * len(forks) if how == "pipe size refused" else [])


def test_a_twin_that_dies_within_a_value_leaves_it_to_this_process(forks, monkeypatch):
    """Half a pickle, then the pipe closes: this process reaps the twin and
    computes that item and every later one, so the values are the serial ones."""
    def send_half(pair, value):
        data = pickle.dumps(value)
        os.write(pair.pipe.fileno(), data[: len(data) // 2])
        os.kill(os.getpid(), 9)  # SIGKILL

    monkeypatch.setattr(_turns._Pair, "send", send_half)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert list(_turns._shared(_value, iter(range(5)))) == [_value(k, x) for k, x in enumerate(range(5))]
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors


def _outcome(values) -> tuple:
    """The values a loop yields before it ends, and its error's message, None when it finishes."""
    got = []
    try:
        for value in values:
            got.append(value)
    except ValueError as exc:
        return got, str(exc)
    return got, None


FAILURES = {
    "twin's item": ({3}, "both"),
    "own item": ({4}, "both"),
    "twin's item, then own": ({3, 4}, "both"),
    "last item, the twin's": ({5}, "both"),
    "the items": ({"items"}, "both"),
    "in the twin only": ({3}, "twin"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_a_failure_gives_the_serial_values_then_its_error(forks, case):
    """An item that fails in both processes, or items that end in an error,
    give the values before the first failing item, then its error, as the
    serial loop does; an item that fails only in the twin is computed here."""
    fails, where = FAILURES[case]
    parent = os.getpid()

    def fn(k, item):
        if k in fails and (where == "both" or os.getpid() != parent):
            raise ValueError(f"item {k}")
        return _value(k, item)

    def items():
        yield from range(4 if "items" in fails else 6)
        if "items" in fails:
            raise ValueError("the items")

    descriptors = len(os.listdir("/proc/self/fd"))
    assert _outcome(_turns._shared(fn, items())) == _outcome(fn(k, x) for k, x in enumerate(items()))
    assert len(forks) == 1
    assert len(os.listdir("/proc/self/fd")) == descriptors
