"""fluctlab forks in one place: the twin that tables, documents, sweeps and
loads share (_turns._Pair) is the one caller of os.fork, and every call that
kills or reaps it (os.kill, os.waitpid) is in _turns.py, so a second copy of
its lifecycle, with its own kill-and-reap paths, fails here.  os._exit ends
the twin and, in cli.main, the command's own process, and nothing else.
The sources are read, never imported."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fluctlab").glob("*.py"))

SITES = {"os.fork(": ["_turns.py"], "os._exit(": ["_turns.py", "cli.py"]}


def _sites(call: str) -> list:
    return [(path.name, n) for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1) if call in line]


@pytest.mark.parametrize("call", SITES)
def test_one_call_site_in_the_package(call):
    """One site for each module named: os.fork in _Pair._fork, and os._exit in
    _Pair.end (the twin's end) and in cli.main (the process's end, after it
    flushes stdout and stderr).  The twin must not flush: it inherited, at the
    fork, whatever the parent's stdout buffer held then, and flushing would
    write those bytes a second time."""
    sites = _sites(call)
    assert [name for name, _ in sites] == SITES[call], sites


@pytest.mark.parametrize("call", ["os.kill(", "os.waitpid("])
def test_the_twin_is_killed_and_reaped_in_one_module(call):
    sites = _sites(call)
    assert sites and {name for name, _ in sites} == {"_turns.py"}, sites
