"""fluctlab forks in one place: the twin that tables, documents, sweeps and
loads share (_turns._Pair) is the one caller of os.fork and of os._exit, and
every call that kills or reaps it (os.kill, os.waitpid) is in _turns.py, so a
second copy of its lifecycle, with its own kill-and-reap paths, fails here.
The sources are read, never imported."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fluctlab").glob("*.py"))


def _sites(call: str) -> list:
    return [(path.name, n) for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1) if call in line]


@pytest.mark.parametrize("call", ["os.fork(", "os._exit("])
def test_one_call_site_in_the_package(call):
    sites = _sites(call)
    assert len(sites) == 1, sites


@pytest.mark.parametrize("call", ["os.kill(", "os.waitpid("])
def test_the_twin_is_killed_and_reaped_in_one_module(call):
    sites = _sites(call)
    assert sites and {name for name, _ in sites} == {"_turns.py"}, sites
