"""fluctlab forks in one place: the twin that tables, documents and sweeps
share (_turns._Pair) is the one caller of os.fork and of os._exit, so a
second copy of its lifecycle, with its own kill-and-reap paths, fails here.
The sources are read, never imported."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fluctlab").glob("*.py"))


@pytest.mark.parametrize("call", ["os.fork(", "os._exit("])
def test_one_call_site_in_the_package(call):
    sites = [f"{path.name}:{n}" for path in SOURCES
             for n, line in enumerate(path.read_text().splitlines(), 1) if call in line]
    assert len(sites) == 1, sites
