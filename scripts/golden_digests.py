"""Golden digests of fluctlab's output: one SHA-256 per command of its exit
code, stdout, stderr and every file it writes (name and bytes).

The commands are the README's command block, in order; the three perfbench
workload plans at seed 1, their input ensembles included; and the flag
refusals of tests/test_exit_codes.py.  Each group runs in-process through
cli.run in a fresh temporary directory that is the working directory, so no
temporary path enters a digest.  The digests depend on numpy's random
streams and FFT, so the file records the numpy version that made them.

    PYTHONPATH=src python scripts/golden_digests.py    # rewrite tests/golden_digests.json

tests/test_golden.py compares a fresh run against that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden_digests.json"
SEED = 1


@contextlib.contextmanager
def _importable(*directories):
    """The directories on sys.path for the duration."""
    sys.path[:0] = map(str, directories)
    try:
        yield
    finally:
        del sys.path[: len(directories)]


def _files() -> dict:
    """{name: (inode, size, mtime)} of every file in the working directory."""
    return {e.name: (e.inode(), e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir()}


def _digest(code: int, out: str, err: str, written: list) -> str:
    """SHA-256 of the exit code, stdout, stderr and each written file's name
    and bytes, every part prefixed by its length."""
    sha = hashlib.sha256()
    parts = [str(code).encode(), out.encode(), err.encode()]
    for name in written:
        parts += [name.encode(), Path(name).read_bytes()]
    for part in parts:
        sha.update(b"%d:" % len(part))
        sha.update(part)
    return sha.hexdigest()


def _run(argv) -> str:
    """Run argv through cli.run here and digest what it did."""
    from fluctlab import cli

    before = _files()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    written = sorted(name for name, facts in _files().items() if before.get(name) != facts)
    return _digest(code, out.getvalue(), err.getvalue(), written)


@contextlib.contextmanager
def _scratch_dir():
    """A fresh temporary directory as the working directory, FLUCTLAB_H unset."""
    cwd, h = os.getcwd(), os.environ.pop("FLUCTLAB_H", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)
            if h is not None:
                os.environ["FLUCTLAB_H"] = h


def digests() -> dict:
    """{group/name: digest} for every golden command."""
    with _importable(ROOT, ROOT / "tests"):
        from perfbench import helper, workloads
        from test_exit_codes import REFUSALS
        from test_readme_examples import _readme_commands
    result = {}
    with _scratch_dir():
        for i, argv in enumerate(_readme_commands()):
            result[f"readme/{i:02d} {' '.join(argv[:2])}"] = _run(argv)
    for workload in workloads.WORKLOADS:
        with _scratch_dir():
            plan = workloads.plan(workload, seed=SEED, workdir="")
            before = _files()
            helper.prepare_inputs(plan.inputs)
            written = sorted(name for name, facts in _files().items() if before.get(name) != facts)
            if written:
                result[f"{workload}/inputs"] = _digest(0, "", "", written)
            for command in plan.commands:
                result[f"{workload}/{command.id}"] = _run(command.argv)
    for name, (argv, _) in REFUSALS.items():
        with _scratch_dir():
            result[f"refusals/{name}"] = _run([a.format(tmp=".") for a in argv])
    return result


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def main() -> int:
    document = {"numpy": numpy_version(), "seed": SEED, "digests": digests()}
    DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)} ({len(document['digests'])} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
