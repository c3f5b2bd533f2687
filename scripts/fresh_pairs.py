"""Run one fluctlab command in fresh processes from two source trees, in
alternating pairs, and compare their wall time and peak resident memory.

Each run is `python -m fluctlab.cli ARGV...` with PYTHONPATH set to the
tree's src/, stdout and stderr discarded, timed from its start to its exit;
its peak resident memory is the ru_maxrss that os.wait4 reports for it (a
forked twin's peak counts when it is higher).  Pair k runs the first tree
first when k is even and the second tree first when k is odd, so neither
side always meets the host's warmer or colder state.  The report gives each
side's median wall time and median peak RSS, and in how many pairs the
second tree was lower on each.

    python scripts/fresh_pairs.py BEFORE AFTER [--runs N] -- ARGV...

for example, from a copy of the parent commit and this tree:

    python scripts/fresh_pairs.py ../parent . --runs 10 -- audit --in ens.json

A run that exits with another code than the first run of its side is
reported, and the script exits 1; each side's median is still printed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def fresh_run(tree: Path, argv) -> tuple:
    """(wall seconds, peak RSS in MB, exit code) of one fresh command run from tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, "-m", "fluctlab.cli", *argv], env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, process.returncode  # ru_maxrss counts KiB on Linux


def pairs(trees, argv, runs: int) -> list:
    """runs pairs of fresh_run, one a tree, the first tree first in even pairs."""
    results = []
    for k in range(runs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = fresh_run(trees[side], argv)
        results.append(pair)
    return results


def report(results) -> tuple:
    """The report's lines, and whether every run exited as its side's first run did."""
    lines, same_codes = [], True
    for side, name in enumerate(("before", "after")):
        walls, peaks, codes = zip(*(pair[side] for pair in results))
        same_codes &= len(set(codes)) == 1
        lines.append(f"{name}: wall_s median {statistics.median(walls):.4f}, "
                     f"peak_rss_mb median {statistics.median(peaks):.2f}, exit codes {sorted(set(codes))}")
    n = len(results)
    lower_wall = sum(after[0] < before[0] for before, after in results)
    lower_rss = sum(after[1] < before[1] for before, after in results)
    lines.append(f"after lower: wall_s in {lower_wall} of {n}, peak_rss_mb in {lower_rss} of {n}")
    return lines, same_codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], epilog="then --, and the fluctlab arguments")
    parser.add_argument("before", type=Path, help="the first source tree (its src/ holds fluctlab)")
    parser.add_argument("after", type=Path, help="the second source tree")
    parser.add_argument("--runs", type=int, default=10, help="pairs to run (default 10)")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if not command or args.runs < 1:
        parser.error("need --runs >= 1 and a fluctlab command after --")
    lines, same_codes = report(pairs((args.before.resolve(), args.after.resolve()), command, args.runs))
    print("\n".join(lines))
    return 0 if same_codes else 1


if __name__ == "__main__":
    sys.exit(main())
