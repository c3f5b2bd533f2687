"""Run one fluctlab command in fresh processes from two source trees, in
alternating pairs, and compare their wall time, peak resident memory and
minor page faults.

Each run is `python -m fluctlab.cli ARGV...` with PYTHONPATH set to the
tree's src/, stdout and stderr discarded, timed from its start to its exit;
its peak resident memory is the ru_maxrss that os.wait4 reports for it (a
forked twin's peak counts when it is higher), and its minor page faults the
ru_minflt of the same call (a twin's faults are counted once it has been
waited for, as the command waits for its twin).  Pair k runs the first tree
first when k is even and the second tree first when k is odd, so neither
side always meets the host's warmer or colder state.  The report gives each
side's median wall time, median peak RSS and median minor faults, and in how
many pairs the second tree was lower on each.

    python scripts/fresh_pairs.py BEFORE AFTER [--runs N] -- ARGV...
    python scripts/fresh_pairs.py BEFORE AFTER [--runs N] --workload NAME [--seed S]

for example, from a copy of the parent commit and this tree:

    python scripts/fresh_pairs.py ../parent . --runs 10 -- audit --in ens.json
    python scripts/fresh_pairs.py ../parent . --runs 10 --workload bulk_csv --seed 7

With --workload, every command of perfbench/workloads.py's plan for that
workload and seed runs so, pair k running each command once in the plan's
order, writing into a temporary directory.  A plan's input files (the
ensembles that state_files audits) are made once, before the first pair, by
`perfbench/helper.py prepare` in a process that runs the first tree's
fluctlab, so both trees read the same files.  The report gives each
command's lines, then the workload's: each side's summed median wall time
and highest median peak RSS over its commands, combined as perfbench
combines its end-to-end wall_s and peak_rss_mb (without its reference
normalisation), and in how many pairs the second tree's summed wall time
and highest peak were lower.

A run that exits with another code than the first run of its side is
reported, and the script exits 1; each side's median is still printed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fresh_run(tree: Path, argv) -> tuple:
    """(wall seconds, peak RSS in MB, minor page faults, exit code) of one fresh command run from tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, "-m", "fluctlab.cli", *argv], env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, process.returncode  # ru_maxrss counts KiB on Linux


def one_pair(trees, argv, k: int) -> list:
    """fresh_run of argv from each tree, the first tree first when k is even."""
    pair = [None, None]
    for side in (0, 1) if k % 2 == 0 else (1, 0):
        pair[side] = fresh_run(trees[side], argv)
    return pair


def report(results) -> tuple:
    """The report's lines, and whether every run exited as its side's first run did."""
    lines, same_codes = [], True
    for side, name in enumerate(("before", "after")):
        walls, peaks, faults, codes = zip(*(pair[side] for pair in results))
        same_codes &= len(set(codes)) == 1
        lines.append(f"{name}: wall_s median {statistics.median(walls):.4f}, "
                     f"peak_rss_mb median {statistics.median(peaks):.2f}, "
                     f"minor_faults median {statistics.median(faults):.0f}, exit codes {sorted(set(codes))}")
    n = len(results)
    lower_wall = sum(after[0] < before[0] for before, after in results)
    lower_rss = sum(after[1] < before[1] for before, after in results)
    lower_faults = sum(after[2] < before[2] for before, after in results)
    lines.append(f"after lower: wall_s in {lower_wall} of {n}, peak_rss_mb in {lower_rss} of {n}, "
                 f"minor_faults in {lower_faults} of {n}")
    return lines, same_codes


def combined(per_command) -> list:
    """The workload's lines from each command's pairs (all of one count):
    each side's summed median wall time and highest median peak RSS."""
    lines = []
    for side, name in enumerate(("before", "after")):
        walls = [statistics.median(pair[side][0] for pair in results) for results in per_command.values()]
        peaks = [statistics.median(pair[side][1] for pair in results) for results in per_command.values()]
        lines.append(f"workload {name}: wall_s {sum(walls):.4f}, peak_rss_mb {max(peaks):.2f}")
    pairs = list(zip(*per_command.values()))  # pair k of every command
    n = len(pairs)
    lower_wall = sum(sum(p[1][0] for p in pair) < sum(p[0][0] for p in pair) for pair in pairs)
    lower_rss = sum(max(p[1][1] for p in pair) < max(p[0][1] for p in pair) for pair in pairs)
    lines.append(f"workload after lower: wall_s in {lower_wall} of {n}, peak_rss_mb in {lower_rss} of {n}")
    return lines


def workload_commands(name: str, seed: int, workdir: str, tree: Path) -> dict:
    """The argv of each command of perfbench's plan for a workload and seed,
    by command id, once the plan's input files are made in workdir by tree's
    fluctlab."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    if name not in workloads.WORKLOADS:
        raise ValueError(f"no workload {name!r}; there are {', '.join(workloads.WORKLOADS)}")
    plan = workloads.plan(name, seed, workdir)
    if plan.inputs:
        make_inputs(tree, plan.inputs, workdir)
    return {command.id: command.argv for command in plan.commands}


def make_inputs(tree: Path, inputs, workdir: str) -> None:
    """Write a plan's input files with perfbench/helper.py prepare, run by tree's fluctlab."""
    spec = os.path.join(workdir, "inputs.json")
    with open(spec, "w") as handle:
        json.dump(list(inputs), handle)
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "helper.py"), "prepare", spec],
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        raise ValueError(f"perfbench/helper.py prepare with {tree / 'src'} exited {done.returncode}: "
                         f"{(done.stderr.strip().splitlines() or [''])[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], epilog="then --, and the fluctlab arguments")
    parser.add_argument("before", type=Path, help="the first source tree (its src/ holds fluctlab)")
    parser.add_argument("after", type=Path, help="the second source tree")
    parser.add_argument("--runs", type=int, default=10, help="pairs to run (default 10)")
    parser.add_argument("--workload", help="run every command of this perfbench workload instead of one command")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if args.runs < 1 or bool(command) == bool(args.workload):
        parser.error("need --runs >= 1 and either a fluctlab command after -- or --workload")
    trees = (args.before.resolve(), args.after.resolve())
    if not args.workload:
        lines, same_codes = report([one_pair(trees, command, k) for k in range(args.runs)])
        print("\n".join(lines))
        return 0 if same_codes else 1
    with tempfile.TemporaryDirectory() as workdir:
        try:
            commands = workload_commands(args.workload, args.seed, workdir, trees[0])
        except ValueError as error:
            parser.error(f"--workload: {error}")
        per_command = {name: [] for name in commands}  # pair k runs every command once, in the plan's order
        for k in range(args.runs):
            for name, command in commands.items():
                per_command[name].append(one_pair(trees, command, k))
    same_codes = True
    for name, results in per_command.items():
        lines, same = report(results)
        same_codes &= same
        print("\n".join([f"{name}:", *lines]))
    print("\n".join(combined(per_command)))
    return 0 if same_codes else 1


if __name__ == "__main__":
    sys.exit(main())
