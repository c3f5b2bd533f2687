"""fluctlab benchmark: run one workload as a closed loop of `fluctlab`
commands, check every output, and print every metric by name and unit.

    python3 perfbench/run.py --workload bulk_csv --seed 1 --seconds 30 --trace 0

Run from the root of a fluctlab checkout; the program is imported from its
`src/`.  With --trace 0 each command runs in a fresh `python -m fluctlab.cli`
process, one at a time, and the end-to-end metrics of BENCHMARK.json are
reported.  With --trace 1 the same argv go through `fluctlab.cli.run` in this
process, alternating untraced passes with passes whose public functions are
wrapped in spans, and the per-layer metrics are reported.

The host's speed drifts by tens of percent within minutes, so every
fresh-process time is paired with a reference process (fixed stdlib and numpy
work, no fluctlab) spawned just before it.  wall_s, items_per_s and setup_s
are the medians of time / reference time, scaled by REFERENCE_S: seconds on a
host on which the reference takes REFERENCE_S.  The raw wall times are
printed and kept in the report beside them.  The last line of
stdout is the result as one JSON object; the full report (facts, per-command
numbers, spans) goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
SETUP_CODE = "import fluctlab.cli; fluctlab.cli.build_parser()"
IMPORT_CODE = "import fluctlab"

# Reference process: interpreter start, numpy import, float formatting, JSON
# round trip and FFTs -- the kinds of work the commands do, without fluctlab.
REFERENCE_CODE = """
import json
rows = [f"{i * 0.001!r},{i * 0.37!r},{i * 1e-3 / 7!r}\\n" for i in range(30000)]
json.loads(json.dumps([i / 7 for i in range(70000)]))
import numpy as np
wave = np.linspace(0.0, 1.0, 1 << 16) + 0j
for _ in range(20):
    np.fft.fft(wave)
"""
# Scale of the reported seconds: the reference's wall time on an idle host
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4).  It only scales; ratios are measured.
REFERENCE_S = 0.25

NOTES = (
    "Shared 2-vCPU virtual machine: wall-clock only, no page-cache dropping, no CPU pinning, "
    "no system-wide tracing. Commands run one at a time (closed loop, one client). Per-layer "
    "spans come from wrappers the benchmark installs around fluctlab's public functions, not "
    "from timers in the program; kernels bytes_out is computed as cells x 8, not measured; "
    "trace.overhead_s is within run-to-run noise where a pass records few spans. L3 size is "
    "what the virtualized CPU reports. bulk_csv uses a quarter of the ROADMAP sizes (501x501 "
    "scans, 250k samples) so that a run holds several passes. ROADMAP baseline check, made "
    "separately with its exact commands (Python 3.11.7, numpy 2.4.6): import 0.278 s median "
    "(baseline 0.275 s) and the 1001x1001 scan's peak RSS 234.8 MB (235 MB) agree; the "
    "1001x1001 scan took 2.65 s at first but 3.8-4.4 s (median 3.99 s) an hour later against "
    "2.5 s, and the 1M sample 4.0 s, then 4.3-5.0 s (median 4.57 s) against 3.5 s. The host's "
    "speed drifted by up to 60% within the hour, so the baseline's +-10% does not hold here. "
    "Raw wall times of ten-seed sets spread by 20-46% (quartile distance over median) when the "
    "host was busy, so wall_s, items_per_s and setup_s are normalised: each fresh-process time "
    "is divided by that of a reference process (fixed stdlib and numpy work, no fluctlab) "
    "spawned just before it, and the median ratio is scaled by reference_s. The raw medians "
    "(raw_wall_s, raw_setup_s) are reported beside them."
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLUCTLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(path) -> str:
    if path is None or not os.path.exists(path):
        return ""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


class Result(NamedTuple):
    wall: float
    rss_mb: float | None   # child peak RSS; None in-process
    code: int | None       # None when the CLI raised instead of returning
    stdout: str
    stderr: str


def spawn(argv, workdir: Path) -> Result:
    """Run argv to completion in a fresh process."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(), err_path.read_text())


class Paired(NamedTuple):
    result: Result
    ratio: float   # result.wall / wall time of the reference spawned just before


def spawn_paired(argv, workdir: Path) -> Paired:
    """Spawn the reference process, then argv; both run to completion."""
    reference = spawn([sys.executable, "-c", REFERENCE_CODE], workdir)
    if reference.code != 0:
        raise RuntimeError(f"reference process failed:\n{reference.stderr}")
    result = spawn(argv, workdir)
    return Paired(result, result.wall / reference.wall)


def in_child(action: str, spec, workdir: Path):
    """Run perfbench/helper.py in a child process and return its JSON answer."""
    spec_path = workdir / f"{action}.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(HERE / "helper.py"), action, str(spec_path)],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"helper {action} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


class Ledger:
    """Commands attempted and failed, with the reason for each failure.

    The first pass of a run goes through the oracle; every later pass must
    reproduce its output files and stdout byte for byte.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._reference = {}

    def record(self, command_id, code, stderr, problems=()):
        self.attempted += 1
        reasons = list(problems)
        if code != 0:
            reasons.append(f"exit code {code}")
        if "Traceback" in stderr:
            reasons.append("traceback on stderr")
        if reasons:
            self.failures.append({"command": command_id, "reasons": reasons})

    def judge(self, plan, results: dict, check) -> None:
        first = not self._reference
        if first:
            problems = check([{"id": c.id, "check": c.check, "output": c.output,
                               "stdout": results[c.id].stdout} for c in plan.commands])
        for command in plan.commands:
            result = results[command.id]
            fingerprint = (_digest(command.output), result.stdout)
            if first:
                self._reference[command.id] = fingerprint
                found = problems[command.id]
            elif fingerprint != self._reference[command.id]:
                found = ["output differs from the first pass"]
            else:
                found = []
            self.record(command.id, result.code, result.stderr, found)


class PassLoop:
    """Closed loop of passes: start another only if it should end within the budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.durations = []

    def more(self) -> bool:
        if not self.durations:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + _median(self.durations) <= self.seconds

    @contextlib.contextmanager
    def one(self):
        start = time.perf_counter()
        yield
        self.durations.append(time.perf_counter() - start)


def machine_facts(plan) -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "fluctlab"),
        "l3_size": l3.read_text().strip() if l3.exists() else None,
        "largest_array": plan.largest_array,
        "notes": NOTES,
    }


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# --- fresh-process run (end-to-end metrics) ----------------------------------

def run_fresh(plan, seconds: float, workdir: Path) -> dict:
    ledger = Ledger()
    program = in_child("prepare", list(plan.inputs), workdir)   # also compiles the .pyc files
    setup = []

    def measure_setup():
        setup.append(spawn_paired([sys.executable, "-c", SETUP_CODE], workdir))
        ledger.record("setup", setup[-1].result.code, setup[-1].result.stderr)

    loop = PassLoop(seconds)
    passes = []
    while loop.more():
        with loop.one():
            measure_setup()   # one per pass, so set-up is sampled across the whole run
            paired = {c.id: spawn_paired([sys.executable, "-m", "fluctlab.cli", *c.argv], workdir)
                      for c in plan.commands}
            ledger.judge(plan, {k: p.result for k, p in paired.items()},
                         lambda items: in_child("check", items, workdir))
            passes.append(paired)
    while len(setup) < SETUP_REPEATS:
        measure_setup()

    # Per-command medians resist a burst of host contention during one command.
    per_command = {
        c.id: {"wall_s": REFERENCE_S * _median([p[c.id].ratio for p in passes]),
               "raw_wall_s": _median([p[c.id].result.wall for p in passes]),
               "peak_rss_mb": _median([p[c.id].result.rss_mb for p in passes])}
        for c in plan.commands
    }
    wall_s = sum(c["wall_s"] for c in per_command.values())
    failed = len(ledger.failures)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": plan.work_items / wall_s,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in per_command.values()),
        "setup_s": REFERENCE_S * _median([p.ratio for p in setup]),
        "ok_ratio": 1.0 - failed / ledger.attempted,
    }
    raw = {
        "raw_wall_s": sum(c["raw_wall_s"] for c in per_command.values()),
        "raw_setup_s": _median([p.result.wall for p in setup]),
    }
    return {
        "metrics": metrics,
        "ledger": ledger,
        "raw": raw,
        "passes": len(passes),
        "pass_walls_s": [sum(p.result.wall for p in paired.values()) for paired in passes],
        "reference_s": REFERENCE_S,
        "per_command": per_command,
        "program": program,
    }


# --- in-process traced run (per-layer metrics) ---------------------------------

def _call_in_process(cli, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # a traceback the CLI did not turn into an exit code
        code = None
        err.write(traceback.format_exc())
    return Result(time.perf_counter() - start, None, code, out.getvalue(), err.getvalue())


def run_traced(plan, seconds: float, workdir: Path) -> dict:
    ledger = Ledger()
    imports = [spawn([sys.executable, "-c", IMPORT_CODE], workdir) for _ in range(SETUP_REPEATS)]
    for result in imports:
        ledger.record("import", result.code, result.stderr)

    sys.path.insert(0, str(SRC))
    import fluctlab.cli as cli
    import helper
    import instrument
    from spans import Tracer

    program = helper.program_facts()
    helper.prepare_inputs(plan.inputs)

    def one_pass(tracer):
        results = {}
        with instrument.instrumented(tracer) if tracer else contextlib.nullcontext():
            for command in plan.commands:
                if tracer:
                    tracer.command_id = f"{len(traced)}:{command.id}"
                results[command.id] = _call_in_process(cli, command.argv)
        ledger.judge(plan, results, helper.check_outputs)
        return sum(r.wall for r in results.values())

    loop = PassLoop(seconds)
    plain, traced, first_spans = [], [], None
    one_pass(None)  # warm-up: first allocations and lazy caches; its outputs go through the oracle
    while loop.more():
        with loop.one():
            # alternate which side of the pair runs first
            for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer = Tracer()
                    traced.append((one_pass(tracer), instrument.pass_metrics(tracer)))
                    first_spans = first_spans or tracer.spans
                else:
                    plain.append(one_pass(None))

    metrics, counts_exact = instrument.combine([m for _, m in traced])
    metrics["import.self_s"] = _median([r.wall for r in imports])
    metrics["trace.overhead_s"] = _median([w for w, _ in traced]) - _median(plain)
    return {
        "metrics": metrics,
        "ledger": ledger,
        "pairs": len(traced),
        "counts_repeat_exactly": counts_exact,
        "untraced_pass_walls_s": plain,
        "traced_pass_walls_s": [w for w, _ in traced],
        "program": program,
        "spans_fields": ["name", "start", "end", "parent", "command_id"],
        "spans": first_spans,
    }


# --- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fluctlab" / "cli.py").is_file():
        print(f"error: no fluctlab sources under {SRC}; run from a fluctlab checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    workdir = RUNS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.plan(args.workload, args.seed, str(workdir))
        report = (run_traced if args.trace else run_fresh)(plan, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in report["metrics"]]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    ledger = report.pop("ledger")
    failed = len(ledger.failures)
    values = {m["name"]: report["metrics"][m["name"]] for m in declared}
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    facts = {**machine_facts(plan), "program": report.pop("program"), "tolerances": workloads.TOLERANCES}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, params=plan.params,
                  work_items=plan.work_items, work_unit=plan.work_unit, attempted=ledger.attempted,
                  failures=ledger.failures, fail_ratio=failed / ledger.attempted, facts=facts)
    out_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1))

    print("facts " + json.dumps(facts))
    for failure in ledger.failures:
        print(f"FAILED {failure['command']}: {'; '.join(failure['reasons'])}")
    print(f"{args.workload} seed={args.seed}: {plan.work_items} {plan.work_unit}, report {out_path.name}")
    for m in declared:
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    for name, value in report.get("raw", {}).items():
        print(f"  {name:<44} {value:>16.6g} s (not normalised to the reference)")
    print(f"  {'fail_ratio':<44} {report['fail_ratio']:>16.6g} ratio ({failed}/{ledger.attempted} commands)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
