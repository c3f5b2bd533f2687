"""Exit codes by error class, and bad inputs that must end in a documented
exit code rather than a Python traceback.

Every case runs in-process through cli.run, as every other command-line test
does: an exception that escapes it, or a RuntimeWarning (an error under this
suite's warning filter), fails the test by itself.  Only the entry-point
tests start fresh `python -m fluctlab.cli` processes, one per exit code, a
table to stdout, and three that end with stdout gone or under cProfile,
because only a real process shows main()'s wiring, how it ends and its exit
status; so do the SIGTERM tests, and the out-of-memory tests, whose address
space is capped in the child alone, above what one more fresh interpreter
measures after the imports."""

import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from test_cli_fuzz import NON_FINITE

import fluctlab
from fluctlab import _reader, cli, errors
from fluctlab import io as fio
from fluctlab.states import GaussianPacket, GridSpec, PureState, UnitSystem, build_state

SRC = os.path.dirname(os.path.dirname(fluctlab.__file__))
NUMERICAL = {"DecayGuardViolation", "TruncationError", "ResolutionError", "NumericalFailure"}
ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.FluctLabError) and cls is not errors.FluctLabError),
    key=lambda cls: cls.__name__,
)


@pytest.fixture
def state_file(tmp_path):
    units = UnitSystem()
    path = str(tmp_path / "s.json")
    fio.save_state(path, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 256), units), units)
    return path


TINY_PEAK_FLAGS = ["--h", "1e-320", "--var-x", "1e-320", "--var-p", "1e-320"]

BAD_INPUTS = {
    "audit-epsilon": (["audit", "--in", "{state}", "--epsilon", "0.5"], 2),
    "eigensweep-epsilon": (["scenario", "eigensweep", "--n-max", "2", "--grid", "-15:15:256",
                            "--epsilon", "0.5"], 2),
    "thermalsweep-epsilon": (["scenario", "thermalsweep", "--temperatures", "0.5", "--n-max", "40",
                              "--grid", "-15:15:256", "--epsilon", "0.5"], 2),
    "sample-negative-seed": (["density", "sample", "--var-x", "1", "--var-p", "1", "--count", "10",
                              "--seed", "-1", "--out", "{tmp}/draws.csv"], 2),
    "walk-negative-seed": (["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "10",
                            "--step-size", "0.05", "--seed", "-1"], 2),
    "extremize-ratio-underflow": (["density", "extremize", "--x", "1e-320", "--p", "1e308"], 3),
    "verify-ratio-underflow": (["density", "verify", "--x", "1e-320", "--p", "1e308"], 3),
    "extremize-ratio-overflow": (["density", "extremize", "--x", "1e308", "--p", "1e-320"], 3),
    "verify-exponent-overflow": (["density", "verify", "--x", "1e200", "--p", "1e-100"], 3),
    "abbreviated-top-level-h": (["--h", "-1", "density", "eval", "--var-x", "1", "--var-p", "1",
                                 "--x", "0", "--p", "0"], 1),
    "audit-deeply-nested-file": (["audit", "--in", "{tmp}/deep.json", "--out", "{tmp}/draws.csv"], 2),
    "sample-infinite-variance": (["density", "sample", "--var-x", "inf", "--var-p", "1", "--count", "3",
                                  "--seed", "1", "--out", "{tmp}/draws.csv"], 2),
    "coherent-infinite-mass": (["state", "--coherent", "1,1", "--mass", "inf", "--grid", "-12:12:256",
                                "--out", "{tmp}/draws.csv"], 2),
    "eval-far-point": (["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "1e200", "--p", "0"], 0),
    "state-empty-out": (["state", "--gaussian", "--grid=-10:10:256", "--out", ""], 1),
    "eval-point-with-empty-out": (["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0",
                                   "--out", ""], 1),
    "eval-point-with-out": (["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0",
                             "--out", "{tmp}/draws.csv"], 2),
    "gaussian-tiny-sigma": (["state", "--gaussian", "--sigma", "1e-200", "--grid", "-12:12:256",
                             "--out", "{tmp}/draws.csv"], 2),
    "gaussian-huge-sigma": (["state", "--gaussian", "--sigma", "1e200", "--grid", "-12:12:256",
                             "--out", "{tmp}/draws.csv"], 2),
    "normcheck-huge-box": (["density", "normcheck", "--reduced", "--box-half-width", "1e200"], 3),
    "normcheck-tiny-box": (["density", "normcheck", "--reduced", "--box-half-width", "1e-320"], 2),
    "normcheck-huge-half-width": (["density", "normcheck", "--var-x", "1", "--var-p", "1",
                                   "--half-width", "1e308"], 3),
    "sample-huge-h": (["density", "sample", "--h", "1e300", "--var-x", "1e300", "--var-p", "1e300",
                       "--count", "3", "--seed", "1", "--out", "{tmp}/admitted.csv"], 0),
    "eval-huge-h-below-bound": (["density", "eval", "--h", "1e300", "--var-x", "1e200", "--var-p", "1e200",
                                 "--x", "0", "--p", "0"], 2),
    "eval-tiny-h-below-bound": (["density", "eval", "--h", "1e-300", "--var-x", "1e-310", "--var-p", "1e-310",
                                 "--x", "0", "--p", "0"], 2),
    "state-unmeasurable-momentum": (["state", "--gaussian", "--grid", "-12:12:8", "--h", "1.7976931348623157e308",
                                     "--out", "{tmp}/draws.csv"], 2),
    "strict-below-bound-out": (["audit", "--in", "{tmp}/spike.json", "--strict", "--out", "{tmp}/draws.csv"], 2),
    "reduced-nan-mean": (["density", "eval", "--reduced", "--mean-x", "nan", "--x", "0", "--p", "0"], 2),
    "reduced-scan-nan-mean": (["density", "eval", "--reduced", "--mean-x", "nan", "--scan-x=-1:1:3",
                               "--scan-p=-1:1:3", "--out", "{tmp}/draws.csv"], 2),
    "reduced-separation-overflow": (["density", "eval", "--reduced", "--mean-x=-1e308", "--x", "1e308",
                                     "--p", "0"], 2),
    "reduced-rate-overflow": (["density", "eval", "--reduced", "--h", "1e-320", "--x", "0", "--p", "0"], 2),
    "extremize-nan-mean": (["density", "extremize", "--mean-x", "nan", "--x", "1", "--p", "1"], 2),
    "verify-nan-mean": (["density", "verify", "--mean-x", "nan", "--x", "1", "--p", "1"], 2),
    "scan-axis-span-overflow": (["density", "eval", "--var-x", "1", "--var-p", "1", "--scan-x=-1.5e308:1.5e308:3",
                                 "--scan-p=-1:1:2", "--out", "{tmp}/draws.csv"], 2),
    "scan-axis-end-rounds-up": (["density", "eval", "--var-x", "1", "--var-p", "1", "--scan-x=-12:12:8",
                                 "--scan-p=-1.7976931348623157e308:1:8", "--out", "{tmp}/draws.csv"], 2),
    "state-grid-span-overflow": (["state", "--gaussian", "--grid=-1.5e308:1.5e308:64",
                                  "--out", "{tmp}/draws.csv"], 2),
    "gaussian-phase-overflow": (["state", "--gaussian", "--momentum", "1", "--h", "1e-310", "--grid", "-12:12:64",
                                 "--out", "{tmp}/draws.csv"], 2),
    "audit-momentum-square-overflow": (["audit", "--in", "{state}", "--h", "1e200", "--out", "{tmp}/draws.csv"], 2),
    "audit-delta-t-overflow": (["audit", "--in", "{state}", "--delta-e", "1e-320", "--out", "{tmp}/draws.csv"], 2),
    "walk-product-overflow": (["scenario", "walk", "--var-x", "1e300", "--var-p", "1e300", "--steps", "2",
                               "--step-size", "0.1", "--seed", "1"], 0),
    # the peak 1/(2*pi*dx*dp) overflows; sample and walk never use it
    "eval-infinite-peak": (["density", "eval", *TINY_PEAK_FLAGS, "--x", "0", "--p", "0"], 2),
    "scan-infinite-peak": (["density", "eval", *TINY_PEAK_FLAGS, "--scan-x=-1:1:3", "--scan-p=-1:1:3",
                            "--out", "{tmp}/draws.csv"], 2),
    "normcheck-infinite-peak": (["density", "normcheck", *TINY_PEAK_FLAGS], 2),
    "sample-infinite-peak": (["density", "sample", *TINY_PEAK_FLAGS, "--count", "3", "--seed", "1",
                              "--out", "{tmp}/admitted.csv"], 0),
    "walk-infinite-peak": (["scenario", "walk", *TINY_PEAK_FLAGS, "--steps", "3", "--step-size", "0.1",
                            "--seed", "1"], 0),
    "state-product-overflow": (["state", "--gaussian", "--sigma", "1e5", "--grid=-2e6:2e6:4096",
                                "--h", "6.283185307179586e155", "--out", "{tmp}/admitted.json"], 0),
    "state-product-underflow": (["state", "--gaussian", "--sigma", "1e-150", "--grid=-1.2e-149:1.2e-149:256",
                                 "--h", "1e-300", "--out", "{tmp}/admitted.json"], 0),
    "eigenstate-hermite-argument-overflow": (["state", "--h", "1e-320", "--eigenstate", "1", "--grid=-5:5:64",
                                              "--out", "{tmp}/draws.csv"], 2),
    "eigenstate-hermite-square-overflow": (["state", "--omega", "1.7976931348623157e308", "--eigenstate", "1",
                                            "--grid=-5:5:64", "--out", "{tmp}/draws.csv"], 2),
    "eigenstate-huge-grid": (["state", "--eigenstate", "1", "--grid=1.0:1e+300:8", "--out", "{tmp}/draws.csv"], 3),
    "gaussian-position-square-overflow": (["state", "--gaussian", "--sigma", "1e153", "--grid=-1e155:1e155:1024",
                                           "--out", "{tmp}/draws.csv"], 2),
    # hbar*k underflows: var_p is subnormal (a product 4.5% high) or 0 (a product of 0)
    "audit-subnormal-momentum-variance": (["audit", "--in", "{state}", "--h", "1e-160", "--out", "{tmp}/draws.csv"], 2),
    "audit-momentum-variance-underflow": (["audit", "--in", "{state}", "--h", "1e-170", "--out", "{tmp}/draws.csv"], 2),
    "audit-momenta-underflow": (["audit", "--in", "{state}", "--h", "1e-320", "--out", "{tmp}/draws.csv"], 2),
    "state-momentum-variance-underflow": (["state", "--gaussian", "--h", "1e-170", "--grid", "-12:12:256",
                                           "--out", "{tmp}/draws.csv"], 2),
}


@pytest.mark.parametrize("argv, code", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_without_traceback(argv, code, state_file, tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100_000)
    spike = np.zeros(8, dtype=complex)
    spike[4] = 1.0
    fio.save_state(str(tmp_path / "spike.json"), PureState(GridSpec(-4.0, 4.0, 8), spike), UnitSystem())
    inputs = set(tmp_path.iterdir())
    exit_code = cli.run([a.format(state=state_file, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert exit_code == code, err
    assert not (tmp_path / "draws.csv").exists()
    if code in (2, 3):
        assert re.fullmatch(r"error: .+\n", err), err
    if code == 0:  # a run that exits 0 prints and writes only finite numbers
        written = "".join(path.read_text() for path in set(tmp_path.iterdir()) - inputs)
        assert not NON_FINITE.search(out + written), (out, written[:500])


CLI = [sys.executable, "-m", "fluctlab.cli"]
ENTRY_POINT = {key: BAD_INPUTS[key] for key in
               ["eval-far-point", "abbreviated-top-level-h", "sample-negative-seed", "eigenstate-huge-grid"]}
# rows to stdout in blocks of 4096, 4096 and 1: the twin formats the second, and the third
# (about 50 bytes) is still buffered when run returns, so only main's flush writes it
ENTRY_POINT["walk-table-to-stdout"] = (["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "8192",
                                        "--step-size", "0.05", "--seed", "7"], 0)
EVAL_POINT = ENTRY_POINT["eval-far-point"][0]


def _fresh_env() -> dict:
    """The test process's environment for a fresh process, with src on the path,
    no FLUCTLAB_H and no PYTHONUNBUFFERED, so stdout is block-buffered as in a
    user's pipe or file, whoever runs the suite."""
    env = {name: value for name, value in os.environ.items() if name not in ("FLUCTLAB_H", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def entry_point_runs(tmp_path_factory):
    """{key: (argv, exit status, stdout, stderr)} of each ENTRY_POINT case run as
    `python -m fluctlab.cli`, and of `density eval` point mode ended three more
    ways: its stdout a pipe whose reader is gone ("closed-pipe", stdout None),
    its stdout descriptor closed ("closed-stdout"), and run under cProfile
    ("cprofile"); all in fresh processes started together."""
    tmp = tmp_path_factory.mktemp("entry-point")
    env = _fresh_env()  # a module fixture runs before the autouse one that drops FLUCTLAB_H

    def start(command, stdout=subprocess.PIPE):
        return subprocess.Popen(command, env=env, text=True, stdout=stdout, stderr=subprocess.PIPE)

    started = {}
    for key, (argv, _) in ENTRY_POINT.items():
        argv = [a.format(tmp=tmp) for a in argv]
        started[key] = argv, start([*CLI, *argv])
    read, write = os.pipe()
    os.close(read)
    try:
        started["closed-pipe"] = EVAL_POINT, start([*CLI, *EVAL_POINT], stdout=write)
    finally:
        os.close(write)
    started["closed-stdout"] = EVAL_POINT, start(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *EVAL_POINT])
    started["cprofile"] = EVAL_POINT, start([sys.executable, "-m", "cProfile", *CLI[1:], *EVAL_POINT])
    runs = {}
    for key, (argv, process) in started.items():
        out, err = process.communicate(timeout=60)
        runs[key] = argv, process.returncode, out, err
    return runs


@pytest.mark.parametrize("key", ENTRY_POINT)  # exits 0, 1, 2 and 3
def test_entry_point_exits_with_the_code_run_returns(key, entry_point_runs, capsys):
    """The exit status is run's code, and every byte run prints reaches buffered stdout and stderr."""
    argv, status, out, err = entry_point_runs[key]
    assert status == cli.run(argv) == ENTRY_POINT[key][1], err
    assert capsys.readouterr() == (out, err)


def test_a_failed_flush_at_exit_is_reported_by_the_interpreter(entry_point_runs):
    """Buffered stdout into a pipe with no reader: main's flush fails, so the
    interpreter's own exit flushes again, reports it and exits 120."""
    _, status, _, err = entry_point_runs["closed-pipe"]
    assert status == 120
    assert re.fullmatch(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>' mode='w' encoding='[^']+'>\n"
                        r"BrokenPipeError: \[Errno 32\] Broken pipe\n", err), err


def test_a_closed_stdout_exits_with_the_code_run_returns(entry_point_runs):
    _, status, out, err = entry_point_runs["closed-stdout"]  # sys.stdout is None: print writes nothing
    assert (status, out, err) == (0, "", "")


def test_a_profiled_command_still_prints_its_profile(entry_point_runs, capsys):
    """Under cProfile main ends through sys.exit, which the profiler catches to print its table."""
    argv, status, out, err = entry_point_runs["cprofile"]
    assert cli.run(argv) == status == 0, err
    printed, profile = out.split("\n", 1)
    assert (f"{printed}\n", err) == capsys.readouterr()
    assert re.search(r"\d+ function calls .*in [\d.]+ seconds", profile), profile
    assert "(main)" in profile


@pytest.mark.parametrize("target", ["command", "twin"])
def test_sigterm_leaves_no_temp_file_and_no_child(tmp_path, target):
    """A terminated command still cleans up: main turns SIGTERM into an exception,
    so the temp file is unlinked and the twin killed and reaped, then the process
    ends by the signal.  The default action alone left 26-39 MB behind.  A twin
    sent SIGTERM exits 1, and the command reaps it and makes every later block
    itself: once it has, the command is terminated in turn, so the test need
    not wait out its 20M draws.  The signal waits for the first MiB of the
    file, by when the twin has sent a block: Python drops a signal that
    reaches a forked child before its after-fork cleanup, and 1 run in 20
    lost it that way."""
    forks = len(os.sched_getaffinity(0)) >= 2  # the command's twin is forked at its second block
    if target == "twin" and not forks:
        pytest.skip("with one CPU the command forks no twin")
    env = _fresh_env()
    argv = ["density", "sample", "--var-x", "1", "--var-p", "1", "--count", "20000000", "--seed", "1",
            "--out", str(tmp_path / "x.csv")]
    process = subprocess.Popen([*CLI, *argv], env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    twins, deadline = [], time.monotonic() + 60
    try:
        while time.monotonic() < deadline and not (
            sum(tmp.stat().st_size for tmp in tmp_path.glob(".fluctlab-*.tmp")) >= 2**20 and len(twins) >= forks
        ):
            time.sleep(0.01)
            with open(f"/proc/{process.pid}/task/{process.pid}/children") as children:
                twins = children.read().split()
        if target == "twin":
            os.kill(int(twins[0]), signal.SIGTERM)
            while time.monotonic() < deadline and os.path.exists(f"/proc/{twins[0]}"):  # until the command reaps it
                time.sleep(0.01)
            assert not os.path.exists(f"/proc/{twins[0]}") and process.poll() is None, "the command did not reap its twin and go on alone"
        os.kill(process.pid, signal.SIGTERM)
        out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert (process.returncode, out, err) == (-signal.SIGTERM, "", "")
    assert len(twins) == forks
    assert list(tmp_path.iterdir()) == []
    assert not [pid for pid in twins if os.path.exists(f"/proc/{pid}")]


# sizes within io.MAX_ROWS that the capped address space cannot hold
OUT_OF_MEMORY = {
    "state": ["state", "--gaussian", "--grid=-40:40:33554432", "--out", "{tmp}/big.json"],
    "eigensweep": ["scenario", "eigensweep", "--n-max", "3", "--grid=-40:40:33554432"],
}
HEADROOM = 384 * 2**20  # above the imports: one 2^25-point float array (256 MiB) fits, a second does not
PROBE = "import fluctlab.cli, fluctlab.io, fluctlab.scenarios; print(open('/proc/self/status').read())"


def _address_space(env: dict) -> int:
    """The address space (VmSize, bytes) of a fresh interpreter once it has
    imported numpy and what the commands import: it depends on the host's
    numpy build and libraries, so the cap is set above it."""
    status = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout
    return int(re.search(r"^VmSize:\s+(\d+) kB$", status, re.M)[1]) * 1024


def _session(sid: int) -> list:
    """The pids of the processes left in session sid."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()  # state, ppid, pgrp, session, ...
        except (FileNotFoundError, ProcessLookupError):  # it ended
            continue
        if int(fields[3]) == sid:
            pids.append(int(pid))
    return pids


@pytest.fixture(scope="module")
def out_of_memory_runs(tmp_path_factory):
    """{key: (tmp, pid, exit status, stdout, stderr)} of each OUT_OF_MEMORY case run
    as `python -m fluctlab.cli` in a session of its own, all started together,
    with its address space capped at HEADROOM above _address_space, in the
    child only, before it runs Python.  One BLAS thread, as the address space
    an OpenBLAS thread reserves grows with the host's CPUs."""
    env = {**_fresh_env(), "OPENBLAS_NUM_THREADS": "1"}
    cap = _address_space(env) + HEADROOM
    started = {}
    for key, argv in OUT_OF_MEMORY.items():
        tmp = tmp_path_factory.mktemp(f"out-of-memory-{key}")
        started[key] = tmp, subprocess.Popen([*CLI, *(a.format(tmp=tmp) for a in argv)], env=env, text=True,
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                             preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
                                             start_new_session=True)
    runs = {}
    for key, (tmp, process) in started.items():
        out, err = process.communicate(timeout=60)
        runs[key] = tmp, process.pid, process.returncode, out, err
    return runs


@pytest.mark.parametrize("key", OUT_OF_MEMORY)
def test_out_of_memory_exits_2_with_numpys_message(key, out_of_memory_runs):
    """A MemoryError is refused as a bad input is: one error line, no traceback, no file, no child."""
    tmp, pid, status, out, err = out_of_memory_runs[key]
    assert (status, out) == (2, ""), err
    assert re.fullmatch(r"error: Unable to allocate [^\n]+\n", err), err
    assert list(tmp.iterdir()) == []
    assert _session(pid) == []


@pytest.mark.parametrize("exc, message", [(MemoryError(), "out of memory"),
                                          (MemoryError("Unable to allocate 1 MiB"), "Unable to allocate 1 MiB")],
                         ids=["no-text", "numpy-text"])
def test_out_of_memory_in_a_load_exits_2(exc, message, forks, monkeypatch, tmp_path, capsys):
    """The error comes at psi_re, after the twin is forked (at the grid); the
    twin fails too, and is killed and reaped (the autouse fixture checks)."""
    path = str(tmp_path / "s.json")
    units = UnitSystem()
    fio.save_state(path, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 256), units), units)
    forks.clear()
    real = _reader._Window.decoded

    def decoded(window, k, item):
        if item[0]:  # psi_re or psi_im
            raise exc
        return real(window, k, item)

    monkeypatch.setattr(_reader._Window, "decoded", decoded)
    assert cli.run(["audit", "--in", path, "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert os.listdir(tmp_path) == ["s.json"]
    assert len(forks) == 1


@pytest.mark.parametrize("key", ["eval-infinite-peak", "scan-infinite-peak", "normcheck-infinite-peak"])
def test_infinite_peak_is_refused_by_name(key, tmp_path, capsys):
    assert cli.run([a.format(tmp=tmp_path) for a in BAD_INPUTS[key][0]]) == 2
    assert capsys.readouterr().err == "error: density peak 1/(2*pi*dx*dp) must be finite, got inf\n"
    assert list(tmp_path.iterdir()) == []


def test_value_checks_keep_their_messages(monkeypatch, capsys):
    assert cli.run(["scenario", "eigensweep", "--n-max", "1", "--grid", "-5:5:4"]) == 2
    assert capsys.readouterr().err == "error: need at least 8 sample points, got n=4\n"
    monkeypatch.setenv("FLUCTLAB_H", "-1")
    assert cli.run(["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"]) == 2
    assert capsys.readouterr().err == "error: Planck constant must be finite and positive, got -1.0\n"


@pytest.mark.parametrize(
    "key, var_p",
    [("audit-subnormal-momentum-variance", "7e-323"), ("audit-momentum-variance-underflow", "0.0"),
     ("audit-momenta-underflow", "0.0")],
)
def test_audit_refuses_a_subnormal_momentum_variance(key, var_p, state_file, tmp_path, capsys):
    argv = [a.format(state=state_file, tmp=tmp_path) for a in BAD_INPUTS[key][0]]
    assert cli.run(argv) == 2
    h = argv[argv.index("--h") + 1]
    assert capsys.readouterr() == ("", f"error: momentum variance var_p must be a normal float, got {var_p} at h = {h}\n")
    assert not (tmp_path / "draws.csv").exists()


def test_env_h_that_is_not_a_number_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("FLUCTLAB_H", "abc")
    assert cli.run(["density", "extremize", "--x", "1", "--p", "1"]) == 2
    assert capsys.readouterr() == ("", "error: FLUCTLAB_H='abc' is not a number\n")


REFUSALS = {
    "grid-two-parts": (["state", "--gaussian", "--grid", "1:2", "--out", "{tmp}/s.json"],
                       "grid must be MIN:MAX:N, got '1:2'"),
    "grid-not-a-number": (["state", "--gaussian", "--grid", "a:1:8", "--out", "{tmp}/s.json"],
                          "grid 'a:1:8': could not convert string to float: 'a'"),
    "axis-two-parts": (["density", "eval", "--var-x", "1", "--var-p", "1", "--scan-x", "1:2", "--scan-p", "0:1:3",
                        "--out", "{tmp}/s.csv"], "axis must be MIN:MAX:N, got '1:2'"),
    "axis-not-a-number": (["density", "eval", "--var-x", "1", "--var-p", "1", "--scan-x", "0:1:3", "--scan-p=-1:1:x",
                           "--out", "{tmp}/s.csv"], "axis '-1:1:x': invalid literal for int() with base 10: 'x'"),
    "eval-out-without-axes": (["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0",
                               "--out", "{tmp}/s.csv"], "scan mode needs --scan-x, --scan-p, and --out"),
    "coherent-three-parts": (["state", "--coherent", "1,2,3", "--grid", "-12:12:256", "--out", "{tmp}/s.json"],
                             "complex flag must be RE or RE,IM, got '1,2,3'"),
    "coherent-not-a-number": (["state", "--coherent", "abc", "--grid", "-12:12:256", "--out", "{tmp}/s.json"],
                              "complex flag must be RE or RE,IM, got 'abc'"),
    "temperatures-empty": (["scenario", "thermalsweep", "--temperatures", ",", "--n-max", "4",
                            "--grid", "-12:12:256"], "need at least one temperature"),
    "temperatures-not-a-number": (["scenario", "thermalsweep", "--temperatures", "a", "--n-max", "4",
                                   "--grid", "-12:12:256"], "temperatures 'a': could not convert string to float: 'a'"),
}


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_flag_refusals_name_their_cause(argv, message, tmp_path, capsys):
    assert cli.run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_numerical_errors_share_one_base_class():
    assert {cls.__name__ for cls in ERROR_CLASSES if issubclass(cls, errors.NumericalFailure)} == NUMERICAL


@pytest.mark.parametrize(
    "state_argv",
    [
        ["--sigma", "1e5", "--grid=-2e6:2e6:4096", "--h", "6.283185307179586e155"],   # var_x*var_p overflows
        ["--sigma", "1e-150", "--grid=-1.2e-149:1.2e-149:256", "--h", "1e-300"],     # var_x*var_p underflows
    ],
    ids=["product-overflows", "product-underflows"],
)
def test_minimal_gaussian_audits_minimal_across_the_float_range(state_argv, tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert cli.run(["state", "--gaussian", *state_argv, "--out", path]) == 0
    capsys.readouterr()
    assert cli.run(["audit", "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "minimal"
    assert report["product"] == pytest.approx(report["bound"], rel=1e-9)


def test_walk_product_survives_its_square_overflowing(capsys):
    argv = ["scenario", "walk", "--var-x", "1e300", "--var-p", "1e300", "--steps", "2", "--step-size", "0.1"]
    assert cli.run([*argv, "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "0,1e+300,1e+300"
    assert all(math.isfinite(float(value)) for row in rows[1:] for value in row.split(","))


@pytest.mark.parametrize("cls", ERROR_CLASSES + [OSError], ids=lambda cls: cls.__name__)
def test_exit_code_follows_error_class(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_density_extremize", fail)
    expected = 3 if cls.__name__ in NUMERICAL else 2
    assert cli.run(["density", "extremize", "--x", "1", "--p", "1"]) == expected
    assert capsys.readouterr().err == "error: boom\n"
