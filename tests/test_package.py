"""The package's names resolve on first use, each command loads only the
modules it runs, and no command process loads OpenSSL."""

import importlib
import os
import subprocess
import sys

import pytest

import fluctlab
from fluctlab import io as fio
from fluctlab.states import GaussianPacket, GridSpec, UnitSystem, build_state

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "audit": ["Classification", "SelfSimilarityReport", "Verdict", "audit_report", "classify", "entropy_surrogate",
              "self_similarity_report", "time_energy", "uncertainty_product"],
    "density": ["ExtremumCheck", "FluctuationParams", "PhasePoint", "degenerate_spread", "density_eval",
                "density_grid", "extremal_variances", "normalization_check", "peak_value", "reduced_box_integral",
                "reduced_density", "reduced_grid", "sample", "verify_extremum"],
    "errors": ["DecayGuardViolation", "FileFormatError", "FluctLabError", "GridMismatch", "InvalidRecipe",
               "NonPositiveInput", "NormalizationError", "NumericalFailure", "ResolutionError", "StepTooLarge",
               "TruncationError", "ZeroSeparation"],
    "scenarios": ["SweepRow", "WalkTrace", "eigenstate_sweep", "relaxation_walk", "thermal_sweep"],
    "states": ["CoherentState", "GaussianPacket", "GridSpec", "HamiltonianSpec", "MixedEnsemble", "MomentReport",
               "OscillatorEigenstate", "PureState", "RawSamples", "StateRecipe", "build_state", "energy_moments",
               "ensemble_moments", "oscillator_eigenstates", "phase_space_moments", "thermal_ensemble"],
    "units": ["UnitSystem"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_export_is_its_modules_object(module, name):
    assert getattr(fluctlab, name) is getattr(importlib.import_module(f"fluctlab.{module}"), name)


def test_dir_and_star_import_list_every_export():
    names = {name for _, name in NAMES}
    assert len(names) == 57
    assert set(fluctlab.__all__) == names
    assert names | {"__version__"} <= set(dir(fluctlab))
    namespace = {}
    exec("from fluctlab import *", namespace)
    assert names <= set(namespace)
    assert fluctlab.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'fluctlab' has no attribute 'no_such_name'$"):
        fluctlab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from fluctlab import no_such_name", {})


def _loaded(stderr: str) -> tuple:
    """The fluctlab modules that -X importtime's report names, without the
    package, and whether it names the stdlib's dataclasses, which no command
    needs: the package's records are built without it."""
    names = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")}
    return {name.split(".", 1)[1] for name in names if name.startswith("fluctlab.")}, "dataclasses" in names


def _commands(tmp_path) -> dict:
    """Each case's command line after `python`, and the fluctlab modules it loads."""
    state = str(tmp_path / "s.json")
    units = UnitSystem()
    fio.save_state(state, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 256), units), units)
    cli = ["-m", "fluctlab.cli"]
    writes = {"errors", "io", "_turns", "units", "_kernels", "_floattext", "_cells"}
    return {
        "import fluctlab": (["-c", "import fluctlab"], set()),
        "state": ([*cli, "state", "--gaussian", "--grid=-12:12:256", "--out", str(tmp_path / "t.json")],
                  writes | {"states"}),
        "audit": ([*cli, "audit", "--in", state],
                  {"errors", "io", "_turns", "units", "states", "_kernels", "audit", "_reader"}),
        "scenario eigensweep": ([*cli, "scenario", "eigensweep", "--n-max", "2", "--grid=-12:12:64"],
                                writes | {"states", "audit", "scenarios"}),
        "density eval": ([*cli, "density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"],
                         {"errors", "io", "_turns", "units", "audit", "density", "_kernels"}),
        "density sample": ([*cli, "density", "sample", "--var-x", "1", "--var-p", "1", "--count", "5000",
                            "--seed", "3", "--out", str(tmp_path / "d.csv")], writes | {"audit", "density"}),
        "scenario walk": ([*cli, "scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "5000",
                           "--step-size", "0.05", "--seed", "3", "--out", str(tmp_path / "w.csv")],
                          writes | {"audit", "density", "states", "scenarios"}),
    }


def _environment() -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fluctlab.__file__))}
    env.pop("FLUCTLAB_H", None)
    return env


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """Seven fresh processes, started together: the package alone loads no
    module, and each command loads what it runs (cli runs as __main__), and
    none of them the stdlib's dataclasses.  Only a command that writes a
    state, an ensemble or a table loads _floattext and _cells (not audit),
    and only audit loads the load side of io, _reader."""
    cases = _commands(tmp_path)
    started = {key: subprocess.Popen([sys.executable, "-X", "importtime", *argv], env=_environment(), text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
               for key, (argv, _) in cases.items()}
    loaded = {}
    for key, process in started.items():
        _, err = process.communicate(timeout=60)
        assert process.returncode == 0, (key, err)
        loaded[key] = _loaded(err)
    assert loaded == {key: (modules, False) for key, (_, modules) in cases.items()}


# Runs cli.main on the arguments after it, as `python -m fluctlab.cli` does; as
# each process ends (os._exit, the command's or its forked twin's), it writes to
# stderr whether it holds a _hashlib module and whether it maps libcrypto.
OPENSSL_PROBE = """
import os, sys

def _exit(code, exit=os._exit):
    maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
    sys.stderr.write(f"_hashlib {sys.modules.get('_hashlib') is not None}, libcrypto {'libcrypto' in maps}\\n")
    sys.stderr.flush()
    exit(code)

os._exit = _exit
from fluctlab.cli import main
main()
"""


def test_no_command_process_loads_openssl(tmp_path):
    """Every command of the module test, run by cli.main in a fresh process,
    ends with no _hashlib module and, on Linux, no libcrypto mapped: the
    seeded sample and walk too, though numpy.random imports secrets, hmac and
    hashlib.  main puts None under sys.modules["_hashlib"], so those take
    the builtin digests.  (-X importtime's report still names _hashlib, as
    CPython reports an import that a None in sys.modules halts.)"""
    cases = {key: argv[2:] for key, (argv, _) in _commands(tmp_path).items() if argv[0] == "-m"}
    started = {key: subprocess.Popen([sys.executable, "-c", OPENSSL_PROBE, *argv], env=_environment(), text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
               for key, argv in cases.items()}
    ended = {key: (process.communicate(timeout=60)[1], process.returncode) for key, process in started.items()}
    for key, (err, code) in ended.items():
        reports = err.splitlines()  # the command's line, and a forked twin's
        assert code == 0 and reports and set(reports) == {"_hashlib False, libcrypto False"}, (key, err)


def test_the_library_and_run_leave_hashlib_alone(tmp_path):
    """Only main keeps OpenSSL out: import fluctlab, and cli.run of a command
    that does not use numpy.random, leave sys.modules without a _hashlib
    entry, and cli.run of a walk imports the real _hashlib."""
    code = f"""
import sys
import fluctlab
from fluctlab import cli
print("_hashlib" in sys.modules)
assert cli.run(["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"]) == 0
print("_hashlib" in sys.modules)
assert cli.run(["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "10", "--step-size", "0.05",
                "--seed", "3", "--out", {str(tmp_path / "w.csv")!r}]) == 0
print(sys.modules.get("_hashlib") is not None)
"""
    done = subprocess.run([sys.executable, "-c", code], env=_environment(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["False", "f=0.159155", "False", f"wrote {tmp_path / 'w.csv'} (11 rows)", "True"]


def test_a_python_without_builtin_digests_keeps_openssl(tmp_path):
    """Where a builtin digest that hashlib falls back on is missing (here
    _sha512, blocked), main leaves _hashlib alone: the walk exits 0, prints
    nothing to stderr and writes the same bytes."""
    run_main = "import sys\n{}from fluctlab.cli import main\nmain()"
    walk = ["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "5000", "--step-size", "0.05", "--seed", "3"]
    outputs = {}
    for name, block in (("plain", ""), ("blocked", "sys.modules['_sha512'] = None\n")):
        out = tmp_path / f"{name}.csv"
        done = subprocess.run([sys.executable, "-c", run_main.format(block), *walk, "--out", str(out)],
                              env=_environment(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", f"wrote {out} (5001 rows)\n")
        outputs[name] = out.read_bytes()
    assert outputs["blocked"] == outputs["plain"]
