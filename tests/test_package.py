"""The package's names resolve on first use, and each command loads only the
modules it runs."""

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


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """Five fresh processes, started together: the package alone loads no
    module, and each command loads what it runs (cli runs as __main__), and
    none of them the stdlib's dataclasses.  Only a command that writes a
    state, an ensemble or a table loads _floattext (not audit), and only
    audit loads the load side of io, _reader."""
    state = str(tmp_path / "s.json")
    units = UnitSystem()
    fio.save_state(state, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 256), units), units)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fluctlab.__file__))}
    env.pop("FLUCTLAB_H", None)
    cli = ["-m", "fluctlab.cli"]
    cases = {
        "import fluctlab": (["-c", "import fluctlab"], set()),
        "state": ([*cli, "state", "--gaussian", "--grid=-12:12:256", "--out", str(tmp_path / "t.json")],
                  {"errors", "io", "_turns", "units", "states", "_kernels", "_floattext"}),
        "audit": ([*cli, "audit", "--in", state],
                  {"errors", "io", "_turns", "units", "states", "_kernels", "audit", "_reader"}),
        "scenario eigensweep": ([*cli, "scenario", "eigensweep", "--n-max", "2", "--grid=-12:12:64"],
                                {"errors", "io", "_turns", "units", "states", "_kernels", "audit", "scenarios",
                                 "_floattext"}),
        "density eval": ([*cli, "density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"],
                         {"errors", "io", "_turns", "units", "audit", "density", "_kernels"}),
    }
    started = {key: subprocess.Popen([sys.executable, "-X", "importtime", *argv], env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
               for key, (argv, _) in cases.items()}
    loaded = {}
    for key, process in started.items():
        _, err = process.communicate(timeout=60)
        assert process.returncode == 0, (key, err)
        loaded[key] = _loaded(err)
    assert loaded == {key: (modules, False) for key, (_, modules) in cases.items()}
