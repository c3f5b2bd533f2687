"""Exit codes by error class, and bad inputs that must end in a documented
exit code rather than a Python traceback."""

import os
import subprocess
import sys

import pytest

import fluctlab
from fluctlab import cli, errors
from fluctlab import io as fio
from fluctlab.states import GaussianPacket, GridSpec, UnitSystem, build_state

SRC = os.path.dirname(os.path.dirname(fluctlab.__file__))
NUMERICAL = {"DecayGuardViolation", "TruncationError", "ResolutionError", "NumericalFailure"}
ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.FluctLabError) and cls is not errors.FluctLabError),
    key=lambda cls: cls.__name__,
)


def _fluctlab(argv, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "fluctlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture
def state_file(tmp_path):
    units = UnitSystem()
    path = str(tmp_path / "s.json")
    fio.save_state(path, build_state(GaussianPacket(), GridSpec(-12.0, 12.0, 256), units), units)
    return path


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
}


@pytest.mark.parametrize("argv, code", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_without_traceback(argv, code, state_file, tmp_path):
    argv = [a.format(state=state_file, tmp=tmp_path) for a in argv]
    result = _fluctlab(argv)
    assert "Traceback" not in result.stderr
    assert result.returncode == code, result.stderr
    assert not (tmp_path / "draws.csv").exists()


def test_value_checks_keep_their_messages(capsys):
    env = dict(os.environ, FLUCTLAB_H="-1")
    result = _fluctlab(["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"], env)
    assert result.returncode == 2
    assert "Planck constant must be finite and positive" in result.stderr
    assert cli.run(["scenario", "eigensweep", "--n-max", "1", "--grid", "-5:5:4"]) == 2
    assert capsys.readouterr().err == "error: need at least 8 sample points, got n=4\n"


@pytest.mark.parametrize("cls", ERROR_CLASSES + [OSError], ids=lambda cls: cls.__name__)
def test_exit_code_follows_error_class(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_density_extremize", fail)
    expected = 3 if cls.__name__ in NUMERICAL else 2
    assert cli.run(["density", "extremize", "--x", "1", "--p", "1"]) == expected
    assert capsys.readouterr().err == "error: boom\n"
