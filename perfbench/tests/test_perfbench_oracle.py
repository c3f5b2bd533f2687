import contextlib
import io

import pytest

import oracle
import workloads
from fluctlab import cli

MEAN = {"mean_x": 0.25, "mean_p": -0.125}
GAUSS = {**MEAN, "var_x": 0.8, "var_p": 0.5}
MESH = {"scan_x": [-3.0, 3.0, 31], "scan_p": [-2.0, 2.0, 17]}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0
    return out.getvalue()


def _scan(tmp_path, form):
    path = str(tmp_path / f"{form}.csv")
    flags = [f"--mean-x={MEAN['mean_x']}", f"--mean-p={MEAN['mean_p']}"]
    if form == "gauss":
        flags += [f"--var-x={GAUSS['var_x']}", f"--var-p={GAUSS['var_p']}"]
    else:
        flags.append("--reduced")
    _run(["density", "eval", *flags, "--scan-x", "-3.0:3.0:31", "--scan-p", "-2.0:2.0:17", "--out", path])
    spec = {"kind": "scan", "form": form, **MESH, **(GAUSS if form == "gauss" else MEAN)}
    return spec, path


def _corrupt_row(path, row, column, value):
    with open(path) as handle:
        lines = handle.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = value
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("form", ["gauss", "reduced"])
def test_scan_output_passes_the_oracle(tmp_path, form):
    spec, path = _scan(tmp_path, form)
    assert oracle.check(spec, path, "") == []


@pytest.mark.parametrize("form", ["gauss", "reduced"])
def test_one_corrupted_scan_row_is_a_failure(tmp_path, form):
    spec, path = _scan(tmp_path, form)
    with open(path) as handle:
        f = float(handle.read().splitlines()[101].split(",")[2])
    _corrupt_row(path, 100, 2, repr(f * (1.0 + 1e-9)))
    problems = oracle.check(spec, path, "")
    assert len(problems) == 1 and "1 f values" in problems[0] and "row 100" in problems[0]


def test_scan_row_with_unparsable_field_is_a_failure(tmp_path):
    spec, path = _scan(tmp_path, "gauss")
    _corrupt_row(path, 7, 0, "nan?")
    assert oracle.check(spec, path, "") != []


def test_sample_moments_are_held_to_their_parameters(tmp_path):
    path = str(tmp_path / "sample.csv")
    _run(["density", "sample", "--mean-x=0.25", "--mean-p=-0.125", "--var-x=0.8", "--var-p=0.5",
          "--count", "20000", "--seed", "3", "--out", path])
    assert oracle.check({"kind": "sample", "rows": 20000, **GAUSS}, path, "") == []
    shifted = {**GAUSS, "mean_x": GAUSS["mean_x"] + 0.1}
    assert oracle.check({"kind": "sample", "rows": 20000, **shifted}, path, "") != []


def test_walk_must_not_increase(tmp_path):
    path = str(tmp_path / "walk.csv")
    _run(["scenario", "walk", "--var-x=2.0", "--var-p=1.5", "--steps", "50", "--step-size=0.05",
          "--seed", "4", "--out", path])
    spec = {"kind": "walk", "steps": 50, "start_product": 3.0**0.5}
    assert oracle.check(spec, path, "") == []
    _corrupt_row(path, 10, 1, "5.0")
    assert any("increases" in p for p in oracle.check(spec, path, ""))


def test_audit_and_sweep_checks(tmp_path):
    state = str(tmp_path / "g.json")
    printed = _run(["state", "--gaussian", "--sigma=0.9", "--grid", "-12:12:2048", "--out", state])
    assert oracle.check({"kind": "state", "var_x": 0.81, "var_p": 1 / (4 * 0.81)}, None, printed) == []
    report = _run(["audit", "--in", state])
    assert oracle.check({"kind": "audit", "classification": "minimal", "product": 0.5}, None, report) == []
    assert oracle.check({"kind": "audit", "classification": "strict", "product": 0.5}, None, report) != []
    sweep = str(tmp_path / "eig.csv")
    _run(["scenario", "eigensweep", "--n-max", "3", "--grid", "-15:15:2048", "--out", sweep])
    spec = {"kind": "sweep", "products": [(2 * n + 1) * workloads.BOUND for n in range(4)],
            "classifications": ["minimal", "strict", "strict", "strict"]}
    assert oracle.check(spec, sweep, "") == []
    spec["products"][2] *= 1.001
    assert oracle.check(spec, sweep, "") != []
