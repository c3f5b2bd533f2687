"""Command-line behavior: pipelines, output formats, exit codes."""

import json
import math

import numpy as np
import pytest

from fluctlab import GridSpec, PureState
from fluctlab import io as fio
from fluctlab.cli import run


def test_state_audit_pipeline(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    assert run(["state", "--gaussian", "--center", "0", "--sigma", "1",
                "--grid", "-12:12:1024", "--out", out]) == 0
    capsys.readouterr()
    assert run(["audit", "--in", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "minimal"
    assert report["bound"] == pytest.approx(0.5, rel=1e-15)
    assert report["delta_t"] is None
    assert report["entropy_surrogate"] == 0.0


def test_audit_delta_e_fills_delta_t(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    run(["state", "--gaussian", "--grid", "-12:12:1024", "--out", out])
    capsys.readouterr()
    assert run(["audit", "--in", out, "--delta-e", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_t"] == pytest.approx(1.0, abs=1e-12)


def test_audit_writes_report_file(tmp_path, capsys):
    state_path = str(tmp_path / "s.json")
    report_path = str(tmp_path / "report.json")
    run(["state", "--eigenstate", "1", "--grid", "-12:12:1024", "--out", state_path])
    assert run(["audit", "--in", state_path, "--out", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["classification"] == "strict"
    assert report["relative_excess"] == pytest.approx(2.0, rel=1e-6)


def test_extremize_output(capsys):
    assert run(["density", "extremize", "--mean-x", "0", "--mean-p", "0", "--x", "2", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "var_x=1.0 var_p=0.25"


def test_verify_output(capsys):
    assert run(["density", "verify", "--mean-x", "0", "--mean-p", "0", "--x", "1", "--p", "1"]) == 0
    out = capsys.readouterr().out
    assert "s_star=0.5" in out
    assert "is_max=true" in out


def test_density_eval_point(capsys):
    assert run(["density", "eval", "--var-x", "0.5", "--var-p", "0.5", "--x", "0", "--p", "0"]) == 0
    assert float(capsys.readouterr().out.strip().split("=")[1]) == pytest.approx(1 / math.pi, rel=1e-6)


def test_density_eval_scan(tmp_path, capsys):
    out = str(tmp_path / "scan.csv")
    assert run(["density", "eval", "--var-x", "1", "--var-p", "0.25",
                "--scan-x", "-1:1:5", "--scan-p", "-1:1:4", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "x,p,f"
    assert len(lines) == 21


def test_normcheck_gaussian(capsys):
    assert run(["density", "normcheck", "--var-x", "1", "--var-p", "0.25"]) == 0
    value = float(capsys.readouterr().out.strip().split("=")[1])
    assert value == pytest.approx(1.0, abs=1e-6)


def test_normcheck_reduced_grows(capsys):
    values = []
    for width in ("10", "100"):
        assert run(["density", "normcheck", "--reduced", "--box-half-width", width]) == 0
        values.append(float(capsys.readouterr().out.strip().split("=")[1]))
    assert values[1] > values[0]


def test_sample_requires_seed(tmp_path, capsys):
    out = str(tmp_path / "draws.csv")
    code = run(["density", "sample", "--var-x", "1", "--var-p", "0.25",
                "--count", "10", "--out", out])
    assert code == 1


def test_sample_deterministic(tmp_path, capsys):
    args = ["density", "sample", "--var-x", "1", "--var-p", "0.25",
            "--count", "64", "--seed", "42"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 65


def test_eigensweep_csv(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    assert run(["scenario", "eigensweep", "--n-max", "3", "--grid", "-12:12:512",
                "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "label,parameter,product,bound,classification,entropy_surrogate"
    assert len(lines) == 5
    assert lines[1].startswith("n=0,0.0,")
    assert lines[1].endswith(",minimal,0.0")


def test_eigensweep_json_mirror(capsys):
    assert run(["scenario", "eigensweep", "--n-max", "1", "--grid", "-12:12:512",
                "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["label"] for row in rows] == ["n=0", "n=1"]
    assert set(rows[0]) == {"label", "parameter", "product", "bound", "classification", "entropy_surrogate"}


def test_thermalsweep_stdout(capsys):
    assert run(["scenario", "thermalsweep", "--temperatures", "0,1", "--n-max", "40",
                "--grid", "-15:15:2048"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "minimal"
    assert float(lines[2].split(",")[2]) == pytest.approx(1.08197670686932642, rel=1e-6)


def test_walk_csv(tmp_path, capsys):
    out = str(tmp_path / "walk.csv")
    assert run(["scenario", "walk", "--var-x", "2", "--var-p", "2", "--steps", "10",
                "--step-size", "0.1", "--seed", "5", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "step,product,distance_to_bound"
    assert len(lines) == 12
    assert lines[1] == "0,2.0,1.5"


def test_usage_errors_exit_one(capsys):
    assert run(["audit"]) == 1                   # missing --in
    assert run(["audit", "--bogus", "x"]) == 1   # unknown flag
    assert run(["frobnicate"]) == 1              # unknown command
    assert run([]) == 1                          # missing command
    assert run(["--help"]) == 0


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"units": {"h": 6.28}}')
    assert run(["audit", "--in", str(bad)]) == 2
    assert "grid" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert run(["audit", "--in", str(tmp_path / "nope.json")]) == 2


def test_invalid_recipe_exits_two(tmp_path, capsys):
    code = run(["state", "--gaussian", "--sigma", "-1", "--grid", "-12:12:1024",
                "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert not (tmp_path / "s.json").exists()


def test_decay_guard_exits_three(tmp_path, capsys):
    code = run(["state", "--eigenstate", "3", "--grid", "-6:6:256",
                "--out", str(tmp_path / "s.json")])
    assert code == 3
    assert not (tmp_path / "s.json").exists()


def test_truncation_exits_three(capsys):
    assert run(["scenario", "thermalsweep", "--temperatures", "1", "--n-max", "5",
                "--grid", "-15:15:2048"]) == 3


def test_resolution_error_exits_three(capsys):
    assert run(["density", "normcheck", "--var-x", "1", "--var-p", "0.25",
                "--half-width", "1000"]) == 3


def test_density_eval_reduced_point(capsys):
    assert run(["density", "eval", "--reduced", "--x", "1", "--p", "1"]) == 0
    value = float(capsys.readouterr().out.strip().split("=")[1])
    assert value == pytest.approx(0.0430785586036973, rel=1e-6)


@pytest.mark.parametrize("form", [[], ["--reduced"]], ids=["gaussian", "reduced"])
def test_density_eval_point_prints_the_value_its_scan_writes(tmp_path, capsys, form):
    # (2e154)**2 leaves the floats; the point and the scan through it share one formula
    flags = ["--var-x", "1e308", "--var-p", "1", *form]
    out = str(tmp_path / "scan.csv")
    assert run(["density", "eval", *flags, "--scan-x=-2e154:2e154:3", "--scan-p=0:1:2", "--out", out]) == 0
    rows = {(x, p): f for x, p, f in (line.split(",") for line in open(out).read().splitlines()[1:])}
    for x in ("-2e+154", "2e+154"):
        capsys.readouterr()
        assert run(["density", "eval", *flags, "--x", x, "--p", "0"]) == 0
        written = float(rows[x, "0.0"])
        assert capsys.readouterr().out == f"f={float(f'{written:.6g}')}\n"
    if not form:
        assert rows["2e+154", "0.0"] == rows["-2e+154", "0.0"] == "2.1539279301848634e-156"


def test_density_eval_peak_past_the_float_range(capsys):
    assert run(["density", "eval", "--var-x", "1e308", "--var-p", "1e308", "--x", "0", "--p", "0"]) == 0
    assert capsys.readouterr().out == "f=1.59155e-309\n"


def test_vanishing_eigenstate_is_named(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    assert run(["state", "--omega", "1.7976931348623157e308", "--eigenstate", "1", "--grid=-5:5:64",
                "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: eigenstate n=1 must be finite and nonzero on the grid, but it vanishes on every grid point: "
        "it is narrower than the grid step 0.15625\n"
    )
    assert run(["state", "--eigenstate", "0", "--grid=40:50:64", "--out", out]) == 2
    assert capsys.readouterr().err.endswith("eigenstate n=0 must be finite and nonzero on the grid, "
                                            "but it vanishes on every grid point: it is outside the grid\n")


def test_strict_audit_flags_below_bound(tmp_path, capsys, units):
    # a single-node spike is normalized and decays at the edges, yet its
    # position variance is exactly zero: a below-bound discretization artifact
    g = GridSpec(-4.0, 4.0, 8)
    amp = np.zeros(8, dtype=complex)
    amp[4] = 1.0
    spike = PureState(g, amp)
    path = str(tmp_path / "spike.json")
    fio.save_state(path, spike, units)
    assert run(["audit", "--in", path]) == 0
    capsys.readouterr()
    assert run(["audit", "--in", path, "--strict"]) == 2


def test_h_flag_overrides_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLUCTLAB_H", str(4 * math.pi))
    assert run(["density", "extremize", "--x", "1", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "var_x=1.0 var_p=1.0"
    assert run(["density", "extremize", "--x", "1", "--p", "1", "--h", str(2 * math.pi)]) == 0
    assert capsys.readouterr().out.strip() == "var_x=0.5 var_p=0.5"


def test_audit_h_flag_overrides_file_units(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    run(["state", "--gaussian", "--grid", "-12:12:1024", "--out", out])
    capsys.readouterr()
    assert run(["audit", "--in", out, "--h", str(4 * math.pi)]) == 0
    report = json.loads(capsys.readouterr().out)
    # var_p carries hbar^2, so product/bound is h-invariant for fixed
    # amplitudes: the override shows up in the bound, not the verdict
    assert report["bound"] == pytest.approx(1.0, rel=1e-15)
    assert report["product"] == pytest.approx(1.0, rel=1e-8)
    assert report["classification"] == "minimal"


def test_round_trip_moments_via_cli(tmp_path, capsys, units):
    from fluctlab import GaussianPacket, build_state, phase_space_moments

    out = str(tmp_path / "s.json")
    run(["state", "--gaussian", "--center", "0.3", "--momentum", "-0.8", "--sigma", "0.7",
         "--grid", "-12:12:1024", "--out", out])
    loaded, loaded_units = fio.load_state(out)
    direct = build_state(GaussianPacket(0.3, -0.8, 0.7), GridSpec(-12.0, 12.0, 1024), units)
    assert phase_space_moments(loaded, loaded_units) == phase_space_moments(direct, units)


class _Allocated(Exception):
    pass


@pytest.fixture
def no_allocation(monkeypatch):
    """Make every allocating step of scans, samples, states, sweeps and walks
    raise, so a test fails loudly if admission lets a request through to numpy."""
    import fluctlab.cli as cli

    def refuse(*args, **kwargs):
        raise _Allocated

    for name in ("density_grid", "reduced_grid", "sample", "build_state", "eigenstate_sweep", "thermal_sweep",
                 "relaxation_walk"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "empty", refuse)


@pytest.mark.parametrize("reduced", [[], ["--reduced"]])
def test_oversize_scan_exits_two_before_allocating(tmp_path, capsys, no_allocation, reduced):
    out = tmp_path / "scan.csv"
    args = ["density", "eval", *reduced, "--var-x", "1", "--var-p", "0.25", "--out", str(out)]
    assert run([*args, "--scan-x", "-3:3:100000", "--scan-p", "-2:2:100000"]) == 2
    err = capsys.readouterr().err
    assert "10000000000 rows exceeds the limit of 134217728" in err
    assert "Traceback" not in err
    assert not out.exists()
    with pytest.raises(_Allocated):                 # 2**13 x 2**14 cells, the limit itself
        run([*args, "--scan-x", "-3:3:8192", "--scan-p", "-2:2:16384"])


def test_oversize_sample_exits_two_before_allocating(tmp_path, capsys, no_allocation):
    out = tmp_path / "draws.csv"
    args = ["density", "sample", "--var-x", "1", "--var-p", "0.25", "--seed", "1", "--out", str(out)]
    assert run([*args, "--count", str(fio.MAX_ROWS + 1)]) == 2
    assert f"exceeds the limit of {fio.MAX_ROWS}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(_Allocated):                 # the limit itself is admitted
        run([*args, "--count", str(fio.MAX_ROWS)])


WALK = ["scenario", "walk", "--var-x", "2", "--var-p", "2", "--step-size", "0.05", "--seed", "1"]
THERMAL = ["scenario", "thermalsweep", "--temperatures", "1"]
FOUR_HUNDRED_DIGITS = "9" * 400


@pytest.mark.parametrize(
    "oversize, limit",
    [   # --grid admits levels x N values: 1 level for --gaussian, N+1 for --eigenstate N or --n-max N
        (["state", "--eigenstate", "100000000", "--grid", "-12:12:65536"],
         ["state", "--eigenstate", "2047", "--grid", "-12:12:65536"]),
        (["state", "--gaussian", "--grid", "-12:12:100000000000000"],
         ["state", "--gaussian", "--grid", f"-12:12:{2**27}"]),
        (["state", "--gaussian", "--grid", f"-12:12:{FOUR_HUNDRED_DIGITS}"], None),
        (["state", "--coherent", "1,1", "--grid", f"-12:12:{2**27 + 1}"],
         ["state", "--coherent", "1,1", "--grid", f"-12:12:{2**27}"]),
        ([*THERMAL, "--n-max", "1000000000000", "--grid", "-18:18:4096"],
         [*THERMAL, "--n-max", "32767", "--grid", "-18:18:4096"]),
        (["scenario", "eigensweep", "--n-max", "31", "--grid", f"-15:15:{2**22 + 1}"],
         ["scenario", "eigensweep", "--n-max", "31", "--grid", f"-15:15:{2**22}"]),
        ([*WALK, "--steps", "1000000000000"], [*WALK, "--steps", str(2**27 - 1)]),   # walks keep steps+1 rows
        ([*WALK, "--steps", FOUR_HUNDRED_DIGITS], None),
    ],
    ids=["eigenstate", "gaussian", "gaussian-400-digits", "coherent", "thermalsweep", "eigensweep", "walk",
         "walk-400-digits"],
)
def test_oversize_grid_or_walk_exits_two_before_allocating(tmp_path, capsys, no_allocation, oversize, limit):
    out = tmp_path / "out.json"
    assert run([*oversize, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"exceeds the limit of {fio.MAX_ROWS} rows" in err
    assert "Traceback" not in err
    assert not out.exists()
    if limit is not None:
        with pytest.raises(_Allocated):             # the limit itself is admitted
            run([*limit, "--out", str(out)])
