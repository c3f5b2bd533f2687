"""Command-line behavior: pipelines, output formats, exit codes."""

import argparse
import errno
import functools
import json
import math
import os

import numpy as np
import pytest

from fluctlab import GaussianPacket, GridSpec, PureState, build_state
from fluctlab import io as fio
from fluctlab.cli import _out_path, build_parser, run


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


@pytest.mark.parametrize("argv, step, moments", [
    (["--mass", "7e295", "--grid=-29:29:128"], "0.453125", "var_x=0.0, var_p=16.022"),
    (["--mass", "1e6", "--grid=-12:12:64"], "0.375", "var_x=0.0, var_p=23.3889"),
], ids=["mass-7e295", "mass-1e6"])
def test_an_eigenstate_narrower_than_the_grid_step_is_refused(tmp_path, capsys, argv, step, moments):
    """At these masses level 0 is a spike on the one grid point x = 0, and so is
    every even level: level 2, three lobes on one point, is refused and writes
    no file, while level 0, one lobe, is still written."""
    out = str(tmp_path / "s.json")
    assert run(["state", "--eigenstate", "2", *argv, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: eigenstate n=2 must be finite and nonzero on the grid, but its 3 lobes need as many grid points "
        f"where |psi|^2 > 0, and it has 1: it is narrower than the grid step {step}\n"
    )
    assert not os.path.exists(out)
    assert run(["state", "--eigenstate", "0", *argv, "--out", out]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({moments})\n"


@pytest.mark.parametrize("sweep", [
    ["scenario", "eigensweep", "--n-max", "2"],
    ["scenario", "thermalsweep", "--temperatures", "0.1", "--n-max", "2"],
], ids=["eigensweep", "thermalsweep"])
def test_a_sweep_refuses_a_level_narrower_than_the_grid_step_as_state_does(tmp_path, capsys, sweep):
    """At mass 5000 on this grid level 2 has |psi|^2 > 0 on two points: `state`
    refuses it, and so do the sweeps that reach it, with the same line
    (before, the eigensweep reported n=2 at 0.5679 and the thermalsweep a
    T=0.1 row that thermal_ensemble refuses)."""
    flags = ["--mass", "5000", "--grid=-29.5:29.5:129"]
    assert run(["state", "--eigenstate", "2", *flags, "--out", str(tmp_path / "s.json")]) == 2
    refusal = capsys.readouterr().err
    assert refusal.endswith("and it has 2: it is narrower than the grid step 0.4573643410852713\n")
    assert run([*sweep, *flags]) == 2
    assert capsys.readouterr() == ("", refusal)


@pytest.mark.parametrize("argv, packet, where", [
    (["--gaussian", "--center", "1000"], "center 1000.0 and sigma 1.0", "outside the grid"),
    (["--gaussian", "--sigma", "1e-4", "--center", "0.01"], "center 0.01 and sigma 0.0001",
     "narrower than the grid step 0.09375"),
    (["--coherent", "1e200"], "center 1.414213562373095e+200 and sigma 0.7071067811865476", "outside the grid"),
], ids=["gaussian-outside", "gaussian-narrow", "coherent-outside"])
def test_vanishing_packet_is_named(tmp_path, capsys, argv, packet, where):
    """A packet that is 0 at every grid point is refused as an eigenstate is,
    naming its center and sigma, instead of by its zero norm."""
    assert run(["state", *argv, "--grid=-12:12:256", "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr() == ("", f"error: packet of {packet} must be finite and nonzero on the grid, "
                                       f"but it vanishes on every grid point: it is {where}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, recipe, where", [
    (["--gaussian", "--center", "1000", "--sigma", "25", "--grid=-12:12:256"],
     "packet of center 1000.0 and sigma 25.0", "outside the grid"),
    (["--coherent", "29.7", "--grid=-12:12:256"],
     "packet of center 42.002142802480925 and sigma 0.7071067811865476", "outside the grid"),
    (["--gaussian", "--center", "0.046875", "--sigma", "0.001", "--grid=-12:12:256"],
     "packet of center 0.046875 and sigma 0.001", "narrower than the grid step 0.09375"),
    (["--eigenstate", "0", "--grid=36:37:64"], "eigenstate n=0", "outside the grid"),
], ids=["gaussian-outside", "coherent-outside", "gaussian-narrow", "eigenstate-outside"])
def test_underflowing_recipe_is_named(tmp_path, capsys, argv, recipe, where):
    """A recipe that is nonzero on the grid but whose squared amplitudes all
    underflow to 0 (about 1e-171 and below) is refused naming it, as a
    vanishing one is, instead of by its zero norm."""
    assert run(["state", *argv, "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {recipe} must be finite and nonzero on the grid, but its squared "
                                       f"amplitudes underflow to 0 on every grid point: it is {where}\n")
    assert list(tmp_path.iterdir()) == []


def test_coherent_flag_without_an_imaginary_part(tmp_path, capsys):
    for alpha in ("1.5", "1.5,0"):
        assert run(["state", "--coherent", alpha, "--grid=-12:12:256", "--out", str(tmp_path / f"{alpha}.json")]) == 0
    assert (tmp_path / "1.5.json").read_bytes() == (tmp_path / "1.5,0.json").read_bytes()


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


def test_audit_output_bytes(tmp_path, capsys, units):
    """The report goes to stdout, or to --out with a `wrote` line; a strict
    below-bound run writes no file and prints the report and the error."""
    spike = np.zeros(8, dtype=complex)
    spike[4] = 1.0
    path, out = str(tmp_path / "spike.json"), tmp_path / "report.json"
    fio.save_state(path, PureState(GridSpec(-4.0, 4.0, 8), spike), units)
    assert run(["audit", "--in", path]) == 0
    report = capsys.readouterr().out
    assert report.startswith("{") and report.endswith("}\n") and report.count("\n") == 1
    assert run(["audit", "--in", path, "--strict", "--out", str(out)]) == 2
    assert capsys.readouterr() == (report, "error: product below bound in strict mode\n")
    assert not out.exists()
    assert run(["audit", "--in", path, "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out} (classification=below_bound)\n", "")
    assert out.read_text() == report[:-1]


def test_each_grid_makes_its_wavenumbers_once(tmp_path, capsys, monkeypatch, units):
    """Every member of a loaded ensemble, and every level of a sweep, is on the one grid object."""
    from fluctlab import thermal_ensemble

    path = str(tmp_path / "ensemble.json")
    fio.save_ensemble(path, thermal_ensemble(1.0, 1.0, 1.0, 40, GridSpec(-15.0, 15.0, 1024), units), units)
    calls, made = [], GridSpec._wavenumbers.func

    def counting(grid):
        calls.append(1)
        return made(grid)

    wavenumbers = functools.cached_property(counting)
    wavenumbers.__set_name__(GridSpec, "_wavenumbers")
    monkeypatch.setattr(GridSpec, "_wavenumbers", wavenumbers)
    assert run(["audit", "--in", path]) == 0
    assert len(calls) == 1
    assert run(["scenario", "thermalsweep", "--temperatures", "0.5,1,2", "--n-max", "40", "--grid=-15:15:1024"]) == 0
    assert len(calls) == 2
    capsys.readouterr()


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
    raise, so a test fails loudly if admission lets a request through to numpy.
    Each is patched where it is defined: a handler imports it when it runs."""
    from fluctlab import density, scenarios, states

    def refuse(*args, **kwargs):
        raise _Allocated

    for module, name in ((density, "density_grid"), (density, "reduced_grid"), (density, "sample_blocks"),
                         (states, "build_state"), (scenarios, "eigenstate_sweep"), (scenarios, "thermal_sweep"),
                         (scenarios, "walk_blocks")):
        monkeypatch.setattr(module, name, refuse)
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


# --- the flag table ------------------------------------------------------------

# Every option of every subcommand, pinned so that a refactor of the parser keeps each
# one.  A row: option strings, dest, repr(default), type, required, choices, metavar.
HELP = ("-h --help", "help", "'==SUPPRESS=='", None, False, None, None)
FLAGS = {
    "state": {
        ("--h", "h", "None", float, False, None, None),
        ("--gaussian", "gaussian", "False", None, False, None, None),
        ("--eigenstate", "eigenstate", "None", int, False, None, "N"),
        ("--coherent", "coherent", "None", None, False, None, "RE[,IM]"),
        ("--center", "center", "0.0", float, False, None, None),
        ("--momentum", "momentum", "0.0", float, False, None, None),
        ("--sigma", "sigma", "1.0", float, False, None, None),
        ("--mass", "mass", "1.0", float, False, None, None),
        ("--omega", "omega", "1.0", float, False, None, None),
        ("--grid", "grid", "None", None, True, None, "MIN:MAX:N"),
        ("--out", "out", "None", _out_path, True, None, None),
    },
    "audit": {
        ("--h", "h", "None", float, False, None, None),
        ("--in", "in_path", "None", None, True, None, "FILE"),
        ("--epsilon", "epsilon", "1e-06", float, False, None, None),
        ("--delta-e", "delta_e", "None", float, False, None, None),
        ("--strict", "strict", "False", None, False, None, None),
        ("--out", "out", "None", _out_path, False, None, None),
    },
    "density eval": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--var-x", "var_x", "None", float, False, None, None),
        ("--var-p", "var_p", "None", float, False, None, None),
        ("--x", "x", "None", float, False, None, None),
        ("--p", "p", "None", float, False, None, None),
        ("--reduced", "reduced", "False", None, False, None, None),
        ("--scan-x", "scan_x", "None", None, False, None, "MIN:MAX:N"),
        ("--scan-p", "scan_p", "None", None, False, None, "MIN:MAX:N"),
        ("--out", "out", "None", _out_path, False, None, None),
    },
    "density sample": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--var-x", "var_x", "None", float, True, None, None),
        ("--var-p", "var_p", "None", float, True, None, None),
        ("--count", "count", "None", int, True, None, None),
        ("--seed", "seed", "None", int, True, None, None),
        ("--out", "out", "None", _out_path, True, None, None),
    },
    "density extremize": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--x", "x", "None", float, True, None, None),
        ("--p", "p", "None", float, True, None, None),
    },
    "density verify": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--x", "x", "None", float, True, None, None),
        ("--p", "p", "None", float, True, None, None),
        ("--fd-step", "fd_step", "0.0001", float, False, None, None),
    },
    "density normcheck": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--var-x", "var_x", "None", float, False, None, None),
        ("--var-p", "var_p", "None", float, False, None, None),
        ("--half-width", "half_width", "10.0", float, False, None, None),
        ("--reduced", "reduced", "False", None, False, None, None),
        ("--box-half-width", "box_half_width", "None", float, False, None, None),
    },
    "scenario eigensweep": {
        ("--h", "h", "None", float, False, None, None),
        ("--n-max", "n_max", "None", int, True, None, None),
        ("--mass", "mass", "1.0", float, False, None, None),
        ("--omega", "omega", "1.0", float, False, None, None),
        ("--grid", "grid", "None", None, True, None, "MIN:MAX:N"),
        ("--epsilon", "epsilon", "1e-06", float, False, None, None),
        ("--out", "out", "None", _out_path, False, None, None),
        ("--format", "format", "'csv'", None, False, ("csv", "json"), None),
    },
    "scenario thermalsweep": {
        ("--h", "h", "None", float, False, None, None),
        ("--temperatures", "temperatures", "None", None, True, None, "T1,T2,..."),
        ("--mass", "mass", "1.0", float, False, None, None),
        ("--omega", "omega", "1.0", float, False, None, None),
        ("--n-max", "n_max", "None", int, True, None, None),
        ("--grid", "grid", "None", None, True, None, "MIN:MAX:N"),
        ("--epsilon", "epsilon", "1e-06", float, False, None, None),
        ("--out", "out", "None", _out_path, False, None, None),
        ("--format", "format", "'csv'", None, False, ("csv", "json"), None),
    },
    "scenario walk": {
        ("--h", "h", "None", float, False, None, None),
        ("--mean-x", "mean_x", "0.0", float, False, None, None),
        ("--mean-p", "mean_p", "0.0", float, False, None, None),
        ("--var-x", "var_x", "None", float, True, None, None),
        ("--var-p", "var_p", "None", float, True, None, None),
        ("--steps", "steps", "None", int, True, None, None),
        ("--step-size", "step_size", "None", float, True, None, None),
        ("--seed", "seed", "None", int, True, None, None),
        ("--out", "out", "None", _out_path, False, None, None),
        ("--format", "format", "'csv'", None, False, ("csv", "json"), None),
    },
}


def _subcommands(parser, words=()):
    """(command words, parser) of every leaf subcommand under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, (*words, name))
            return
    yield " ".join(words), parser


def test_flag_table_is_pinned():
    parsers = dict(_subcommands(build_parser()))
    tables = {
        words: {(" ".join(a.option_strings), a.dest, repr(a.default), a.type, a.required, a.choices, a.metavar)
                for a in parser._actions}
        for words, parser in parsers.items()
    }
    assert tables == {words: rows | {HELP} for words, rows in FLAGS.items()}
    recipes = [(tuple(a.dest for a in group._group_actions), group.required)
               for group in parsers["state"]._mutually_exclusive_groups]
    assert recipes == [(("gaussian", "eigenstate", "coherent"), True)]


def test_parser_defaults_are_the_librarys():
    """The parser writes out the library's numeric defaults, so that parsing loads
    none of the numeric modules; each copy must be its source's value."""
    from fluctlab.audit import SATURATION_EPSILON
    from fluctlab.density import FD_STEP, HALF_WIDTH_SIGMAS
    from fluctlab.states import CoherentState, GaussianPacket, OscillatorEigenstate

    sources = {
        "mass": OscillatorEigenstate.mass,
        "omega": OscillatorEigenstate.omega,
        "center": GaussianPacket.center,
        "momentum": GaussianPacket.momentum,
        "sigma": GaussianPacket.sigma,
        "epsilon": SATURATION_EPSILON,
        "fd_step": FD_STEP,
        "half_width": HALF_WIDTH_SIGMAS,
    }
    copies = {(words, a.dest): a.default for words, parser in _subcommands(build_parser())
              for a in parser._actions if a.dest in sources}
    assert {dest for _, dest in copies} == set(sources)
    assert {key: repr(default) for key, default in copies.items()} == {
        (words, dest): repr(sources[dest]) for words, dest in copies}
    assert (CoherentState.mass, CoherentState.omega) == (OscillatorEigenstate.mass, OscillatorEigenstate.omega)


EMPTY_OUT = {
    "state": ["state", "--gaussian", "--grid=-10:10:256"],
    "audit": ["audit", "--in", "s.json"],
    "density eval": ["density", "eval", "--var-x", "1", "--var-p", "1", "--x", "0", "--p", "0"],
    "density sample": ["density", "sample", "--var-x", "1", "--var-p", "1", "--count", "3", "--seed", "1"],
    "scenario eigensweep": ["scenario", "eigensweep", "--n-max", "1", "--grid=-10:10:256"],
    "scenario thermalsweep": ["scenario", "thermalsweep", "--temperatures", "0", "--n-max", "1", "--grid=-10:10:256"],
    "scenario walk": ["scenario", "walk", "--var-x", "1", "--var-p", "1", "--steps", "3", "--step-size", "0.1",
                      "--seed", "1"],
}


@pytest.mark.parametrize("argv", EMPTY_OUT.values(), ids=EMPTY_OUT.keys())
def test_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    """--out '' names no file: every command refuses it while parsing, before
    any work, and writes nothing (not even a temp file beside the directory)."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run([*argv, "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(": error: argument --out: expected a file name, got ''\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["work"]


SLASHED_OUT = {
    "state": ["state", "--gaussian", "--grid=-10:10:256"],
    "density sample": ["density", "sample", "--var-x", "1", "--var-p", "1", "--count", "3", "--seed", "1"],
    "audit": ["audit", "--in", "s.json"],
}


@pytest.mark.parametrize("out, refusal", [
    ("newdir/", "[Errno 21] Is a directory: 'newdir/'"),
    ("newdir/.", "[Errno 2] No such file or directory: 'newdir/.'"),
    ("kept.txt/", "[Errno 21] Is a directory: 'kept.txt/'"),
    ("kept.txt/.", "[Errno 20] Not a directory: 'kept.txt/.'"),
    ("loop", f"[Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: 'loop'"),
    ("a", f"[Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: 'a'"),
], ids=["missing-slash", "missing-dot", "file-slash", "file-dot", "link-loop", "two-link-loop"])
@pytest.mark.parametrize("argv", SLASHED_OUT.values(), ids=SLASHED_OUT.keys())
def test_out_that_names_no_file_is_refused(tmp_path, capsys, monkeypatch, units, argv, out, refusal):
    """An --out whose last name is no file's, or that is a symlink loop (which
    _descriptor follows for its 40 links), is refused as open(out, "w")
    refuses it: exit 2, no file or link made or replaced, and no temp file."""
    monkeypatch.chdir(tmp_path)
    fio.save_state("s.json", build_state(GaussianPacket(), GridSpec(-10.0, 10.0, 256), units), units)
    (tmp_path / "kept.txt").write_text("kept\n")
    links = {"loop": "loop", "a": "b", "b": "a"}
    for name, target in links.items():
        os.symlink(target, name)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "kept.txt").read_text() == "kept\n"
    assert {name: os.readlink(name) for name in links} == links
