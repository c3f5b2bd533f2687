"""Seeded workload plans: the exact `fluctlab` argv for each command of a
workload, the input files to generate first, and what each output must show.

The seed picks numeric parameters only (means, admissible variances, packet
centre and momentum, temperature jitter, sampler and walk seeds).  Grid
sizes, row counts, levels and command lists are fixed per workload, so two
seeds do the same amount of work.  This module is stdlib-only because the
parent benchmark process must stay small: on Linux a child started by
vfork inherits the parent's peak RSS, which would pollute `peak_rss_mb`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

HBAR = 1.0                 # default fluctlab units, h = 2*pi
BOUND = HBAR / 2.0         # h/(4*pi)

# Oracle tolerances, reported with every result.
TOLERANCES = {
    "scan_f_rtol": 1e-12,          # scan f against the closed form at the printed x,p
    "scan_f_atol": 1e-300,
    "sample_standard_errors": 5.0,  # sample mean and variance distance from the parameters
    "product_rtol": 1e-6,          # eigen (2n+1)*bound and thermal (hbar/2)coth(hbar*omega/2T)
    "printed_var_rtol": 1e-5,      # `state` prints variances with 6 significant digits
    "walk_rtol": 1e-12,            # product - bound against distance_to_bound
}

# bulk_csv is a quarter of the ROADMAP's 1001x1001 scan and 1M sample, so that
# a run holds enough passes for a steady median; io still dominates each command.
SCAN_X = (-3.0, 3.0, 501)
SCAN_P = (-2.0, 2.0, 501)
SAMPLE_COUNT = 250_000
WALK_STEPS = 50_000
WALK_STEP_SIZE = 0.05
STATE_GRID = (-12.0, 12.0, 65536)
EIGEN_LEVEL = 10
ENSEMBLE_GRID = (-22.0, 22.0, 4096)
ENSEMBLE_LEVELS = 121
THERMAL_TEMPERATURES = 20
THERMAL_LEVELS = 121
THERMAL_GRID = (-22.0, 22.0, 8192)
EIGENSWEEP_LEVELS = 31
EIGENSWEEP_GRID = (-15.0, 15.0, 65536)


@dataclass(frozen=True)
class Command:
    """One fluctlab invocation: argv after `python -m fluctlab.cli`, the
    output file it writes (if any) and the oracle spec for its result."""

    id: str
    argv: tuple
    output: str | None
    check: dict


@dataclass(frozen=True)
class Plan:
    workload: str
    params: dict
    commands: tuple
    inputs: tuple          # ensemble files made during set-up: dicts with path, temperature
    work_items: int
    work_unit: str
    largest_array: dict    # {"what": ..., "bytes": ...}, computed from the sizes


def _axis(spec) -> str:
    lo, hi, n = spec
    return f"{lo!r}:{hi!r}:{n}"


def _flag(name, value) -> str:
    return f"--{name}={value!r}"


def _bulk_csv(rng: random.Random, workdir: str) -> Plan:
    mean_x = round(rng.uniform(-0.5, 0.5), 4)
    mean_p = round(rng.uniform(-0.5, 0.5), 4)
    var_x = round(rng.uniform(0.5, 2.0), 4)
    var_p = round(BOUND**2 / var_x * rng.uniform(1.5, 4.0), 4)
    walk_var_x = round(rng.uniform(1.0, 3.0), 4)
    walk_var_p = round(rng.uniform(1.0, 3.0), 4)
    sample_seed = rng.randrange(2**31)
    walk_seed = rng.randrange(2**31)
    means = (_flag("mean-x", mean_x), _flag("mean-p", mean_p))
    variances = (_flag("var-x", var_x), _flag("var-p", var_p))
    axes = ("--scan-x", _axis(SCAN_X), "--scan-p", _axis(SCAN_P))
    scan_rows = SCAN_X[2] * SCAN_P[2]
    mesh = {"scan_x": list(SCAN_X), "scan_p": list(SCAN_P)}
    paths = {k: os.path.join(workdir, f"{k}.csv") for k in ("scan", "reduced", "sample", "walk")}
    gauss = {"mean_x": mean_x, "mean_p": mean_p, "var_x": var_x, "var_p": var_p}
    commands = (
        Command("scan", ("density", "eval", *means, *variances, *axes, "--out", paths["scan"]),
                paths["scan"], {"kind": "scan", "form": "gauss", **mesh, **gauss}),
        Command("reduced", ("density", "eval", "--reduced", *means, *axes, "--out", paths["reduced"]),
                paths["reduced"], {"kind": "scan", "form": "reduced", **mesh,
                                   "mean_x": mean_x, "mean_p": mean_p}),
        Command("sample", ("density", "sample", *means, *variances, "--count", str(SAMPLE_COUNT),
                           "--seed", str(sample_seed), "--out", paths["sample"]),
                paths["sample"], {"kind": "sample", "rows": SAMPLE_COUNT, **gauss}),
        Command("walk", ("scenario", "walk", _flag("var-x", walk_var_x), _flag("var-p", walk_var_p),
                         "--steps", str(WALK_STEPS), _flag("step-size", WALK_STEP_SIZE),
                         "--seed", str(walk_seed), "--out", paths["walk"]),
                paths["walk"], {"kind": "walk", "steps": WALK_STEPS,
                                "start_product": math.sqrt(walk_var_x * walk_var_p)}),
    )
    return Plan(
        workload="bulk_csv",
        params={**gauss, "walk_var_x": walk_var_x, "walk_var_p": walk_var_p,
                "sample_seed": sample_seed, "walk_seed": walk_seed},
        commands=commands,
        inputs=(),
        work_items=2 * scan_rows + SAMPLE_COUNT + WALK_STEPS + 1,
        work_unit="CSV rows written",
        largest_array={"what": f"sample draws ({SAMPLE_COUNT}, 2) float64",
                       "bytes": SAMPLE_COUNT * 2 * 8},
    )


def _state_files(rng: random.Random, workdir: str) -> Plan:
    center = round(rng.uniform(-1.0, 1.0), 4)
    momentum = round(rng.uniform(-2.0, 2.0), 4)
    sigma = round(rng.uniform(0.8, 1.2), 4)
    alpha = (round(rng.uniform(-1.0, 1.0), 4), round(rng.uniform(-1.0, 1.0), 4))
    temperature = round(rng.uniform(1.0, 2.0), 4)
    grid = _axis(STATE_GRID)
    path = {k: os.path.join(workdir, f"{k}.json") for k in ("gaussian", "eigenstate", "coherent", "ens1", "ens121")}
    level_product = (2 * EIGEN_LEVEL + 1) * BOUND
    thermal_product = BOUND / math.tanh(HBAR / (2.0 * temperature))
    commands = (
        Command("state_gaussian",
                ("state", "--gaussian", _flag("center", center), _flag("momentum", momentum),
                 _flag("sigma", sigma), "--grid", grid, "--out", path["gaussian"]),
                path["gaussian"],
                {"kind": "state", "var_x": sigma**2, "var_p": HBAR**2 / (4.0 * sigma**2)}),
        Command("state_eigenstate",
                ("state", "--eigenstate", str(EIGEN_LEVEL), "--grid", grid, "--out", path["eigenstate"]),
                path["eigenstate"], {"kind": "state", "var_x": level_product, "var_p": level_product}),
        Command("state_coherent",
                ("state", f"--coherent={alpha[0]!r},{alpha[1]!r}", "--grid", grid, "--out", path["coherent"]),
                path["coherent"], {"kind": "state", "var_x": BOUND, "var_p": BOUND}),
        Command("audit_gaussian", ("audit", "--in", path["gaussian"]), None,
                {"kind": "audit", "classification": "minimal", "product": BOUND}),
        Command("audit_eigenstate", ("audit", "--in", path["eigenstate"]), None,
                {"kind": "audit", "classification": "strict", "product": level_product}),
        Command("audit_coherent", ("audit", "--in", path["coherent"]), None,
                {"kind": "audit", "classification": "minimal", "product": BOUND}),
        Command("audit_ensemble_1", ("audit", "--in", path["ens1"]), None,
                {"kind": "audit", "classification": "minimal", "product": BOUND}),
        Command("audit_ensemble_121", ("audit", "--in", path["ens121"]), None,
                {"kind": "audit", "classification": "strict", "product": thermal_product}),
    )
    n_state = STATE_GRID[2]
    n_ens = ENSEMBLE_GRID[2]
    return Plan(
        workload="state_files",
        params={"center": center, "momentum": momentum, "sigma": sigma, "alpha": list(alpha),
                "ensemble_temperature": temperature},
        commands=commands,
        inputs=(
            {"path": path["ens1"], "temperature": 0.0, "n_max": 0, "grid": list(ENSEMBLE_GRID)},
            {"path": path["ens121"], "temperature": temperature, "n_max": ENSEMBLE_LEVELS - 1,
             "grid": list(ENSEMBLE_GRID)},
        ),
        work_items=2 * 3 * n_state + n_ens + ENSEMBLE_LEVELS * n_ens,
        work_unit="amplitudes written plus read",
        largest_array={"what": f"ensemble amplitudes ({ENSEMBLE_LEVELS}, {n_ens}) complex128",
                       "bytes": ENSEMBLE_LEVELS * n_ens * 16},
    )


def _sweep_compute(rng: random.Random, workdir: str) -> Plan:
    lo, hi = 0.25, 5.75   # every level of 0..120 keeps a nonzero weight and the tail stays < 1e-8
    temperatures = [
        round((lo + i * (hi - lo) / (THERMAL_TEMPERATURES - 1)) * rng.uniform(0.98, 1.02), 4)
        for i in range(THERMAL_TEMPERATURES)
    ]
    paths = {k: os.path.join(workdir, f"{k}.csv") for k in ("thermal", "eigen")}
    commands = (
        Command("thermalsweep",
                ("scenario", "thermalsweep", "--temperatures", ",".join(repr(t) for t in temperatures),
                 "--n-max", str(THERMAL_LEVELS - 1), "--grid", _axis(THERMAL_GRID), "--out", paths["thermal"]),
                paths["thermal"],
                {"kind": "sweep", "products": [BOUND / math.tanh(HBAR / (2.0 * t)) for t in temperatures],
                 "classifications": ["strict"] * len(temperatures)}),
        Command("eigensweep",
                ("scenario", "eigensweep", "--n-max", str(EIGENSWEEP_LEVELS - 1),
                 "--grid", _axis(EIGENSWEEP_GRID), "--out", paths["eigen"]),
                paths["eigen"],
                {"kind": "sweep", "products": [(2 * n + 1) * BOUND for n in range(EIGENSWEEP_LEVELS)],
                 "classifications": ["minimal"] + ["strict"] * (EIGENSWEEP_LEVELS - 1)}),
    )
    return Plan(
        workload="sweep_compute",
        params={"temperatures": temperatures},
        commands=commands,
        inputs=(),
        work_items=THERMAL_TEMPERATURES * THERMAL_LEVELS + EIGENSWEEP_LEVELS,
        work_unit="eigenstates measured",
        largest_array={"what": f"Hermite basis ({EIGENSWEEP_LEVELS}, {EIGENSWEEP_GRID[2]}) float64",
                       "bytes": EIGENSWEEP_LEVELS * EIGENSWEEP_GRID[2] * 8},
    )


WORKLOADS = {"bulk_csv": _bulk_csv, "state_files": _state_files, "sweep_compute": _sweep_compute}


def plan(workload: str, seed: int, workdir: str) -> Plan:
    """The commands and checks of one workload for one seed."""
    return WORKLOADS[workload](random.Random(seed), workdir)
