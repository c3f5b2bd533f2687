"""Output oracle: re-derive every command's result from closed forms.

Each check returns a list of problems; an empty list means the output is
correct.  Scan rows are recomputed from the density formulas at the
printed x,p; samples are held to their parameters within a stated number
of standard errors; walks must be monotone and never cross the bound;
audits and sweeps must reproduce the analytic uncertainty products.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from workloads import BOUND, TOLERANCES

_WROTE = re.compile(r"^wrote .* \(var_x=(?P<var_x>[^,]+), var_p=(?P<var_p>[^)]+)\)$")


def _table(path: str, header: str, columns: int):
    """Numeric body of a CSV, or a problem string."""
    with open(path) as handle:
        found = handle.readline().rstrip("\n")
    if found != header:
        return f"header {found!r}, expected {header!r}"
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, columns)
    except ValueError as exc:
        return f"unparsable CSV: {exc}"


def _mismatch_rows(found, expected, rtol, atol):
    return np.flatnonzero(~(np.abs(found - expected) <= rtol * np.abs(expected) + atol))


def check_scan(spec: dict, path: str) -> list:
    table = _table(path, "x,p,f", 3)
    if isinstance(table, str):
        return [table]
    xs, ps = np.linspace(*spec["scan_x"]), np.linspace(*spec["scan_p"])
    if table.shape[0] != xs.size * ps.size:
        return [f"{table.shape[0]} rows, expected {xs.size * ps.size}"]
    x, p, f = table.T
    problems = []
    if not (np.array_equal(x, np.repeat(xs, ps.size)) and np.array_equal(p, np.tile(ps, xs.size))):
        problems.append("x,p columns do not follow the requested mesh")
    dx, dp = x - spec["mean_x"], p - spec["mean_p"]
    if spec["form"] == "gauss":
        pref = 1.0 / (2.0 * math.pi * math.sqrt(spec["var_x"] * spec["var_p"]))
        expected = pref * np.exp(-0.5 * (dx**2 / spec["var_x"] + dp**2 / spec["var_p"]))
    else:
        expected = (2.0 / (2.0 * math.pi)) * np.exp(-2.0 * np.abs(dx * dp))
    bad = _mismatch_rows(f, expected, TOLERANCES["scan_f_rtol"], TOLERANCES["scan_f_atol"])
    if bad.size:
        i = int(bad[0])
        problems.append(f"{bad.size} f values off the closed form, first at data row {i}: "
                        f"{float(f[i])!r} vs {float(expected[i])!r}")
    return problems


def check_sample(spec: dict, path: str) -> list:
    table = _table(path, "x,p", 2)
    if isinstance(table, str):
        return [table]
    n = table.shape[0]
    if n != spec["rows"]:
        return [f"{n} rows, expected {spec['rows']}"]
    k = TOLERANCES["sample_standard_errors"]
    problems = []
    for column, axis in zip(table.T, ("x", "p")):
        mean, var = spec[f"mean_{axis}"], spec[f"var_{axis}"]
        if abs(column.mean() - mean) > k * math.sqrt(var / n):
            problems.append(f"mean_{axis} {float(column.mean())!r} more than {k} SE from {mean!r}")
        if abs(column.var(ddof=1) - var) > k * var * math.sqrt(2.0 / (n - 1)):
            problems.append(f"var_{axis} {float(column.var(ddof=1))!r} more than {k} SE from {var!r}")
    return problems


def check_walk(spec: dict, path: str) -> list:
    table = _table(path, "step,product,distance_to_bound", 3)
    if isinstance(table, str):
        return [table]
    if table.shape[0] != spec["steps"] + 1:
        return [f"{table.shape[0]} rows, expected steps+1 = {spec['steps'] + 1}"]
    step, product, distance = table.T
    rtol = TOLERANCES["walk_rtol"]
    problems = []
    if not np.array_equal(step, np.arange(spec["steps"] + 1)):
        problems.append("step column is not 0..steps")
    if np.any(np.diff(product) > 0):
        problems.append(f"product increases at step {int(np.flatnonzero(np.diff(product) > 0)[0]) + 1}")
    if np.any(product < BOUND):
        problems.append(f"product drops below the bound {BOUND!r}")
    if np.any(np.abs(product - BOUND - distance) > rtol * product):
        problems.append("distance_to_bound differs from product - bound")
    if abs(product[0] - spec["start_product"]) > rtol * spec["start_product"]:
        problems.append(f"start product {float(product[0])!r}, expected {spec['start_product']!r}")
    return problems


def _close(found: float, expected: float, rtol: float) -> bool:
    return abs(found - expected) <= rtol * abs(expected)


def check_state(spec: dict, stdout: str) -> list:
    match = _WROTE.match(stdout.strip())
    if not match:
        return [f"unexpected stdout {stdout.strip()!r}"]
    rtol = TOLERANCES["printed_var_rtol"]
    return [
        f"{key} {match[key]} vs {spec[key]!r}"
        for key in ("var_x", "var_p")
        if not _close(float(match[key]), spec[key], rtol)
    ]


def check_audit(spec: dict, stdout: str) -> list:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not a JSON report: {exc}"]
    problems = []
    if report.get("classification") != spec["classification"]:
        problems.append(f"classification {report.get('classification')!r}, expected {spec['classification']!r}")
    if not _close(report.get("product", math.nan), spec["product"], TOLERANCES["product_rtol"]):
        problems.append(f"product {report.get('product')!r}, expected {spec['product']!r}")
    if report.get("bound") != BOUND:
        problems.append(f"bound {report.get('bound')!r}, expected {BOUND!r}")
    return problems


def check_sweep(spec: dict, path: str) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(spec["products"]):
        return [f"{len(rows)} rows, expected {len(spec['products'])}"]
    problems = []
    for i, (row, product, verdict) in enumerate(zip(rows, spec["products"], spec["classifications"])):
        if not _close(float(row["product"]), product, TOLERANCES["product_rtol"]):
            problems.append(f"row {i}: product {row['product']}, expected {product!r}")
        if row["classification"] != verdict:
            problems.append(f"row {i}: classification {row['classification']}, expected {verdict}")
    return problems


def check(spec: dict, output: str | None, stdout: str) -> list:
    """Problems with one command's result; [] when it is correct."""
    kind = spec["kind"]
    try:
        if kind in ("state", "audit"):
            return {"state": check_state, "audit": check_audit}[kind](spec, stdout)
        return {"scan": check_scan, "sample": check_sample, "walk": check_walk,
                "sweep": check_sweep}[kind](spec, output)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{kind} check failed: {type(exc).__name__}: {exc}"]
