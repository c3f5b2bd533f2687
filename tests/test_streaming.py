"""The streamed walk and sampler: their blocks against the whole-array
formulas bit for bit and their memory against the row count; and every table
(scan, sample, walk, sweep) in each form it is written in against per-row
formulas byte for byte."""

import json
import math

import numpy as np
import pytest

from fluctlab import FluctuationParams, InvalidRecipe, UnitSystem, relaxation_walk, sample, uncertainty_product
from fluctlab import io as fio
from fluctlab.cli import run
from fluctlab.density import sample_blocks
from fluctlab.scenarios import SweepRow, WalkTrace, walk_blocks

B = fio.BLOCK_ROWS
UNITS = UnitSystem()
START = FluctuationParams(0.25, -0.5, 2.0, 1.5, UNITS)
GAUSS = FluctuationParams(0.25, -0.5, 1.0, 0.25, UNITS)
WALK_ARGS = ["scenario", "walk", "--mean-x=0.25", "--mean-p=-0.5", "--var-x=2.0", "--var-p=1.5",
             "--step-size=0.05", "--seed", "7"]
SAMPLE_ARGS = ["density", "sample", "--mean-x=0.25", "--mean-p=-0.5", "--var-x=1.0", "--var-p=0.25",
               "--seed", "42"]


def _reference_walk(steps, step_size=0.05, seed=7):
    """The walk as one cumulative product over every step."""
    bound = UNITS.bound
    gap0 = max(uncertainty_product(START) - bound, 0.0)
    gaps = np.empty(steps + 1)
    gaps[0] = gap0
    gaps[1:] = gap0 * np.cumprod(1.0 - step_size * np.random.default_rng(seed).random(steps))
    np.maximum(gaps, 0.0, out=gaps)
    return [WalkTrace(k, bound + gap, gap) for k, gap in enumerate(gaps.tolist())]


def _reference_sample(count, seed=42):
    """The draws as one array: count x-normals, then count p-normals."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 2))
    out[:, 0] = GAUSS.mean_x + GAUSS.delta_x * rng.standard_normal(count)
    out[:, 1] = GAUSS.mean_p + GAUSS.delta_p * rng.standard_normal(count)
    return out


def _walk_csv(rows):
    return "step,product,distance_to_bound\n" + "".join(
        f"{r.step},{r.product!r},{r.distance_to_bound!r}\n" for r in rows
    )


def _walk_json(rows):
    return json.dumps([{"step": r.step, "product": r.product, "distance_to_bound": r.distance_to_bound} for r in rows])


def _samples_csv(draws):
    return "".join(["x,p\n", *(f"{float(x)!r},{float(p)!r}\n" for x, p in draws)])


def _scan_csv(rows):
    return "x,p,f\n" + "".join(f"{x!r},{p!r},{f!r}\n" for x, p, f in rows)


def _sweep_csv(rows):
    return "label,parameter,product,bound,classification,entropy_surrogate\n" + "".join(
        f"{r.label},{r.parameter!r},{r.product!r},{r.bound!r},{r.classification},{r.entropy_surrogate!r}\n"
        for r in rows
    )


def _sweep_json(rows):
    return json.dumps([
        {"label": r.label, "parameter": r.parameter, "product": r.product, "bound": r.bound,
         "classification": r.classification, "entropy_surrogate": r.entropy_surrogate}
        for r in rows
    ])


@pytest.mark.parametrize("steps", [0, B - 2, B - 1, B, 3 * B + 5])
def test_walk_blocks_match_one_cumulative_product(steps):
    reference = _reference_walk(steps)
    blocks = list(walk_blocks(START, steps, 0.05, 7))
    assert all(len(rows) <= B for rows, _, _ in blocks)
    assert [k for rows, _, _ in blocks for k in rows] == list(range(steps + 1))
    products = np.concatenate([p for _, p, _ in blocks])
    gaps = np.concatenate([g for _, _, g in blocks])
    assert products.tobytes() == np.array([r.product for r in reference]).tobytes()
    assert gaps.tobytes() == np.array([r.distance_to_bound for r in reference]).tobytes()
    assert relaxation_walk(START, steps, 0.05, 7) == reference


@pytest.mark.parametrize("count", [0, B - 1, B, B + 1, 3 * B + 5])
def test_sample_blocks_match_one_draw(count):
    reference = _reference_sample(count)
    blocks = list(sample_blocks(GAUSS, count, 42))
    assert all(block.shape == (min(B, count - i * B), 2) for i, block in enumerate(blocks))
    assert np.concatenate([np.empty((0, 2)), *blocks]).tobytes() == reference.tobytes()
    assert sample(GAUSS, count, 42).tobytes() == reference.tobytes()


def test_generators_admit_their_arguments_before_the_first_block():
    with pytest.raises(InvalidRecipe, match="steps"):
        walk_blocks(START, -1, 0.05, 7)
    with pytest.raises(InvalidRecipe, match="step_size"):
        walk_blocks(START, 10, 0.5, 7)
    with pytest.raises(InvalidRecipe, match="seed"):
        walk_blocks(START, 10, 0.05, -1)
    with pytest.raises(InvalidRecipe, match="count"):
        sample_blocks(GAUSS, -1, 7)
    with pytest.raises(InvalidRecipe, match="seed"):
        sample_blocks(GAUSS, 10, -1)


def _scan_tables(n, form, tmp_path):
    """A 1 x n and an n x 1 mesh, each written by write_scan_csv."""
    rng = np.random.default_rng(n)
    tables = []
    for n_x, n_p in ((1, n), (n, 1)):
        xs, ps, values = rng.standard_normal(n_x), rng.standard_normal(n_p), rng.random((n_x, n_p))
        path = tmp_path / f"scan-{n_x}x{n_p}.csv"
        fio.write_scan_csv(str(path), xs, ps, values)
        rows = [(x, p, f) for x, f_row in zip(xs.tolist(), values.tolist()) for p, f in zip(ps.tolist(), f_row)]
        tables.append((rows, path.read_text()))
    return tables


def _sample_tables(n, form, tmp_path):
    """sample_blocks' draws written by write_samples_csv."""
    path = tmp_path / "draws.csv"
    fio.write_samples_csv(str(path), sample_blocks(GAUSS, n, 42))
    return [(_reference_sample(n), path.read_text())]


def _walk_tables(n, form, tmp_path):
    """The walk of n points through walk_rows_csv or the records' table, and
    through the command line, which formats walk_blocks' blocks as they come."""
    rows = _reference_walk(n - 1) if n else []
    whole = fio.walk_rows_csv(rows) if form == "csv" else "".join(
        fio.table_chunks(WalkTrace._fields, [fio.record_block(rows)], form)
    )
    tables = [(rows, whole)]
    if n:
        path = tmp_path / f"walk.{form}"
        assert run([*WALK_ARGS, "--steps", str(n - 1), "--format", form, "--out", str(path)]) == 0
        tables.append((rows, path.read_text()))
    return tables


def _sweep_tables(n, form, tmp_path):
    """n sweep rows, the first the ground level n=0, through the table the command line writes
    (and sweep_rows_csv)."""
    rows = [SweepRow(f"n={k}", float(k), k + 0.5, 0.5, "strict" if k else "minimal", k / 3) for k in range(n)]
    tables = [(rows, "".join(fio.table_chunks(SweepRow._fields, [fio.record_block(rows)], form)))]
    if form == "csv":
        tables.append((rows, fio.sweep_rows_csv(rows)))
    return tables


TABLES = {
    "scan-csv": (_scan_tables, "csv", _scan_csv),
    "sample-csv": (_sample_tables, "csv", _samples_csv),
    "walk-csv": (_walk_tables, "csv", _walk_csv),
    "walk-json": (_walk_tables, "json", _walk_json),
    "sweep-csv": (_sweep_tables, "csv", _sweep_csv),
    "sweep-json": (_sweep_tables, "json", _sweep_json),
}


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
@pytest.mark.parametrize("tables, form, formula", TABLES.values(), ids=TABLES.keys())
def test_every_table_matches_its_row_formula(tmp_path, capsys, same_text, tables, form, formula, n):
    """Scans and samples are written as CSV only; walks and sweeps as CSV or JSON."""
    for rows, text in tables(n, form, tmp_path):
        assert len(rows) == n
        same_text(text, formula(rows))


@pytest.mark.parametrize("steps", [0, B - 2, B - 1, B])  # 1, B - 1, B and B + 1 rows
@pytest.mark.parametrize("form, formula", [("csv", _walk_csv), ("json", _walk_json)])
def test_walk_output_matches_the_row_formulas(tmp_path, capsys, same_text, steps, form, formula):
    expected = formula(_reference_walk(steps))
    out = tmp_path / f"walk.{form}"
    args = [*WALK_ARGS, "--steps", str(steps), "--format", form]
    assert run([*args, "--out", str(out)]) == 0
    same_text(out.read_text(), expected)
    assert capsys.readouterr().out == f"wrote {out} ({steps + 1} rows)\n"
    assert run(args) == 0
    same_text(capsys.readouterr().out, expected if expected.endswith("\n") else expected + "\n")


@pytest.mark.parametrize("count", [0, B - 1, B, B + 1])
def test_sample_output_matches_the_row_formula(tmp_path, capsys, same_text, count):
    out = tmp_path / "draws.csv"
    assert run([*SAMPLE_ARGS, "--count", str(count), "--out", str(out)]) == 0
    same_text(out.read_text(), _samples_csv(_reference_sample(count)))
    assert capsys.readouterr().out == f"wrote {out} ({count} draws)\n"


def _scan(*flags):
    """A scan's command line for about rows cells: a square mesh of isqrt(rows) points an axis."""
    return lambda rows: ["density", "eval", *flags, f"--scan-x=-3:3:{math.isqrt(rows)}",
                         f"--scan-p=-2:2:{math.isqrt(rows)}"]


@pytest.mark.parametrize(
    "command",
    [lambda rows: [*WALK_ARGS, "--steps", str(rows - 1)], lambda rows: [*SAMPLE_ARGS, "--count", str(rows)],
     _scan("--var-x=1.0", "--var-p=0.25"), _scan("--reduced", "--mean-x=0.25")],
    ids=["walk", "sample", "scan", "reduced-scan"],
)
def test_cli_memory_does_not_grow_with_rows(tmp_path, capsys, peak_bytes, command):
    """20 000 rows against 200 000 (a scan: 141 x 141 against 447 x 447): a
    scan makes its mesh a block at a time, as the walk and the sampler make
    their rows."""
    out = str(tmp_path / "out.csv")
    few, many = (peak_bytes(lambda: run([*command(rows), "--out", out])) for rows in (20_000, 200_000))
    capsys.readouterr()
    assert many <= 1.25 * few, (few, many)
