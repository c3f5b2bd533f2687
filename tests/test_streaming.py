"""The streamed walk and sampler: their blocks against the whole-array
formulas bit for bit, their CSV and JSON against the per-row formulas byte for
byte, and their memory against the row count."""

import json

import numpy as np
import pytest

from fluctlab import FluctuationParams, InvalidRecipe, UnitSystem, relaxation_walk, sample, uncertainty_product
from fluctlab import io as fio
from fluctlab.cli import run
from fluctlab.density import sample_blocks
from fluctlab.scenarios import WalkTrace, walk_blocks

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
    return fio._csv(((str(r.step), repr(r.product), repr(r.distance_to_bound)) for r in rows),
                    "step,product,distance_to_bound")


def _walk_json(rows):
    return json.dumps([vars(r) for r in rows])


def _samples_csv(draws):
    return "".join(["x,p\n", *(f"{float(x)!r},{float(p)!r}\n" for x, p in draws)])


@pytest.mark.parametrize("steps", [0, B - 2, B - 1, B, 3 * B + 5])
def test_walk_blocks_match_one_cumulative_product(steps):
    reference = _reference_walk(steps)
    blocks = list(walk_blocks(START, steps, 0.05, 7, UNITS))
    assert all(len(rows) <= B for rows, _, _ in blocks)
    assert [k for rows, _, _ in blocks for k in rows] == list(range(steps + 1))
    products = np.concatenate([p for _, p, _ in blocks])
    gaps = np.concatenate([g for _, _, g in blocks])
    assert products.tobytes() == np.array([r.product for r in reference]).tobytes()
    assert gaps.tobytes() == np.array([r.distance_to_bound for r in reference]).tobytes()
    assert relaxation_walk(START, steps, 0.05, 7, UNITS) == reference


@pytest.mark.parametrize("count", [0, B - 1, B, B + 1, 3 * B + 5])
def test_sample_blocks_match_one_draw(count):
    reference = _reference_sample(count)
    blocks = list(sample_blocks(GAUSS, count, 42))
    assert all(block.shape == (min(B, count - i * B), 2) for i, block in enumerate(blocks))
    assert np.concatenate([np.empty((0, 2)), *blocks]).tobytes() == reference.tobytes()
    assert sample(GAUSS, count, 42).tobytes() == reference.tobytes()


def test_generators_admit_their_arguments_before_the_first_block():
    with pytest.raises(InvalidRecipe, match="steps"):
        walk_blocks(START, -1, 0.05, 7, UNITS)
    with pytest.raises(InvalidRecipe, match="step_size"):
        walk_blocks(START, 10, 0.5, 7, UNITS)
    with pytest.raises(InvalidRecipe, match="seed"):
        walk_blocks(START, 10, 0.05, -1, UNITS)
    with pytest.raises(InvalidRecipe, match="count"):
        sample_blocks(GAUSS, -1, 7)
    with pytest.raises(InvalidRecipe, match="seed"):
        sample_blocks(GAUSS, 10, -1)


@pytest.mark.parametrize("form, formula", [("csv", _walk_csv), ("json", _walk_json)])
def test_walk_formatters_match_the_row_formulas(form, formula):
    assert "".join(fio.walk_chunks(iter(()), form)) == formula([])
    rows = _reference_walk(B + 1)
    assert "".join(fio.walk_chunks(walk_blocks(START, B + 1, 0.05, 7, UNITS), form)) == formula(rows)
    whole = fio.walk_rows_csv(rows) if form == "csv" else fio.rows_json(rows)
    assert whole == formula(rows)


@pytest.mark.parametrize("steps", [0, B - 2, B - 1, B])  # 1, B - 1, B and B + 1 rows
@pytest.mark.parametrize("form, formula", [("csv", _walk_csv), ("json", _walk_json)])
def test_walk_output_matches_the_row_formulas(tmp_path, capsys, steps, form, formula):
    expected = formula(_reference_walk(steps))
    out = tmp_path / f"walk.{form}"
    args = [*WALK_ARGS, "--steps", str(steps), "--format", form]
    assert run([*args, "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert capsys.readouterr().out == f"wrote {out} ({steps + 1} rows)\n"
    assert run(args) == 0
    assert capsys.readouterr().out == (expected if expected.endswith("\n") else expected + "\n")


@pytest.mark.parametrize("count", [0, B - 1, B, B + 1])
def test_sample_output_matches_the_row_formula(tmp_path, capsys, count):
    out = tmp_path / "draws.csv"
    assert run([*SAMPLE_ARGS, "--count", str(count), "--out", str(out)]) == 0
    assert out.read_text() == _samples_csv(_reference_sample(count))
    assert capsys.readouterr().out == f"wrote {out} ({count} draws)\n"


@pytest.mark.parametrize(
    "command, size",
    [([*WALK_ARGS, "--steps"], lambda rows: rows - 1), ([*SAMPLE_ARGS, "--count"], lambda rows: rows)],
    ids=["walk", "sample"],
)
def test_cli_memory_does_not_grow_with_rows(tmp_path, capsys, peak_bytes, command, size):
    out = str(tmp_path / "out.csv")
    few, many = (
        peak_bytes(lambda: run([*command, str(size(rows)), "--out", out]))
        for rows in (20_000, 200_000)
    )
    capsys.readouterr()
    assert many <= 1.25 * few, (few, many)
