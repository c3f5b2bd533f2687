"""_floattext writes repr's bytes: every float64 as Python's repr prints it,
every integer as str, and every numeric table and document as the Python
formatter wrote it before, a block at a time, with the twin or without."""

import json
from itertools import chain

import numpy as np
import pytest

from fluctlab import _floattext, _turns
from fluctlab import io as fio
from fluctlab.density import FluctuationParams
from fluctlab.errors import GridMismatch
from fluctlab.scenarios import WalkTrace, walk_blocks
from fluctlab.states import GridSpec, MixedEnsemble, RawSamples, UnitSystem, build_state

B = fio.BLOCK_ROWS


def _gate_values():
    """About a million values, the same each run: random bit patterns of both
    signs (nan and inf among them), every power of two and of ten, -9.5 * 10^k,
    the integers in +-100 000, subnormals, thousandths (whose shorter digits
    read back), the edges of repr's layout, and the four doubles whose
    products leave the least nonzero sticky part (see _round_to_odd)."""
    rng = np.random.default_rng(20201)
    return np.concatenate([
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [float(f"1e{k}") for k in range(-323, 309)],
        [-9.5 * 10.0**k for k in range(-323, 308)],
        np.arange(-100_000, 100_001, dtype=np.float64),
        rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64),
        np.arange(-275_000, 275_001) / 1000,
        [0.0, -0.0, 1e16, 9999999999999998.0, 1e-4, 1e-5, 1.7976931348623157e308, 5e-324, np.nan, np.inf, -np.inf],
        [6.802601037806062e+215, 6.538311315939327e+64, 6.794064501329792e-246, 1.3076622631878654e+65],
    ])


def test_floats_are_reprs_bytes():
    """The gate: repr's text for every value, in blocks of 4096 (1.2-1.3 s on
    a 2-vCPU host, about 70% of it repr's)."""
    values = _gate_values()
    assert values.size >= 10**6
    for i in range(0, values.size, 4096):
        block = values[i : i + 4096]
        expected = ", ".join(map(repr, block.tolist()))
        if _floattext.joined(block, ", ") != expected:
            got = _floattext.joined(block, ", ").split(", ")
            wrong = next(j for j, text in enumerate(expected.split(", ")) if got[j] != text)
            pytest.fail(f"{block[wrong].view(np.uint64):#018x}: {got[wrong]!r}, not {expected.split(', ')[wrong]!r}")


def test_integers_are_strs_bytes():
    values = np.array([0, 1, -1, 9, 10, -10, 99, 100, 10**18, -(2**63), 2**63 - 1], dtype=np.int64)
    for column in (values, np.array([0, 2**64 - 1, 10**19], dtype=np.uint64), np.arange(-3, 3, dtype=np.int32)):
        cells = _floattext.int_cells(column)
        assert [bytes(row[row != 0]).decode() for row in cells] == list(map(str, column.tolist()))


def _python_text(fields, blocks) -> str:
    """A CSV table as io's Python path writes it (the sweeps' tables, and every
    table before _floattext): each block's Python values, one %r (or %s for
    a str) each, by one %-format."""
    text = [",".join(fields) + "\n"]
    for block in blocks:
        columns = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in block]
        if columns[0]:
            line = ",".join("%s" if isinstance(column[0], str) else "%r" for column in columns) + "\n"
            text.append(line * len(columns[0]) % tuple(chain.from_iterable(zip(*columns))))
    return "".join(text)


def _scan(n_x, n_p):
    rng = np.random.default_rng(n_x * n_p)
    xs, ps = np.linspace(-3.0, 3.0, n_x), np.linspace(-2.0, 2.0, n_p)
    values = np.exp(-np.add.outer(xs**2, ps**2) * rng.uniform(0.5, 400, (n_x, n_p)))
    values[0, :3] = [0.0, 1e-300, 5e-324][: values[0, :3].size]
    expected = _python_text(("x", "p", "f"), [(np.repeat(xs, n_p), np.tile(ps, n_x), values.ravel())])
    return lambda path: fio.write_scan_csv(path, xs, ps, values), expected, -(-n_x * n_p // B)


def _samples(rows):
    draws = np.random.default_rng(rows).standard_normal((rows, 2)) * [1.0, 1e-7]
    blocks = [draws[i : i + B].T for i in range(0, rows, B)]
    return lambda path: fio.atomic_write_text(path, fio.Table(("x", "p"), blocks, "csv")), \
        _python_text(("x", "p"), blocks), len(blocks)


def _walk(rows):
    start = FluctuationParams(0.0, 0.0, 2.0, 1.5, UnitSystem())
    blocks = list(walk_blocks(start, rows - 1, 0.05, rows))
    return lambda path: fio.atomic_write_text(path, fio.Table(WalkTrace._fields, iter(blocks), "csv")), \
        _python_text(WalkTrace._fields, blocks), len(blocks)


def _document(members):
    """A state on the smallest grid, 8 points, or an ensemble of 3 such: 3 weights."""
    units, grid = UnitSystem(), GridSpec(-1.0, 1.0, 8)
    states = [build_state(RawSamples((0.0, 1.0, 0.5j + m, -1e-300, 5e-324, 2.0 ** -25, 1e16, 0.0)), grid, units)
              for m in range(max(members, 1))]
    if not members:
        return lambda path: fio.save_state(path, states[0], units), json.dumps(fio.state_document(states[0], units)), 2
    ensemble = MixedEnsemble(np.array([0.5, 0.25, 0.25]), tuple(states))
    return lambda path: fio.save_ensemble(path, ensemble, units), \
        json.dumps(fio.ensemble_document(ensemble, units)), 1 + 2 * members


TABLES = {
    "scan-1": lambda: _scan(1, 1), "scan-4095": lambda: _scan(3, 1365), "scan-4096": lambda: _scan(2, 2048),
    "scan-4097": lambda: _scan(17, 241), "scan-p-row-longer-than-a-block": lambda: _scan(3, B + 1),
    **{f"samples-{B + d}": (lambda d=d: _samples(B + d)) for d in (-1, 0, 1)},
    **{f"walk-{B + d}": (lambda d=d: _walk(B + d)) for d in (-1, 0, 1)},
    "state-8-points": lambda: _document(0), "ensemble-3-members": lambda: _document(3),
}


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "alone"])
@pytest.mark.parametrize("kind", TABLES)
def test_every_numpy_table_is_the_python_formatters_bytes(tmp_path, monkeypatch, forks, same_text, kind, twin):
    write, expected, blocks = TABLES[kind]()
    if not twin:
        monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    path = tmp_path / "table"
    write(str(path))
    same_text(path.read_text(), expected)
    assert len(forks) == (twin and blocks >= 2)


@pytest.mark.parametrize("twin", [True, False], ids=["twin", "alone"])
def test_a_scans_refusals_keep_their_messages(tmp_path, monkeypatch, forks, twin):
    if not twin:
        monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    xs, ps = np.arange(4.0), np.arange(float(B))
    with pytest.raises(GridMismatch, match=r"^scan values have shape \(4, 5\), not the axes' \(4, 4096\)$"):
        fio.write_scan_csv(str(tmp_path / "scan.csv"), xs, ps, np.zeros((4, 5)))

    class Shapeless:
        def __getitem__(self, key):
            return np.zeros((5, B))[key]

    with pytest.raises(GridMismatch, match=r"^scan values block at \[3, 0\] has shape \(2, 4096\), not \(1, 4096\)$"):
        fio.write_scan_csv(str(tmp_path / "scan.csv"), xs, ps, Shapeless())
    assert list(tmp_path.iterdir()) == []
