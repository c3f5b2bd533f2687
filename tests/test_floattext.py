"""_floattext writes repr's bytes: every float64 as Python's repr prints it,
every integer as str, and every table, CSV or JSON, and every document as
the Python formatters wrote them before, a block at a time, with the twin or
without."""

import json
from itertools import chain
from unittest import mock

import numpy as np
import pytest

from fluctlab import _cells, _floattext, _turns
from fluctlab import io as fio
from fluctlab.density import FluctuationParams
from fluctlab.errors import GridMismatch
from fluctlab.scenarios import SweepRow, WalkTrace, eigenstate_sweep, thermal_sweep, walk_blocks
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
        words, ends = _floattext.int_cells(column)
        cells = np.ascontiguousarray(words.T).view(np.uint8)  # a row of bytes a cell: the text, then zeros
        assert [bytes(row[:end]).decode() for row, end in zip(cells, ends)] == list(map(str, column.tolist()))
        assert not any(row[end:].any() for row, end in zip(cells, ends))


def _python_text(fields, blocks, form="csv") -> str:
    """A table as io's Python paths wrote it before _floattext laid out every
    table: CSV by one %-format of each block's Python values, one %r (or %s
    for a str) each, and JSON by json.dumps of one dict a row."""
    text = [",".join(fields) + "\n"]
    rows = []
    for block in blocks:
        columns = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in block]
        if columns[0]:
            line = ",".join("%s" if isinstance(column[0], str) else "%r" for column in columns) + "\n"
            text.append(line * len(columns[0]) % tuple(chain.from_iterable(zip(*columns))))
            rows.append(json.dumps([dict(zip(fields, row)) for row in zip(*columns)])[1:-1])
    return "".join(text) if form == "csv" else "[" + ", ".join(rows) + "]"


def _table(fields, blocks, form):
    """A write of blocks (a list, so that both processes replay it) as a
    Table, its expected text and its block count."""
    return lambda path: fio.atomic_write_text(path, fio.Table(fields, iter(blocks), form)), \
        _python_text(fields, blocks, form), len(blocks)


def _scan(n_x, n_p, form="csv"):
    rng = np.random.default_rng(n_x * n_p)
    xs, ps = np.linspace(-3.0, 3.0, n_x), np.linspace(-2.0, 2.0, n_p)
    values = np.exp(-np.add.outer(xs**2, ps**2) * rng.uniform(0.5, 400, (n_x, n_p)))
    values[0, :3] = [0.0, 1e-300, 5e-324][: values[0, :3].size]
    expected = _python_text(("x", "p", "f"), [(np.repeat(xs, n_p), np.tile(ps, n_x), values.ravel())], form)
    write = (lambda path: fio.write_scan_csv(path, xs, ps, values)) if form == "csv" else \
        (lambda path: fio.atomic_write_text(path, fio.Table(("x", "p", "f"), fio._scan_blocks(xs, ps, values), form)))
    return write, expected, -(-n_x * n_p // B)


def _samples(rows, form="csv"):
    draws = np.random.default_rng(rows).standard_normal((rows, 2)) * [1.0, 1e-7]
    return _table(("x", "p"), [draws[i : i + B].T for i in range(0, rows, B)], form)


def _walk(rows, form="csv"):
    start = FluctuationParams(0.0, 0.0, 2.0, 1.5, UnitSystem())
    return _table(WalkTrace._fields, list(walk_blocks(start, rows - 1, 0.05, rows)), form)


LABELS = ["n=0", "\u00e9t\u00e9 \u0127/2 \u2265 0", 'a "quoted" one', "back\\slash", "bell\x07tab\tunit\x1f", ""]


def _sweep(kind, form):
    """A sweep's records, as two blocks, their labels replaced by LABELS in
    turn: non-ASCII, ", \\, control characters and the empty string."""
    units, grid = UnitSystem(), GridSpec(-12.0, 12.0, 256)
    with mock.patch.object(_turns, "second_cpu", lambda: False):  # measured by one process: only the write forks
        rows = eigenstate_sweep(6, 1.0, 1.0, grid, units) if kind == "eigensweep" else \
            thermal_sweep([0.2, 0.4, 0.6, 0.8, 1.0, 1.2], 1.0, 1.0, 30, grid, units)
    rows = [SweepRow(LABELS[i % len(LABELS)], *list(vars(row).values())[1:]) for i, row in enumerate(rows)]
    return _table(SweepRow._fields, [fio.record_block(rows[:3]), fio.record_block(rows[3:])], form)


def _specials(form):
    """A float column with every value that repr and json.dumps write apart from the digits, and the layout's edges."""
    edges = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 9999999999999998.0, 1e-4]
    values = np.concatenate([np.tile(edges, 3), np.random.default_rng(5).standard_normal(B)])
    return _table(("step", "value"), [(range(0, B), values[:B]), (range(B, values.size), values[B:])], form)


def _int64(form):
    """An int64 column with its min and max, beside a list of ints and one of floats."""
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1, 10**18, -(10**17)] * 600, np.int64)
    halves = [ints[: B // 2], ints[B // 2 :]]
    return _table(("a", "b", "c"), [(h, (h // 7).tolist(), (h / 3).tolist()) for h in halves], form)


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


SIZES = {
    "scan-1": (_scan, 1, 1), "scan-4095": (_scan, 3, 1365), "scan-4096": (_scan, 2, 2048),
    "scan-4097": (_scan, 17, 241), "scan-p-row-longer-than-a-block": (_scan, 3, B + 1),
    **{f"samples-{B + d}": (_samples, B + d) for d in (-1, 0, 1)},
    **{f"walk-{B + d}": (_walk, B + d) for d in (-1, 0, 1)},
}
TABLES = {
    **{kind: (lambda make=make, args=args: make(*args)) for kind, (make, *args) in SIZES.items()},
    **{f"{kind}-json": (lambda make=make, args=args: make(*args, "json")) for kind, (make, *args) in SIZES.items()},
    **{f"{kind}-{form}": (lambda kind=kind, form=form: _sweep(kind, form))
       for kind in ("eigensweep", "thermalsweep") for form in ("csv", "json")},
    **{f"{make.__name__[1:]}-{form}": (lambda make=make, form=form: make(form))
       for make in (_specials, _int64) for form in ("csv", "json")},
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


@pytest.mark.parametrize("n_x, n_p", [(17, 241), (3, B + 1)], ids=["rows-in-a-block", "p-row-longer-than-a-block"])
def test_a_scan_formats_each_p_value_once(tmp_path, monkeypatch, same_text, n_x, n_p):
    """Each process formats a p slice once, not once a block: every value
    formatted is an x of a block, an (x, p) value, or one of the n_p."""
    monkeypatch.setattr(_turns, "second_cpu", lambda: False)
    monkeypatch.setattr(_floattext, "_AXES", {})
    formatted, float_cells = [], _floattext.float_cells
    monkeypatch.setattr(_floattext, "float_cells",
                        lambda values, form: formatted.append(np.size(values)) or float_cells(values, form))
    write, expected, _ = _scan(n_x, n_p)
    write(str(tmp_path / "scan.csv"))
    same_text((tmp_path / "scan.csv").read_text(), expected)
    assert sum(formatted) == n_p + n_x * -(-n_p // B) + n_x * n_p


@pytest.mark.parametrize("n", [B, 2 * B])
def test_the_formatters_working_set_per_value(monkeypatch, peak_bytes, n):
    """The tracemalloc peak of one block a float value, its kept words
    included: 88.2 B for float_cells and 95.6 for a two-column table_lines
    at 4096 values (87.2 and 95.3 at 8192), and for a walk-shaped block (a
    range and three float columns, n / 2 rows) 87.3 in CSV and 103.9 in JSON
    (84.6 and 103.9), each with an allowance of about 8%.  The kernel before,
    with its padded line buffer, held 145.4, 151.3, 144.5 and 162.6."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[::97] = 0.0  # zero, inf and nan rows take a path of their own
    columns = [values[: n // 2], values[n // 2 :]]
    rows = n // 2
    walk = [range(rows), rng.random(rows), rng.random(rows) + 0.5,
            rng.random(rows) * 10.0 ** rng.integers(-12, 0, rows)]
    walk_texts = {"csv": ["", ",", ",", ",", "\n"],
                  "json": [', {"step": ', ', "product": ', ', "bound": ', ', "distance_to_bound": ', "}"]}
    for action, count, bound in ((lambda: _floattext.float_cells(values, "csv"), n, 96),
                                 (lambda: _floattext.table_lines(columns, ["", ",", "\n"], "csv"), n, 104),
                                 (lambda: _floattext.table_lines(walk, walk_texts["csv"], "csv"), 3 * rows, 95),
                                 (lambda: _floattext.table_lines(walk, walk_texts["json"], "json"), 3 * rows, 113)):
        monkeypatch.setattr(_cells, "_KEPT", np.empty(0, np.uint64))
        assert peak_bytes(action, warm_up=False) / count < bound