"""JSON state/ensemble files, CSV emitters, and atomic writes.

Floats are serialized through Python's shortest round-trip repr, so files
reload to bit-identical doubles.  A state file and each member of an
ensemble file share one amplitude layout.  Every load parses its file once
and hands the parsed document to one parser; loaders re-verify
normalization and the decay guard instead of silently repairing data, and
refuse with FileFormatError what Python itself cannot read: integers too
large for a float or longer than its digit limit, and nesting deeper than
its recursion limit.

Scan and sample CSVs and walk CSV and JSON are streamed into the temp file
(or stdout) in blocks of BLOCK_ROWS rows as the rows are made, so their
memory is one block whatever the row count.
MAX_ROWS = 2**27 rows (1 GiB of float64 values) is the one size limit of
the command line: it refuses a scan, a sample, a walk (steps + 1 rows) or
a --grid of levels x N values above it with exit code 2 before allocating
anything.  It bounds a count, not memory: a --grid near the limit needs up to
about 20 GiB (see the README).  The sweeps hold one level at a time, so their
memory grows with N, not levels x N.
Every output gets the mode an ordinary open() would give it under the
process umask (0o644 under umask 022).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np

from .density import BLOCK_ROWS
from .errors import FileFormatError
from .scenarios import SweepRow, WalkTrace
from .states import GridSpec, MixedEnsemble, PureState, UnitSystem


MAX_ROWS = 2**27
"""Largest size the command line accepts (CSV rows, or levels x grid
points): the count of float64 values that fills 1 GiB.  A complex grid
value takes 16 bytes, so a --grid needs more."""


def atomic_write_text(path: str, text) -> None:
    """Write text (a str or an iterable of str chunks) to path via a temp
    file and rename, so failures leave no partial file."""
    chunks = (text,) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fluctlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        # mkstemp creates 0600; give the file the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _units_dict(units: UnitSystem) -> dict:
    return {"h": float(units.h)}


def _grid_dict(grid: GridSpec) -> dict:
    return {"x_min": float(grid.x_min), "x_max": float(grid.x_max), "n": int(grid.n)}


def _amplitude_dict(state: PureState) -> dict:
    return {"psi_re": state.amplitudes.real.tolist(), "psi_im": state.amplitudes.imag.tolist()}


def state_document(state: PureState, units: UnitSystem) -> dict:
    return {"units": _units_dict(units), "grid": _grid_dict(state.grid), **_amplitude_dict(state)}


def ensemble_document(ensemble: MixedEnsemble, units: UnitSystem) -> dict:
    return {
        "units": _units_dict(units),
        "grid": _grid_dict(ensemble.grid),
        "weights": ensemble.weights.tolist(),
        "members": [_amplitude_dict(m) for m in ensemble.members],
    }


def save_state(path: str, state: PureState, units: UnitSystem) -> None:
    atomic_write_text(path, json.dumps(state_document(state, units)))


def save_ensemble(path: str, ensemble: MixedEnsemble, units: UnitSystem) -> None:
    atomic_write_text(path, json.dumps(ensemble_document(ensemble, units)))


def _field(mapping, key, kind, where):
    if not isinstance(mapping, dict):
        raise FileFormatError(f"{where}: expected an object")
    if key not in mapping:
        raise FileFormatError(f"{where}.{key}: missing")
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FileFormatError(f"{where}.{key}: expected a number, got {type(value).__name__}")
        try:
            return float(value)
        except OverflowError as exc:
            raise FileFormatError(f"{where}.{key}: {exc}") from exc
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FileFormatError(f"{where}.{key}: expected an integer, got {type(value).__name__}")
        return value
    if kind is list and not isinstance(value, list):
        raise FileFormatError(f"{where}.{key}: expected a list, got {type(value).__name__}")
    return value


def _number_array(values, where):
    if not set(map(type, values)) <= {float, int}:  # in C; the loop below only names the first offender
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise FileFormatError(f"{where}[{i}]: expected a number, got {type(v).__name__}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _parse_units(doc) -> UnitSystem:
    return UnitSystem(h=_field(_field(doc, "units", dict, "document"), "h", float, "units"))


def _parse_grid(doc) -> GridSpec:
    grid = _field(doc, "grid", dict, "document")
    return GridSpec(
        x_min=_field(grid, "x_min", float, "grid"),
        x_max=_field(grid, "x_max", float, "grid"),
        n=_field(grid, "n", int, "grid"),
    )


def _parse_amplitudes(mapping, grid, where) -> np.ndarray:
    re = _number_array(_field(mapping, "psi_re", list, where), f"{where}.psi_re")
    im = _number_array(_field(mapping, "psi_im", list, where), f"{where}.psi_im")
    if re.size != grid.n or im.size != grid.n:
        raise FileFormatError(
            f"{where}: psi_re/psi_im lengths ({re.size}, {im.size}) do not match grid.n = {grid.n}"
        )
    return re + 1j * im


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and Python's digit limit
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _parse_document(doc: dict, ensemble: bool):
    """(PureState or MixedEnsemble, UnitSystem) from a parsed state or
    ensemble document; constructors re-verify normalization and the decay
    guard, so tampered files fail loudly."""
    units = _parse_units(doc)
    grid = _parse_grid(doc)
    if not ensemble:
        return PureState(grid, _parse_amplitudes(doc, grid, "document")), units
    weights = _number_array(_field(doc, "weights", list, "document"), "weights")
    members_doc = _field(doc, "members", list, "document")
    members = tuple(
        PureState(grid, _parse_amplitudes(m, grid, f"members[{i}]"))
        for i, m in enumerate(members_doc)
    )
    return MixedEnsemble(weights, members), units


def load_state(path: str):
    """Read a state file; returns (PureState, UnitSystem)."""
    return _parse_document(_load_json(path), ensemble=False)


def load_ensemble(path: str):
    """Read an ensemble file; returns (MixedEnsemble, UnitSystem)."""
    return _parse_document(_load_json(path), ensemble=True)


def load_target(path: str):
    """Read either file kind, sniffing by schema; returns (state-or-ensemble, units)."""
    doc = _load_json(path)
    return _parse_document(doc, ensemble="members" in doc or "weights" in doc)


# --- CSV and JSON emitters ---------------------------------------------------

def _csv(rows, header) -> str:
    lines = [header]
    lines.extend(",".join(fields) for fields in rows)
    return "\n".join(lines) + "\n"


def _reprs(values) -> list:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _sample_chunks(blocks):
    yield "x,p\n"
    for draws in blocks:
        for start in range(0, len(draws), BLOCK_ROWS):
            block = np.asarray(draws[start : start + BLOCK_ROWS], dtype=float)
            yield "".join(f"{x!r},{p!r}\n" for x, p in zip(block[:, 0].tolist(), block[:, 1].tolist()))


def write_samples_csv(path: str, draws) -> None:
    """Samples CSV of draws: a (count, 2) array, or an iterable of (k, 2)
    blocks such as density.sample_blocks yields, formatted as they come."""
    atomic_write_text(path, _sample_chunks((draws,) if isinstance(draws, np.ndarray) else draws))


def _scan_chunks(xs, ps, values):
    x_text = _reprs(xs)
    p_text = [f",{p}," for p in _reprs(ps)]
    p_step = min(len(p_text), BLOCK_ROWS) or 1
    x_step = BLOCK_ROWS // p_step
    yield "x,p,f\n"
    for i in range(0, len(x_text), x_step):
        for j in range(0, len(p_text), p_step):
            block = np.asarray(values[i : i + x_step, j : j + p_step], dtype=float).tolist()
            p_block = p_text[j : j + p_step]
            yield "".join(
                f"{x}{p}{f!r}\n" for x, row in zip(x_text[i : i + x_step], block) for p, f in zip(p_block, row)
            )


def write_scan_csv(path: str, xs, ps, values) -> None:
    """Mesh dump, one row per (x, p) pair, rows following xs then ps.

    Each axis value is formatted once; the values are formatted in blocks of
    at most BLOCK_ROWS rows (whole x-rows, or slices of one x-row when a row
    is longer than a block).
    """
    atomic_write_text(path, _scan_chunks(xs, ps, values))


def sweep_rows_csv(rows: list[SweepRow]) -> str:
    return _csv(
        (
            (r.label, repr(r.parameter), repr(r.product), repr(r.bound), r.classification, repr(r.entropy_surrogate))
            for r in rows
        ),
        "label,parameter,product,bound,classification,entropy_surrogate",
    )


def _json_chunks(record_blocks):
    """json.dumps of the list of every record (dict) in record_blocks, one chunk per block."""
    yield "["
    separator = ""
    for records in record_blocks:
        if records:
            yield separator + json.dumps(records)[1:-1]
            separator = ", "
    yield "]"


def rows_json(rows: list[SweepRow] | list[WalkTrace]) -> str:
    """One JSON object per sweep or walk row, keys in field order."""
    return "".join(_json_chunks([[vars(r) for r in rows]]))


_WALK_FIELDS = tuple(field.name for field in dataclasses.fields(WalkTrace))


def _walk_csv_chunks(row_blocks):
    """Walk CSV of blocks of (step, product, distance_to_bound) tuples, one chunk per block."""
    yield ",".join(_WALK_FIELDS) + "\n"
    for rows in row_blocks:
        yield "".join(f"{k},{product!r},{gap!r}\n" for k, product, gap in rows)


def walk_rows_csv(rows: list[WalkTrace]) -> str:
    return "".join(_walk_csv_chunks([[(r.step, r.product, r.distance_to_bound) for r in rows]]))


def walk_chunks(blocks, form: str):
    """Text chunks of a walk given as scenarios.walk_blocks blocks, formatted
    as each block comes: form "csv" gives the bytes of walk_rows_csv and
    "json" those of rows_json on the same walk's relaxation_walk rows."""
    row_blocks = (zip(rows, products.tolist(), gaps.tolist()) for rows, products, gaps in blocks)
    if form == "json":
        return _json_chunks([dict(zip(_WALK_FIELDS, row)) for row in block] for block in row_blocks)
    return _walk_csv_chunks(row_blocks)
