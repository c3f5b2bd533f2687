"""Hypothesis fuzz of the command line: every subcommand, run in-process
through cli.run on numbers at the edges of the float range and on sizes far
beyond the admission limit, must end in a documented exit code (0-3), never
let an exception escape, and leave no output file or temp file behind when
it fails.  A run that succeeds prints and writes only finite numbers, and
no run lets numpy warn of an overflow or an invalid value: each is decided
by a check, so the RuntimeWarning is an error here.

Sizes are -1..64, above io.MAX_ROWS or 400 digits long, so every request
the program admits is small and every large one must be refused before it
is allocated.
"""

import contextlib
import io
import math
import os
import pathlib
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import cli
from fluctlab import io as fio
from fluctlab.states import (
    GaussianPacket,
    GridSpec,
    MixedEnsemble,
    PureState,
    UnitSystem,
    build_state,
    oscillator_eigenstates,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FLOAT_MAX = sys.float_info.max
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")
EXTREMES = [0.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 1e-320, FLOAT_MAX, -FLOAT_MAX, math.nan, math.inf, -math.inf]


def _mix(*weighted):
    """Draw from one of the strategies, chosen with the given integer weights
    (hypothesis leans toward the first, so the ordinary one goes first)."""
    return st.sampled_from([s for s, weight in weighted for _ in range(weight)]).flatmap(lambda s: s)


# Ordinary values outweigh the extremes, so that most runs get past the
# first parameter checks and reach the numerics behind them.
NUMBERS = _mix((st.floats(0.25, 4.0), 2), (st.sampled_from(EXTREMES), 1), (st.floats(-10.0, 10.0), 1)).map(repr)
FRACTIONS = _mix((st.floats(1e-6, 0.09).map(repr), 1), (NUMBERS, 1))   # step sizes, epsilon, fd step
SIZES = _mix(
    (st.integers(-1, 64), 3), (st.integers(fio.MAX_ROWS + 1, 2**64), 1), (st.just(10**400 - 1), 1)
).map(str)
POINTS = _mix((st.integers(8, 64).map(str), 2), (SIZES, 1))   # grids and axes need 8 or 2 points
RANGES = _mix(
    (st.tuples(st.sampled_from(["-12.0", "-20.0"]), st.sampled_from(["12.0", "20.0"]), POINTS), 2),
    (st.tuples(NUMBERS, NUMBERS, POINTS), 1),
).map(":".join)
READABLE = ("spike", "state", "ensemble")
MALFORMED = ("garbage", "deep", "huge-int", "missing")
INPUTS = READABLE + MALFORMED


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _switch(name):
    return st.just([f"--{name}"])


def _command(prefix, required=(), optional=()):
    """argv strategy: prefix, every required flag, and any of the optional ones."""
    return st.fixed_dictionaries(dict(enumerate(required)), optional=dict(enumerate(optional, len(required)))).map(
        lambda tokens: [*prefix, *(t for key in sorted(tokens) for t in tokens[key])]
    )


AUDIT_INPUTS = _mix((st.sampled_from(READABLE), 3), (st.sampled_from(MALFORMED), 1)).map(
    lambda name: "{" + name + "}"
)
UNITS = _flag("h", NUMBERS)
OUT = st.just(["--out={out}"])
MEANS = (_flag("mean-x", NUMBERS), _flag("mean-p", NUMBERS))
VARIANCES = (_flag("var-x", NUMBERS), _flag("var-p", NUMBERS))
FORMAT = _flag("format", st.sampled_from(["csv", "json"]))
OSCILLATOR = (_flag("mass", NUMBERS), _flag("omega", NUMBERS))

COMMANDS = {
    "state": _command(
        ["state"],
        [
            st.one_of(
                _switch("gaussian"),
                _flag("eigenstate", SIZES),
                _flag("coherent", st.tuples(NUMBERS, NUMBERS).map(",".join)),
            ),
            _flag("grid", RANGES),
            OUT,
        ],
        [UNITS, _flag("center", NUMBERS), _flag("momentum", NUMBERS), _flag("sigma", NUMBERS), *OSCILLATOR],
    ),
    "audit": _command(
        ["audit"],
        [_flag("in", AUDIT_INPUTS)],
        [UNITS, _flag("epsilon", FRACTIONS), _flag("delta-e", NUMBERS), _switch("strict"), OUT],
    ),
    "density eval": _command(
        ["density", "eval"],
        [],
        [UNITS, *MEANS, *VARIANCES, _flag("x", NUMBERS), _flag("p", NUMBERS), _switch("reduced"),
         _flag("scan-x", RANGES), _flag("scan-p", RANGES), OUT],
    ),
    "density eval point": _command(
        ["density", "eval"],
        [*VARIANCES, _flag("x", NUMBERS), _flag("p", NUMBERS)],
        [UNITS, *MEANS, _switch("reduced")],
    ),
    "density eval scan": _command(
        ["density", "eval"],
        [*VARIANCES, _flag("scan-x", RANGES), _flag("scan-p", RANGES), OUT],
        [UNITS, *MEANS, _switch("reduced")],
    ),
    "density sample": _command(
        ["density", "sample"],
        [*VARIANCES, _flag("count", SIZES), _flag("seed", SIZES), OUT],
        [UNITS, *MEANS],
    ),
    "density extremize": _command(
        ["density", "extremize"], [_flag("x", NUMBERS), _flag("p", NUMBERS)], [UNITS, *MEANS]
    ),
    "density verify": _command(
        ["density", "verify"],
        [_flag("x", NUMBERS), _flag("p", NUMBERS)],
        [UNITS, *MEANS, _flag("fd-step", FRACTIONS)],
    ),
    "density normcheck": _command(
        ["density", "normcheck"],
        [],
        [UNITS, *MEANS, *VARIANCES, _flag("half-width", NUMBERS), _switch("reduced"),
         _flag("box-half-width", NUMBERS)],
    ),
    "density normcheck reduced": _command(
        ["density", "normcheck", "--reduced"], [_flag("box-half-width", NUMBERS)], [UNITS, *MEANS]
    ),
    "scenario eigensweep": _command(
        ["scenario", "eigensweep"],
        [_flag("n-max", SIZES), _flag("grid", RANGES)],
        [UNITS, *OSCILLATOR, _flag("epsilon", FRACTIONS), OUT, FORMAT],
    ),
    "scenario thermalsweep": _command(
        ["scenario", "thermalsweep"],
        [_flag("temperatures", st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)),
         _flag("n-max", SIZES), _flag("grid", RANGES)],
        [UNITS, *OSCILLATOR, _flag("epsilon", FRACTIONS), OUT, FORMAT],
    ),
    "scenario walk": _command(
        ["scenario", "walk"],
        [*VARIANCES, _flag("steps", SIZES), _flag("step-size", FRACTIONS), _flag("seed", SIZES)],
        [UNITS, *MEANS, OUT, FORMAT],
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One file per kind of audit input: good, below-bound and malformed."""
    root = tmp_path_factory.mktemp("inputs")
    units = UnitSystem()
    grid = GridSpec(-12.0, 12.0, 64)
    paths = {name: str(root / f"{name}.json") for name in INPUTS}
    fio.save_state(paths["state"], build_state(GaussianPacket(), grid, units), units)
    levels = oscillator_eigenstates(1, 1.0, 1.0, grid, units)
    fio.save_ensemble(paths["ensemble"], MixedEnsemble(np.array([0.75, 0.25]), levels), units)
    spike = np.zeros(8, dtype=complex)
    spike[4] = 1.0
    fio.save_state(paths["spike"], PureState(GridSpec(-4.0, 4.0, 8), spike), units)
    texts = {"garbage": "not json {", "deep": "[" * 100_000, "huge-int": '{"units": {"h": 1' + "0" * 400 + "}}"}
    for name, text in texts.items():
        with open(paths[name], "w") as handle:
            handle.write(text)
    return paths


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_ends_in_documented_exit_code(command, inputs, data):
    argv = data.draw(COMMANDS[command], label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [token.format(out=out, **inputs) for token in argv]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.run(argv)
        left = sorted(os.listdir(tmp))
        written = pathlib.Path(out).read_text() if left == ["out"] else ""
    assert code in (0, 1, 2, 3)
    assert not [name for name in left if name.startswith(".fluctlab-")]
    if code != 0:
        assert left == [], (code, left)
    else:
        assert not NON_FINITE.search(stdout.getvalue() + written), (stdout.getvalue(), written[:500])
