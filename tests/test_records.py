"""Every record the package defines keeps the contract of a frozen
dataclass (@dataclass(frozen=True)) of the same fields: its fields in
annotation order; positional, keyword and default binding; __post_init__
looked up at each call; no assignment or deletion; and the dataclass's ==,
hash, repr, vars() and pickling.  Each repr below is the text such a
dataclass gives."""

import math
import pickle

import numpy as np
import pytest

import fluctlab
from fluctlab import states
from fluctlab.audit import Verdict

GRID = fluctlab.GridSpec(0.0, 8.0, 8)
AMPLITUDES = [0, 0, 0, 0.6, 0.8, 0, 0, 0]
STATE = fluctlab.PureState(GRID, AMPLITUDES)
OTHER = fluctlab.PureState(GRID, [0, 0, 0, 0.8j, 0.6, 0, 0, 0])
UNITS = fluctlab.UnitSystem()
STATE_TEXT = ("PureState(grid=GridSpec(x_min=0.0, x_max=8.0, n=8), amplitudes=array([0. +0.j, 0. +0.j, 0. +0.j, "
              "0.6+0.j, 0.8+0.j, 0. +0.j, 0. +0.j,\n       0. +0.j]))")
OTHER_TEXT = ("PureState(grid=GridSpec(x_min=0.0, x_max=8.0, n=8), amplitudes=array([0. +0.j , 0. +0.j , 0. +0.j , "
              "0. +0.8j, 0.6+0.j , 0. +0.j ,\n       0. +0.j , 0. +0.j ]))")

# name: (positional arguments, the dataclass's repr, the fields in order)
RECORDS = {
    "UnitSystem": ((1.5,), "UnitSystem(h=1.5)", ["h"]),
    "GridSpec": ((0.0, 8.0, 8), "GridSpec(x_min=0.0, x_max=8.0, n=8)", ["x_min", "x_max", "n"]),
    "PureState": ((GRID, AMPLITUDES), STATE_TEXT, ["grid", "amplitudes"]),
    "MixedEnsemble": (([0.25, 0.75], (STATE, OTHER)),
                      f"MixedEnsemble(weights=array([0.25, 0.75]), members=({STATE_TEXT}, {OTHER_TEXT}))",
                      ["weights", "members"]),
    "HamiltonianSpec": ((2.0, np.zeros(8)), "HamiltonianSpec(mass=2.0, potential=array([0., 0., 0., 0., 0., 0., 0., 0.]))",
                        ["mass", "potential"]),
    "MomentReport": ((0.0, 0.5, 1.0, 0.25), "MomentReport(mean_x=0.0, mean_p=0.5, var_x=1.0, var_p=0.25)",
                     ["mean_x", "mean_p", "var_x", "var_p"]),
    "GaussianPacket": ((0.0, 0.5, 1.0), "GaussianPacket(center=0.0, momentum=0.5, sigma=1.0)",
                       ["center", "momentum", "sigma"]),
    "OscillatorEigenstate": ((3, 1.0, 1.0), "OscillatorEigenstate(n=3, mass=1.0, omega=1.0)", ["n", "mass", "omega"]),
    "CoherentState": ((1 + 2j, 1.0, 1.0), "CoherentState(alpha=(1+2j), mass=1.0, omega=1.0)", ["alpha", "mass", "omega"]),
    "RawSamples": (((1, 2.5),), "RawSamples(amplitudes=(1, 2.5))", ["amplitudes"]),
    "Classification": ((Verdict.MINIMAL, 0.5, 0.5, 0.0),
                       "Classification(verdict=<Verdict.MINIMAL: 'minimal'>, product=0.5, bound=0.5, relative_excess=0.0)",
                       ["verdict", "product", "bound", "relative_excess"]),
    "SelfSimilarityReport": (((1.0, 2.0), 1.5, 0.5),
                             "SelfSimilarityReport(member_delta_e=(1.0, 2.0), ensemble_delta_e=1.5, max_relative_spread=0.5)",
                             ["member_delta_e", "ensemble_delta_e", "max_relative_spread"]),
    "PhasePoint": ((1.0, -2.0), "PhasePoint(x=1.0, p=-2.0)", ["x", "p"]),
    "FluctuationParams": ((0.0, 0.0, 1.0, 1.0, UNITS),
                          "FluctuationParams(mean_x=0.0, mean_p=0.0, var_x=1.0, var_p=1.0, units=UnitSystem(h=6.283185307179586))",
                          ["mean_x", "mean_p", "var_x", "var_p", "units"]),
    "ExtremumCheck": ((1.0, 0.0, -2.0, True),
                      "ExtremumCheck(s_star=1.0, first_derivative=0.0, second_derivative=-2.0, is_max=True)",
                      ["s_star", "first_derivative", "second_derivative", "is_max"]),
    "SweepRow": (("n=0", 0.0, 0.5, 0.5, "minimal", 0.0),
                 "SweepRow(label='n=0', parameter=0.0, product=0.5, bound=0.5, classification='minimal', "
                 "entropy_surrogate=0.0)", ["label", "parameter", "product", "bound", "classification", "entropy_surrogate"]),
    "WalkTrace": ((0, 1.5, 1.0), "WalkTrace(step=0, product=1.5, distance_to_bound=1.0)", ["step", "product", "distance_to_bound"]),
}
WITH_ARRAYS = {"PureState", "MixedEnsemble", "HamiltonianSpec"}  # unhashable, and == of two of them is ambiguous
WITH_DEFAULTS = {"UnitSystem": "UnitSystem(h=6.283185307179586)",
                 "GaussianPacket": "GaussianPacket(center=0.0, momentum=0.0, sigma=1.0)",
                 "OscillatorEigenstate": "OscillatorEigenstate(n=3, mass=1.0, omega=1.0)",
                 "CoherentState": "CoherentState(alpha=1j, mass=1.0, omega=1.0)"}
NAMES = list(RECORDS)


def _record(name):
    args, text, fields = RECORDS[name]
    return getattr(fluctlab, name), args, text, fields


def test_every_record_is_here():
    assert len(RECORDS) == 17


@pytest.mark.parametrize("name", NAMES)
def test_repr_and_vars_are_the_dataclasss(name):
    cls, args, text, fields = _record(name)
    record = cls(*args)
    assert repr(record) == text
    assert list(vars(record)) == fields


@pytest.mark.parametrize("name", NAMES)
def test_keywords_bind_as_positions_do(name):
    cls, args, text, fields = _record(name)
    assert repr(cls(**dict(zip(fields, args)))) == text
    assert repr(cls(*args[:1], **dict(zip(fields[1:], args[1:])))) == text
    assert repr(cls(**dict(reversed(list(zip(fields, args)))))) == text


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_are_the_dataclasss(name):
    cls, args, _, fields = _record(name)
    record, again = cls(*args), cls(*args)
    values = tuple(vars(record).values())
    assert record == record and not record != record
    assert record.__eq__(values) is NotImplemented and record != values
    if name in WITH_ARRAYS:
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(ValueError):  # the field tuples' arrays compared: "truth value ... is ambiguous"
            record == again  # noqa: B015
    else:
        assert record == again and not record != again
        assert hash(record) == hash(again) == hash(values)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, text, fields = _record(name)
    record = cls(*args)
    for field in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_binding_refusals_are_type_errors(name):
    cls, args, _, fields = _record(name)
    with pytest.raises(TypeError):
        cls(*args, 0)  # one too many
    with pytest.raises(TypeError):
        cls(*args, not_a_field=0)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})  # given twice
    if name not in ("UnitSystem", "GaussianPacket"):  # every field of these two has a default
        with pytest.raises(TypeError):
            cls(**dict(zip(fields[1:], args[1:])))  # the first field missing
    if name not in WITH_DEFAULTS:
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_defaults_fill_what_is_not_given():
    assert repr(fluctlab.UnitSystem()) == WITH_DEFAULTS["UnitSystem"]
    assert fluctlab.UnitSystem().h == 2.0 * math.pi
    assert repr(fluctlab.GaussianPacket()) == WITH_DEFAULTS["GaussianPacket"]
    assert repr(fluctlab.OscillatorEigenstate(3)) == WITH_DEFAULTS["OscillatorEigenstate"]
    assert repr(fluctlab.CoherentState(alpha=1j)) == WITH_DEFAULTS["CoherentState"]
    assert repr(fluctlab.GaussianPacket(sigma=2.0, center=1.0)) == "GaussianPacket(center=1.0, momentum=0.0, sigma=2.0)"
    assert repr(fluctlab.CoherentState(1j, omega=3.0)) == "CoherentState(alpha=1j, mass=1.0, omega=3.0)"


@pytest.mark.parametrize("name", NAMES)
def test_a_pickle_round_trip_keeps_the_record(name):
    cls, args, text, fields = _record(name)
    record = cls(*args)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and repr(back) == text and list(vars(back)) == fields


def test_post_init_is_looked_up_at_each_call(monkeypatch):
    """A PureState's __post_init__ is the class's when the state is made, as
    a tracer that patches it relies on; _adopt runs none."""
    seen, real = [], states.PureState.__post_init__

    def traced(self):
        seen.append(self)
        real(self)

    monkeypatch.setattr(states.PureState, "__post_init__", traced)
    state = states.PureState(GRID, AMPLITUDES)
    assert len(seen) == 1 and seen[0] is state and repr(state) == STATE_TEXT
    adopted = states.PureState._adopt(GRID, np.array(AMPLITUDES, np.complex128))
    assert len(seen) == 1 and repr(adopted) == STATE_TEXT

    def refuse(self):
        raise fluctlab.InvalidRecipe("refused by the patch")

    monkeypatch.setattr(states.PureState, "__post_init__", refuse)
    with pytest.raises(fluctlab.InvalidRecipe, match="refused by the patch"):
        states.PureState(GRID, AMPLITUDES)


def test_post_init_normalizes_fields():
    """What __post_init__ makes of a field is the field: a grid's n an int,
    a state's amplitudes a frozen complex copy, an ensemble's members a tuple."""
    grid = fluctlab.GridSpec(0.0, 8.0, 8.0)
    assert type(grid.n) is int and grid == GRID and hash(grid) == hash(GRID)
    assert STATE.amplitudes.dtype == np.complex128 and not STATE.amplitudes.flags.writeable
    ensemble = fluctlab.MixedEnsemble([0.25, 0.75], [STATE, OTHER])
    assert type(ensemble.members) is tuple and list(vars(ensemble)) == ["weights", "members"]


def test_a_grids_cached_arrays_stay_with_it_and_not_in_its_pickle():
    grid = fluctlab.GridSpec(-1.0, 1.0, 8)
    assert grid.points() is grid.points() and grid._wavenumbers is grid._wavenumbers
    back = pickle.loads(pickle.dumps(grid))
    assert back == grid and list(vars(back)) == ["x_min", "x_max", "n"]
