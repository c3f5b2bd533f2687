"""Classification, time-energy, entropy surrogate, and audit reports."""

import math

import numpy as np
import pytest

from fluctlab import (
    HamiltonianSpec,
    CoherentState,
    GridSpec,
    MixedEnsemble,
    MomentReport,
    NonPositiveInput,
    OscillatorEigenstate,
    Verdict,
    audit_report,
    build_state,
    classify,
    entropy_surrogate,
    self_similarity_report,
    thermal_ensemble,
    time_energy,
    uncertainty_product,
)


def test_uncertainty_product_values():
    assert uncertainty_product(MomentReport(0, 0, 1.0, 0.25)) == 0.5
    assert uncertainty_product(MomentReport(0, 0, 1.5, 1.5)) == pytest.approx(1.5, rel=1e-15)
    assert uncertainty_product(MomentReport(0, 0, 0.0, 0.0)) == 0.0


def test_classify_minimal(units):
    result = classify(MomentReport(0, 0, 1.0, 0.25), units)
    assert result.verdict is Verdict.MINIMAL
    assert abs(result.relative_excess) <= 1e-8
    assert result.bound == pytest.approx(0.5, rel=1e-15)


def test_classify_strict(units):
    result = classify(MomentReport(0, 0, 1.5, 1.5), units)
    assert result.verdict is Verdict.STRICT
    assert result.relative_excess == pytest.approx(2.0, rel=1e-12)


def test_classify_below_bound(units):
    result = classify(MomentReport(0, 0, 0.1, 0.1), units)
    assert result.verdict is Verdict.BELOW_BOUND
    assert result.product == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, 0.1, 0.5])
def test_classify_epsilon_range(units, epsilon):
    with pytest.raises(ValueError):
        classify(MomentReport(0, 0, 1.0, 0.25), units, epsilon=epsilon)


def test_classify_boundary_both_sides(units):
    eps = 1e-6
    for sign, inside, outside in ((1, Verdict.MINIMAL, Verdict.STRICT),
                                  (-1, Verdict.MINIMAL, Verdict.BELOW_BOUND)):
        v_in = units.bound * (1.0 + sign * eps * (1.0 - 1e-3))
        v_out = units.bound * (1.0 + sign * eps * (1.0 + 1e-3))
        assert classify(MomentReport(0, 0, v_in, v_in), units, eps).verdict is inside
        assert classify(MomentReport(0, 0, v_out, v_out), units, eps).verdict is outside


def test_classify_scale_consistency(units):
    rng = np.random.default_rng(11)
    base = MomentReport(0, 0, 1.3, 0.8)
    reference = classify(base, units)
    for _ in range(50):
        c = 10.0 ** rng.uniform(-6, 6)
        scaled = classify(MomentReport(0, 0, base.var_x * c, base.var_p / c), units)
        assert scaled.verdict is reference.verdict
        assert scaled.product == pytest.approx(reference.product, rel=1e-12)
        assert scaled.relative_excess == pytest.approx(reference.relative_excess, abs=1e-12)


def test_time_energy_examples(units):
    assert time_energy(0.5, units) == pytest.approx(1.0, abs=1e-12)
    assert time_energy(1.0, units) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NonPositiveInput):
        time_energy(0.0, units)
    with pytest.raises(NonPositiveInput):
        time_energy(-2.0, units)


def test_time_energy_round_trip(units):
    for delta_e in np.logspace(-6, 6, 25):
        assert time_energy(time_energy(delta_e, units), units) == pytest.approx(delta_e, rel=1e-12)


def test_entropy_surrogate_values(grid, units):
    member = build_state(OscillatorEigenstate(0), grid, units)
    other = build_state(OscillatorEigenstate(1), grid, units)
    assert entropy_surrogate(MixedEnsemble(np.array([1.0]), (member,))) == 0.0
    half = MixedEnsemble(np.array([0.5, 0.5]), (member, other))
    assert entropy_surrogate(half) == pytest.approx(math.log(2.0), rel=1e-12)
    skew = MixedEnsemble(np.array([0.9, 0.1]), (member, other))
    # -0.9 ln 0.9 - 0.1 ln 0.1 at 40 digits
    assert entropy_surrogate(skew) == pytest.approx(0.32508297339144824, rel=1e-12)


def test_self_similarity_single_member(grid, units):
    state = build_state(CoherentState(1 + 0j), grid, units)
    ensemble = MixedEnsemble(np.array([1.0]), (state,))
    report = self_similarity_report(ensemble, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert report.member_delta_e[0] == pytest.approx(1.0, abs=1e-4)
    assert report.ensemble_delta_e == pytest.approx(1.0, abs=1e-4)
    assert report.max_relative_spread == 0.0
    assert self_similarity_report(state, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units) == report


def test_self_similarity_duplicated_members(grid, units):
    state = build_state(CoherentState(1 + 0j), grid, units)
    ensemble = MixedEnsemble(np.array([0.5, 0.5]), (state, state))
    report = self_similarity_report(ensemble, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert report.max_relative_spread <= 1e-10


def test_self_similarity_exposes_mixture_spread(grid, units):
    # half/half mix of levels 0 and 2: members are eigenstates (spread 0 each)
    # while the ensemble spread is 0.5*(1)^2 + 0.5*(1)^2 = 1
    members = (
        build_state(OscillatorEigenstate(0), grid, units),
        build_state(OscillatorEigenstate(2), grid, units),
    )
    ensemble = MixedEnsemble(np.array([0.5, 0.5]), members)
    report = self_similarity_report(ensemble, HamiltonianSpec.harmonic(grid, 1.0, 1.0), units)
    assert max(report.member_delta_e) <= 1e-6
    assert report.ensemble_delta_e == pytest.approx(1.0, abs=1e-4)
    assert report.max_relative_spread == pytest.approx(1.0, abs=1e-4)


def test_self_similarity_applies_hamiltonian_once_per_member(units, monkeypatch):
    grid = GridSpec(-15.0, 15.0, 2048)
    ensemble = thermal_ensemble(1.0, 1.0, 2.0, 40, grid, units)
    assert len(ensemble.members) == 41
    hamiltonian = HamiltonianSpec.harmonic(grid, 1.0, 1.0)
    calls = []
    original = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    report = self_similarity_report(ensemble, hamiltonian, units)
    assert len(calls) == len(ensemble.members)
    assert len(report.member_delta_e) == len(ensemble.members)


def test_audit_report_pure_state(grid, units):
    from fluctlab import GaussianPacket

    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    report = audit_report(state, units)
    assert set(report) == {
        "product", "bound", "classification", "relative_excess", "delta_t", "entropy_surrogate",
    }
    assert report["classification"] == "minimal"
    assert report["entropy_surrogate"] == 0.0
    assert report["delta_t"] is None


def test_audit_report_with_energy_spread(grid, units):
    from fluctlab import GaussianPacket

    state = build_state(GaussianPacket(0.0, 0.0, 1.0), grid, units)
    report = audit_report(state, units, delta_e=0.5)
    assert report["delta_t"] == pytest.approx(1.0, abs=1e-12)


def test_audit_report_ensemble(grid, units):
    members = (
        build_state(OscillatorEigenstate(0), grid, units),
        build_state(OscillatorEigenstate(1), grid, units),
    )
    report = audit_report(MixedEnsemble(np.array([0.5, 0.5]), members), units)
    assert report["classification"] == "strict"
    assert report["entropy_surrogate"] == pytest.approx(math.log(2.0), rel=1e-12)
