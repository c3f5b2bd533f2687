"""Fluctuation densities: evaluation, extrema, sampling, quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest

from fluctlab import (
    FluctuationParams,
    InvalidRecipe,
    PhasePoint,
    ResolutionError,
    StepTooLarge,
    UnitSystem,
    ZeroSeparation,
    degenerate_spread,
    density_eval,
    density_grid,
    extremal_variances,
    normalization_check,
    peak_value,
    reduced_box_integral,
    reduced_density,
    reduced_grid,
    sample,
    verify_extremum,
)
from fluctlab import cli, density

INV_PI = 0.318309886183790672          # 1/pi, mpmath 40 digits
INV_PI_E1 = 0.117099663048638321       # (1/pi) e^-1
INV_PI_E2 = 0.0430785586036972596      # (1/pi) e^-2
HALF_SQRT2 = 0.707106781186547524      # sqrt(2)/2


def _params(units, var_x, var_p, mean_x=0.0, mean_p=0.0):
    return FluctuationParams(mean_x=mean_x, mean_p=mean_p, var_x=var_x, var_p=var_p, units=units)


def test_density_eval_values(units):
    params = _params(units, 0.5, 0.5)
    assert density_eval(params, PhasePoint(0.0, 0.0)) == pytest.approx(INV_PI, rel=1e-12)
    assert density_eval(params, PhasePoint(1.0, 0.0)) == pytest.approx(INV_PI_E1, rel=1e-12)
    assert density_eval(_params(units, 1.0, 0.25), PhasePoint(0.0, 0.0)) == pytest.approx(
        INV_PI, rel=1e-12
    )


def test_peak_value_matches_density_at_means(units):
    for var_x, var_p in ((0.5, 0.5), (1.0, 0.25), (3.0, 2.0)):
        params = _params(units, var_x, var_p, mean_x=0.7, mean_p=-0.3)
        assert peak_value(params) == density_eval(params, PhasePoint(0.7, -0.3))


def test_peak_value_monotone_in_product(units):
    peaks = [peak_value(_params(units, s, s)) for s in (0.5, 1.0, 2.0)]
    assert peaks[0] == pytest.approx(INV_PI, rel=1e-12)
    assert peaks[1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert peaks[0] > peaks[1] > peaks[2]


def test_params_reject_inadmissible_product(units):
    with pytest.raises(InvalidRecipe):
        _params(units, 0.1, 0.1)
    with pytest.raises(InvalidRecipe):
        _params(units, -1.0, 1.0)


def test_extremal_variances_examples(units):
    assert extremal_variances(0.0, 0.0, PhasePoint(1.0, 1.0), units) == pytest.approx((0.5, 0.5))
    var_x, var_p = extremal_variances(0.0, 0.0, PhasePoint(2.0, 1.0), units)
    assert (var_x, var_p) == pytest.approx((1.0, 0.25))
    assert var_x * var_p == pytest.approx(0.25, abs=1e-12)


def test_extremal_variances_zero_separation(units):
    with pytest.raises(ZeroSeparation):
        extremal_variances(0.0, 0.0, PhasePoint(1.0, 0.0), units)
    with pytest.raises(ZeroSeparation):
        extremal_variances(1.0, 0.0, PhasePoint(1.0, 1.0), units)


def test_extremal_product_identity_random(units):
    rng = np.random.default_rng(99)
    for _ in range(200):
        mx, mp_ = rng.uniform(-2, 2, 2)
        dx = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        dp = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        var_x, var_p = extremal_variances(mx, mp_, PhasePoint(mx + dx, mp_ + dp), units)
        assert abs(var_x * var_p - 0.25) <= 1e-12


def test_degenerate_spread(units):
    dx, dp = degenerate_spread(units)
    assert dx == pytest.approx(HALF_SQRT2, abs=1e-12)
    assert dp == dx
    assert dx * dp == pytest.approx(units.bound, abs=1e-12)
    wide = UnitSystem(h=4.0 * math.pi)
    assert degenerate_spread(wide) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_reduced_density_values(units):
    assert reduced_density(0.0, 0.0, PhasePoint(0.0, 0.0), units) == pytest.approx(INV_PI, rel=1e-12)
    assert reduced_density(0.0, 0.0, PhasePoint(1.0, 1.0), units) == pytest.approx(INV_PI_E2, rel=1e-12)


def test_substitution_identity(units):
    rng = np.random.default_rng(5)
    for _ in range(200):
        mx, mp_ = rng.uniform(-2, 2, 2)
        dx = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1)
        dp = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1)
        pt = PhasePoint(mx + dx, mp_ + dp)
        var_x, var_p = extremal_variances(mx, mp_, pt, units)
        direct = density_eval(FluctuationParams(mx, mp_, var_x, var_p, units), pt)
        closed = reduced_density(mx, mp_, pt, units)
        assert abs(direct - closed) <= 1e-12 * closed


def test_density_symmetry_under_reflection(units):
    params = _params(units, 1.3, 0.7, mean_x=0.4, mean_p=-0.8)
    for dx, dp in ((0.9, 1.7), (0.2, -0.5)):
        plus = density_eval(params, PhasePoint(0.4 + dx, -0.8 + dp))
        minus = density_eval(params, PhasePoint(0.4 - dx, -0.8 + dp))
        assert plus == minus
        assert reduced_density(0.4, -0.8, PhasePoint(0.4 + dx, -0.8 + dp), units) == \
            reduced_density(0.4, -0.8, PhasePoint(0.4 - dx, -0.8 - dp), units)


def test_reduced_density_scaling(units):
    # h -> c*h with both separations scaled by sqrt(c): exponent invariant,
    # prefactor scales by 1/c
    c = 3.7
    scaled_units = UnitSystem(h=c * units.h)
    root = math.sqrt(c)
    for dx, dp in ((1.0, 0.5), (0.3, 2.0)):
        base = reduced_density(0.0, 0.0, PhasePoint(dx, dp), units)
        scaled = reduced_density(0.0, 0.0, PhasePoint(dx * root, dp * root), scaled_units)
        assert scaled * c == pytest.approx(base, rel=1e-9)


def test_verify_extremum_examples(units):
    check = verify_extremum(0.0, 0.0, PhasePoint(1.0, 1.0), units)
    assert check.s_star == pytest.approx(0.5, rel=1e-12)
    assert check.is_max
    assert abs(check.first_derivative) * check.s_star <= 1e-5
    assert check.second_derivative < 0.0
    check2 = verify_extremum(0.0, 0.0, PhasePoint(2.0, 1.0), units)
    assert check2.s_star == pytest.approx(1.0, rel=1e-12)
    assert check2.is_max


def test_density_falls_away_from_extremal_variance(units):
    pt = PhasePoint(1.0, 1.0)
    s_star, _ = extremal_variances(0.0, 0.0, pt, units)
    bound_sq = units.bound**2
    at_peak = density_eval(FluctuationParams(0, 0, s_star, bound_sq / s_star, units), pt)
    probe = density_eval(FluctuationParams(0, 0, 2 * s_star, bound_sq / (2 * s_star), units), pt)
    assert probe < at_peak


def test_verify_extremum_step_validation(units):
    with pytest.raises(StepTooLarge):
        verify_extremum(0.0, 0.0, PhasePoint(1.0, 1.0), units, fd_step=0.5)
    with pytest.raises(StepTooLarge):
        verify_extremum(0.0, 0.0, PhasePoint(1.0, 1.0), units, fd_step=1e-9)
    with pytest.raises(ZeroSeparation):
        verify_extremum(0.0, 0.0, PhasePoint(0.0, 1.0), units)


def test_verify_extremum_flags_wrong_candidate(units):
    # the checker differences the true profile, so feeding it a detuned
    # point/mean pair must not report criticality at a shifted s_star
    check = verify_extremum(0.0, 0.0, PhasePoint(1.0, 2.0), units, fd_step=1e-4)
    assert check.s_star == pytest.approx(0.25, rel=1e-12)
    assert check.is_max


@pytest.mark.parametrize("flags", [["--x", "40", "--p", "40"], ["--x", "1", "--p", "1", "--fd-step", "0.05"]],
                         ids=["far-point", "large-step"])
def test_verify_holds_at_the_exact_maximum_whatever_the_truncation(flags, capsys):
    """The central difference at an exact maximum is its own truncation,
    a*eta**2/(2*(1 - eta**2)) relative, here above REL_SLOPE_TOL: 1.6e-5
    far from the means at the default step, 2.5e-3 at a step of 0.05."""
    assert cli.run(["density", "verify", *flags]) == 0
    assert capsys.readouterr().out.endswith(" is_max=true\n")


@pytest.mark.parametrize("step", [1e-4, 0.05])
@pytest.mark.parametrize("x, p", [(1.0, 1.0), (40.0, 40.0), (100.0, 100.0), (300.0, 300.0), (1000.0, 1000.0),
                                  (1e4, 1e4)])
def test_verify_refuses_a_detuned_maximum(units, monkeypatch, x, p, step):
    """s* detuned by 1% is no maximum, whatever the step's truncation.  From
    x = p = 100 on, a step of 0.05 is refused: the profile falls by e**-26
    or more within it, and both differences saturate near -1, so they carry
    no slope (they read first_derivative=0.0 at x = p = 1000)."""
    exact = density.extremal_variances
    monkeypatch.setattr(density, "extremal_variances", lambda *args: tuple(1.01 * v for v in exact(*args)))
    s_star = 1.01 * exact(0.0, 0.0, PhasePoint(x, p), units)[0]
    if x >= 100.0 and step == 0.05:
        with pytest.raises(StepTooLarge, match=f"fd_step 0.05 too large at s_star {s_star}"):
            verify_extremum(0.0, 0.0, PhasePoint(x, p), units, fd_step=step)
        return
    check = verify_extremum(0.0, 0.0, PhasePoint(x, p), units, fd_step=step)
    assert check.s_star == s_star
    assert not check.is_max


def test_verify_refuses_a_step_too_large_for_the_profile(capsys):
    """At x = p = 1000 a step of 0.05 leaves g(s*(1 +- 0.05))/g(s*) at 0.0,
    where both differences read -1 and the first derivative 0.0."""
    assert cli.run(["density", "verify", "--x", "1000", "--p", "1000", "--fd-step", "0.05"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("error: fd_step 0.05 too large at s_star 0.5: g(s*(1 +- fd_step))/g(s*) falls to 0, "
                           "too small to carry a slope\n")


def test_sample_count_and_determinism(units):
    params = _params(units, 1.0, 0.25)
    assert sample(params, 0, 1).shape == (0, 2)
    first = sample(params, 2048, 31415)
    second = sample(params, 2048, 31415)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, sample(params, 2048, 31416))
    with pytest.raises(InvalidRecipe):
        sample(params, -1, 0)


def test_sample_moments_quick(units):
    params = _params(units, 1.0, 0.25, mean_x=1.5, mean_p=-0.5)
    draws = sample(params, 200_000, 8)
    n = draws.shape[0]
    assert draws[:, 0].mean() == pytest.approx(1.5, abs=3.0 / math.sqrt(n))
    assert draws[:, 1].mean() == pytest.approx(-0.5, abs=3.0 * 0.5 / math.sqrt(n))
    assert draws[:, 0].var(ddof=1) == pytest.approx(1.0, abs=3.0 * math.sqrt(2.0 / n))
    assert draws[:, 1].var(ddof=1) == pytest.approx(0.25, abs=3.0 * 0.25 * math.sqrt(2.0 / n))


def test_normalization_check(units):
    assert normalization_check(_params(units, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-6)
    assert normalization_check(_params(units, 1.0, 0.25)) == pytest.approx(1.0, abs=1e-6)


def test_normalization_check_resolution_guard(units):
    with pytest.raises(ResolutionError):
        normalization_check(_params(units, 1.0, 0.25), half_width_sigmas=1000.0)
    with pytest.raises(InvalidRecipe):
        normalization_check(_params(units, 1.0, 0.25), half_width_sigmas=0.0)


def _box_oracle(units, half_width):
    # exact box integral: (8/(h*rate)) * Ein(rate*L^2), Ein(z) = euler + ln z + E1(z)
    mp.mp.dps = 30
    rate = 4 * mp.pi / mp.mpf(units.h)
    z = rate * mp.mpf(half_width) ** 2
    return float(8 / (mp.mpf(units.h) * rate) * (mp.euler + mp.log(z) + mp.e1(z)))


def test_reduced_box_integral_matches_oracle(units):
    for half_width in (2.0, 10.0, 100.0):
        value = reduced_box_integral(0.0, 0.0, units, half_width)
        assert value == pytest.approx(_box_oracle(units, half_width), rel=1e-9)


def test_reduced_box_integral_resolution_cutoff(units):
    # 2**20 Simpson intervals hold a tenth of the boundary layer 1/(rate*L)
    # up to 10*rate*L**2 = 2**20, at h = 2*pi a half-width of about 229
    cutoff = math.sqrt(2**20 / (10.0 * 4.0 * math.pi / units.h))
    below = cutoff * (1.0 - 1e-9)
    assert reduced_box_integral(0.0, 0.0, units, below) == pytest.approx(_box_oracle(units, below), rel=1e-7)
    with pytest.raises(ResolutionError, match="boundary layer"):
        reduced_box_integral(0.0, 0.0, units, cutoff * (1.0 + 1e-9))


def test_reduced_box_integral_logarithmic_growth(units):
    small = reduced_box_integral(0.0, 0.0, units, 10.0)
    large = reduced_box_integral(0.0, 0.0, units, 100.0)
    assert large > small
    assert large - small == pytest.approx(_box_oracle(units, 100.0) - _box_oracle(units, 10.0), rel=1e-6)


def test_density_grids(units):
    params = _params(units, 1.0, 0.25, mean_x=0.5)
    xs = np.linspace(-2.0, 2.0, 17)
    ps = np.linspace(-1.0, 1.0, 9)
    mesh = density_grid(params, xs, ps)
    reduced = reduced_grid(0.5, 0.0, units, xs, ps)
    assert mesh.shape == reduced.shape == (17, 9)
    assert density_grid(params, [], ps).shape == reduced_grid(0.5, 0.0, units, [], ps).shape == (0, 9)
    for i, j in ((3, 4), (0, 0), (16, 8), (8, 2)):
        dx, dp = xs[i] - 0.5, ps[j]
        gauss = math.exp(-0.5 * (dx**2 / 1.0 + dp**2 / 0.25)) / (2.0 * math.pi * 1.0 * 0.5)
        assert mesh[i, j] == pytest.approx(gauss, rel=1e-12)
        closed = (2.0 / units.h) * math.exp(-(4.0 * math.pi / units.h) * abs(dx * dp))
        assert reduced[i, j] == pytest.approx(closed, rel=1e-12)
        # a point is the one-cell mesh
        assert density_eval(params, PhasePoint(xs[i], ps[j])) == mesh[i, j]
        assert reduced_density(0.5, 0.0, PhasePoint(xs[i], ps[j]), units) == reduced[i, j]


def test_far_points_square_the_scaled_separation(units):
    # (2e154)**2 leaves the floats; (2e154 / sqrt(1e308))**2 = 4 does not
    params = _params(units, 1e308, 1.0)
    closed = math.exp(-0.5 * 4.0) / (2.0 * math.pi * 1e154)
    assert closed == pytest.approx(2.1539279301848634e-156, rel=1e-15)
    mesh = density_grid(params, [-2e154, 0.0, 2e154], [0.0])
    assert mesh[0, 0] == mesh[2, 0] == 2.1539279301848634e-156
    assert density_eval(params, PhasePoint(2e154, 0.0)) == 2.1539279301848634e-156
    # the normalization mesh reaches 10 spreads, 1e155, through the same factor
    assert normalization_check(params) == pytest.approx(1.0, rel=1e-9)


def test_peak_value_where_its_denominator_overflows(units):
    # 2*pi*1e154*1e154 leaves the floats; the peak 1/(2*pi*1e308) is a subnormal
    peak = peak_value(_params(units, 1e308, 1e308))
    assert peak == pytest.approx(1.0 / (2.0 * math.pi) / 1e308, rel=1e-12)
    assert peak > 0.0


def test_bound_refusal_names_the_root_product():
    with pytest.raises(InvalidRecipe, match=r"^sqrt\(var_x\*var_p\) = 1e\+200 violates the bound 7\.95") as exc:
        FluctuationParams(0.0, 0.0, 1e200, 1e200, UnitSystem(h=1e300))
    assert "inf" not in str(exc.value)
    with pytest.raises(InvalidRecipe, match=r"^sqrt\(var_x\*var_p\) = 0\.4 violates the bound 0\.5$"):
        FluctuationParams(0.0, 0.0, 0.4, 0.4, UnitSystem())


def test_huge_prefactor_is_folded_in_before_the_density_underflows():
    # exp(-450)**2 underflows, but the prefactor 1/(2*pi*1e-301) brings the product back into range
    units = UnitSystem(h=1e-300)
    x = 9.486832980505138e-150
    mp.mp.dps = 40
    v = mp.mpf("1e-301")
    gauss = float(mp.exp(-mp.mpf(x) ** 2 / v) / (2 * mp.pi * v))
    assert density_eval(_params(units, 1e-301, 1e-301), PhasePoint(x, x)) == pytest.approx(gauss, rel=1e-12, abs=0.0)
    assert gauss == pytest.approx(2.17163293084e-91, rel=1e-11, abs=0.0)
    # the reduced form's exp(-1000) underflows before the prefactor 2/h = 2e300 scales it
    y = 8.92e-150
    reduced = float(2 / mp.mpf("1e-300") * mp.exp(-4 * mp.pi / mp.mpf("1e-300") * mp.mpf(y) ** 2))
    assert reduced_density(0.0, 0.0, PhasePoint(y, y), units) == pytest.approx(reduced, rel=1e-12, abs=0.0)
    assert reduced == pytest.approx(1.16673201326e-134, rel=1e-11, abs=0.0)


def test_in_range_density_values_keep_their_bits(units):
    # a mesh from the peak out to cells below the normal floats: only cells the fold brings
    # back into range change, and at h = 2*pi none does
    params = _params(units, 1.0, 0.25)
    xs = np.linspace(-40.0, 40.0, 161)
    ps = np.linspace(-20.0, 20.0, 81)
    plain = peak_value(params) * np.outer(np.exp(-0.5 * xs**2), np.exp(-0.5 * ps**2 / 0.25))
    mesh = density_grid(params, xs, ps)
    assert (plain < np.finfo(float).tiny).any() and (plain > 0.1).any()
    assert mesh.tobytes() == plain.tobytes()
    rate = 4.0 * math.pi / units.h
    plain = (2.0 / units.h) * np.exp(-rate * np.abs(np.outer(xs, ps)))
    assert reduced_grid(0.0, 0.0, units, xs, ps).tobytes() == plain.tobytes()
