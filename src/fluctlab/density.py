"""Gaussian phase-space fluctuation densities: evaluation, sampling,
constrained variance extrema, and quadrature cross-checks.

Each density formula is written once, as a mesh over two axes: a single
phase point is the one-cell mesh, so a point evaluation and a scan through
that point give the same value.

The density factorizes into independent Gaussians in x and p.  Holding a
phase point fixed and constraining var_x * var_p to the squared bound
leaves a one-parameter family g(s) over the position variance s; its
interior maximum is the extremal-variance pair, and substituting that pair
back collapses the density to the reduced closed form with the constant
peak 2/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .audit import uncertainty_product
from .errors import InvalidRecipe, NumericalFailure, ResolutionError, StepTooLarge, ZeroSeparation
from .errors import require_count, require_finite, require_positive
from .states import TWO_PI, UnitSystem, _trapz

PRODUCT_SLACK = 1e-9      # admissibility slack on var_x*var_p vs the squared bound
REL_SLOPE_TOL = 1e-5      # |g'| * s / g(s) accepted as a vanishing first derivative
MAX_QUAD_NODES = 4097     # per-axis cap for the normalization mesh


@dataclass(frozen=True)
class PhasePoint:
    x: float
    p: float

    def __post_init__(self):
        require_finite("phase point", self.x, self.p)


@dataclass(frozen=True)
class FluctuationParams:
    """Means and variances of the factorized Gaussian density.

    Admissible parameters keep var_x * var_p at or above the squared bound
    (up to a 1e-9 relative slack for roundoff); the product is compared as
    sqrt(var_x*var_p) against the bound, so neither side leaves the floats.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    units: UnitSystem

    def __post_init__(self):
        require_finite("means", self.mean_x, self.mean_p)
        require_positive("var_x", self.var_x)
        require_positive("var_p", self.var_p)
        product, bound = uncertainty_product(self), self.units.bound
        if product < bound * math.sqrt(1.0 - PRODUCT_SLACK):
            raise InvalidRecipe(f"sqrt(var_x*var_p) = {product!r} violates the bound {bound!r}")

    @property
    def delta_x(self) -> float:
        return math.sqrt(self.var_x)

    @property
    def delta_p(self) -> float:
        return math.sqrt(self.var_p)


@dataclass(frozen=True)
class ExtremumCheck:
    """Finite-difference probe of the constrained density profile g(s).

    first_derivative and second_derivative are central differences of the
    peak-normalized profile g(s)/g(s_star) so they stay representable even
    where g itself underflows; is_max holds when the scaled slope
    |g'| * s_star / g(s_star) is below tolerance and the curvature is
    negative.
    """

    s_star: float
    first_derivative: float
    second_derivative: float
    is_max: bool


def density_eval(params: FluctuationParams, pt: PhasePoint) -> float:
    """Gaussian density at a phase point: the one-cell case of density_grid."""
    return float(density_grid(params, [pt.x], [pt.p])[0, 0])


def peak_value(params: FluctuationParams) -> float:
    """Density at the means, 1/(2*pi*dx*dp); monotone decreasing in the product.  Where the
    denominator leaves the floats and the peak does not, the division is taken in steps."""
    denominator = TWO_PI * params.delta_x * params.delta_p
    return 1.0 / denominator if denominator < math.inf else 1.0 / TWO_PI / params.delta_x / params.delta_p


def extremal_variances(mean_x: float, mean_p: float, pt: PhasePoint, units: UnitSystem):
    """Variance pair maximizing the density at pt under the saturated bound.

    var_x = bound * |dx/dp| and var_p = bound * |dp/dx|, whose product is the
    squared bound identically.  Raises ZeroSeparation when pt coincides with
    a mean along either axis (degenerate_spread covers that case), and
    NumericalFailure when |dx/dp| or either variance leaves the finite
    positive floats; InvalidRecipe when a separation is not finite.
    """
    dx, dp = pt.x - mean_x, pt.p - mean_p
    require_finite("separations", dx, dp)
    if dx == 0.0 or dp == 0.0:
        raise ZeroSeparation(f"separations ({dx}, {dp}) must both be nonzero")
    ratio = abs(dx / dp)
    if not (0.0 < ratio < math.inf):
        raise NumericalFailure(f"separation ratio |{dx}/{dp}| = {ratio} is not a finite positive float")
    var_x, var_p = units.bound * ratio, units.bound / ratio
    if not (0.0 < var_x < math.inf and 0.0 < var_p < math.inf):
        raise NumericalFailure(f"extremal variances ({var_x}, {var_p}) are not finite positive floats")
    return var_x, var_p


def degenerate_spread(units: UnitSystem):
    """Equal spreads (h/pi)^(1/2)/2 used where the extremal form is singular;
    their product is exactly the bound."""
    d = 0.5 * math.sqrt(units.h / math.pi)
    return d, d


def reduced_density(mean_x: float, mean_p: float, pt: PhasePoint, units: UnitSystem) -> float:
    """Closed form (2/h) * exp(-(4*pi/h)|dx*dp|) left after substituting the
    extremal variances, well defined everywhere, including at the means: the
    one-cell case of reduced_grid, admitted as reduced_grid admits a mesh."""
    return float(reduced_grid(mean_x, mean_p, units, [pt.x], [pt.p])[0, 0])


def verify_extremum(
    mean_x: float,
    mean_p: float,
    pt: PhasePoint,
    units: UnitSystem,
    fd_step: float = 1e-4,
) -> ExtremumCheck:
    """Check by central differences that the extremal var_x maximizes g(s).

    g(s) is the density at pt with var_x = s and var_p = bound^2/s; its
    prefactor is then constant, so g(s*(1+e))/g(s*) reduces to an exact
    exponent difference that is evaluated through expm1 to survive both
    huge and tiny curvatures.  fd_step is the relative step and must lie in
    (1e-8, 1e-1).
    """
    s_star, _ = extremal_variances(mean_x, mean_p, pt, units)
    if not (1e-8 < fd_step < 1e-1) or s_star * (1.0 - fd_step) <= 0.0:
        raise StepTooLarge(f"fd_step {fd_step} unusable at s_star {s_star}")
    eta = fd_step
    try:
        a = (pt.x - mean_x) ** 2 / s_star
        b = (pt.p - mean_p) ** 2 / units.bound**2 * s_star
        mismatch = b - a  # ~roundoff iff s_star is truly critical
        delta_plus = 0.5 * eta * (mismatch + a * eta / (1.0 + eta))
        delta_minus = 0.5 * eta * (a * eta / (1.0 - eta) - mismatch)
        e_plus = math.expm1(-delta_plus)
        e_minus = math.expm1(-delta_minus)
        step = eta * s_star
        first = (e_plus - e_minus) / (2.0 * step)
        second = (e_plus + e_minus) / step**2
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalFailure(f"finite-difference terms leave the float range at s_star {s_star}: {exc}") from exc
    is_max = abs(first) * s_star <= REL_SLOPE_TOL and second < 0.0
    return ExtremumCheck(
        s_star=s_star, first_derivative=first, second_derivative=second, is_max=is_max
    )


def sample(params: FluctuationParams, count: int, seed: int) -> np.ndarray:
    """count independent draws from the factorized Gaussian law.

    Returns a (count, 2) float array with columns x then p; all randomness
    comes from the seed, so equal arguments give bit-identical output.
    """
    n = require_count("count", count)
    rng = np.random.default_rng(require_count("seed", seed))
    out = np.empty((n, 2))
    out[:, 0] = params.mean_x + params.delta_x * rng.standard_normal(n)
    out[:, 1] = params.mean_p + params.delta_p * rng.standard_normal(n)
    return out


def normalization_check(params: FluctuationParams, half_width_sigmas: float = 10.0) -> float:
    """Trapezoid double integral of the density over mean +- half_width*spread
    per axis; close to 1 for any admissible parameters.

    The integrand factorizes, so the double trapezoid sum is computed as the
    product of the two axis sums.  Raises ResolutionError when the per-axis
    node cap would leave the mesh coarser than a tenth of a spread.
    """
    require_positive("half_width_sigmas", half_width_sigmas)
    if 20.0 * half_width_sigmas > MAX_QUAD_NODES - 1:
        raise ResolutionError(
            f"{MAX_QUAD_NODES} nodes per axis cannot resolve a tenth of the spread at half-width {half_width_sigmas}"
        )
    nodes = max(257, math.ceil(20.0 * half_width_sigmas) + 1)
    value = peak_value(params)
    for mean, var, spread in (
        (params.mean_x, params.var_x, params.delta_x),
        (params.mean_p, params.var_p, params.delta_p),
    ):
        grid = np.linspace(mean - half_width_sigmas * spread, mean + half_width_sigmas * spread, nodes)
        value *= _trapz(_kernels._gauss_factor(grid, mean, var), grid[1] - grid[0])
    return float(value)


def reduced_box_integral(
    mean_x: float,
    mean_p: float,
    units: UnitSystem,
    half_width: float,
) -> float:
    """Integral of the reduced density over a centered square box of the
    given half-width.

    The full-plane integral diverges logarithmically, so this value grows
    without bound in the half-width and is reported as documentation, not
    asserted as a normalization.  The momentum axis integrates in closed
    form; the remaining 1-D integrand is smooth and goes through composite
    Simpson with its interval count scaled to the boundary-layer width, so
    the value is converged at any half-width it accepts.  Raises
    ResolutionError when the interval cap would leave the mesh coarser than
    a tenth of the boundary layer (at h = 2*pi, half-widths above about 229).
    """
    require_positive("half_width", half_width)
    rate = 4.0 * math.pi / units.h
    scale = rate * half_width  # inner integral decays on the scale 1/scale
    if 10.0 * scale * half_width > 2**20:  # the interval cap below
        raise ResolutionError(
            f"2**20 intervals cannot resolve a tenth of the boundary layer at half-width {half_width}"
        )
    exponent = max(12, min(20, math.ceil(math.log2(32.0 * max(scale * half_width, 1.0)))))
    intervals = 2**exponent
    require_positive("rate*t at the first Simpson node", rate * (half_width / intervals))  # else 0/0 below
    t = np.linspace(0.0, half_width, intervals + 1)
    inner = np.empty(t.size)
    inner[0] = 2.0 * half_width
    inner[1:] = -2.0 * np.expm1(-scale * t[1:]) / (rate * t[1:])
    simpson = inner[0] + inner[-1] + 4.0 * inner[1:-1:2].sum() + 2.0 * inner[2:-1:2].sum()
    outer = 2.0 * simpson * (half_width / intervals) / 3.0
    return float((2.0 / units.h) * outer)


def density_grid(params: FluctuationParams, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Density values on the outer product of xs and ps (rows follow xs)."""
    return _kernels.gauss_scan(
        np.ascontiguousarray(xs, dtype=float),
        np.ascontiguousarray(ps, dtype=float),
        params.mean_x,
        params.mean_p,
        params.var_x,
        params.var_p,
        peak_value(params),
    )


def reduced_grid(
    mean_x: float, mean_p: float, units: UnitSystem, xs: np.ndarray, ps: np.ndarray
) -> np.ndarray:
    """Reduced-density values on the outer product of xs and ps.  The separations
    and the rate 4*pi/h must be finite: an infinite rate times a zero product is NaN."""
    xs = np.ascontiguousarray(xs, dtype=float)
    ps = np.ascontiguousarray(ps, dtype=float)
    rate = 4.0 * math.pi / units.h
    ends = [float(end) - mean for axis, mean in ((xs, mean_x), (ps, mean_p)) for end in (axis.min(), axis.max())]
    require_finite("separations and rate 4*pi/h", *ends, rate)
    return _kernels.reduced_scan(xs, ps, mean_x, mean_p, rate, 2.0 / units.h)
