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

This module needs no state machinery: UnitSystem comes from units, and the
sampler's block size, BLOCK_ROWS, from _turns, beside the block writer.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._turns import BLOCK_ROWS
from .audit import uncertainty_product
from .errors import InvalidRecipe, NumericalFailure, ResolutionError, StepTooLarge, ZeroSeparation
from .errors import require_count, require_finite, require_positive
from .units import TWO_PI, UnitSystem, _Record, _trapz

PRODUCT_SLACK = 1e-9      # admissibility slack on var_x*var_p vs the squared bound
REL_SLOPE_TOL = 1e-5      # |g'| * s / g(s) accepted as a vanishing first derivative
MAX_QUAD_NODES = 4097     # per-axis cap for the normalization mesh
FD_STEP = 1e-4            # default relative step of verify_extremum's finite differences
HALF_WIDTH_SIGMAS = 10.0  # default half-width of normalization_check's mesh, in spreads per axis


class PhasePoint(_Record):
    x: float
    p: float

    def __post_init__(self):
        require_finite("phase point", self.x, self.p)


class FluctuationParams(_Record):
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


class ExtremumCheck(_Record):
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
    denominator leaves the floats and the peak does not, the division is taken in steps; a
    peak that itself leaves the floats is refused."""
    denominator = TWO_PI * params.delta_x * params.delta_p
    peak = 1.0 / denominator if denominator < math.inf else 1.0 / TWO_PI / params.delta_x / params.delta_p
    require_finite("density peak 1/(2*pi*dx*dp)", peak)
    return peak


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
    fd_step: float = FD_STEP,
) -> ExtremumCheck:
    """Check by central differences that the extremal var_x maximizes g(s).

    g(s) is the density at pt with var_x = s and var_p = bound^2/s; its
    prefactor is then constant, so g(s*(1+e))/g(s*) reduces to an exact
    exponent difference that is evaluated through expm1 to survive both
    huge and tiny curvatures.  fd_step is the relative step and must lie in
    (1e-8, 1e-1).  At an exact maximum the central difference is not 0 but
    its own truncation, about a*eta**2/(2*(1 - eta**2)) / s* for a step eta
    and a = (x - mean_x)**2 / s*, so the verdict measures the first
    derivative from the same differences taken at an exact maximum.

    A step is also refused (StepTooLarge) where the profile falls too far
    within it to carry a slope.  The least slope the verdict must see,
    REL_SLOPE_TOL, moves each ratio g(s*(1 +- eta))/g(s*) by about
    eta * REL_SLOPE_TOL times that ratio, and the differences hold a ratio
    as ratio - 1, to an ulp of 1.0 at best; so the smaller of an exact
    maximum's two ratios must exceed ulp(1.0) / (eta * REL_SLOPE_TOL).
    """
    s_star, _ = extremal_variances(mean_x, mean_p, pt, units)
    if not (1e-8 < fd_step < 1e-1) or s_star * (1.0 - fd_step) <= 0.0:
        raise StepTooLarge(f"fd_step {fd_step} unusable at s_star {s_star}")
    eta = fd_step
    try:
        a = (pt.x - mean_x) ** 2 / s_star
        b = (pt.p - mean_p) ** 2 / units.bound**2 * s_star
        at_max_plus, at_max_minus = _differences(a, 0.0, eta)  # an exact maximum's: its mismatch b - a is 0
        ratio = 1.0 + min(at_max_plus, at_max_minus)
        if ratio < math.ulp(1.0) / (eta * REL_SLOPE_TOL):
            raise StepTooLarge(f"fd_step {fd_step} too large at s_star {s_star}: g(s*(1 +- fd_step))/g(s*) "
                               f"falls to {ratio:.3g}, too small to carry a slope")
        e_plus, e_minus = _differences(a, b - a, eta)  # the mismatch b - a is ~roundoff iff s_star is critical
        step = eta * s_star
        first = (e_plus - e_minus) / (2.0 * step)
        second = (e_plus + e_minus) / step**2
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalFailure(f"finite-difference terms leave the float range at s_star {s_star}: {exc}") from exc
    truncation = (at_max_plus - at_max_minus) / (2.0 * step)
    is_max = abs(first - truncation) * s_star <= REL_SLOPE_TOL and second < 0.0
    return ExtremumCheck(
        s_star=s_star, first_derivative=first, second_derivative=second, is_max=is_max
    )


def _differences(a: float, mismatch: float, eta: float) -> tuple:
    """g(s*(1 + eta))/g(s*) - 1 and g(s*(1 - eta))/g(s*) - 1, where the
    exponent's two terms at s* are a and a + mismatch."""
    return (math.expm1(-0.5 * eta * (mismatch + a * eta / (1.0 + eta))),
            math.expm1(-0.5 * eta * (a * eta / (1.0 - eta) - mismatch)))


def sample(params: FluctuationParams, count: int, seed: int) -> np.ndarray:
    """count independent draws from the factorized Gaussian law.

    Returns a (count, 2) float array with columns x then p; all randomness
    comes from the seed, so equal arguments give bit-identical output.
    """
    return np.concatenate([np.empty((0, 2)), *sample_blocks(params, count, seed)])


def sample_blocks(params: FluctuationParams, count: int, seed: int):
    """sample's rows in order, as (k, 2) arrays of at most BLOCK_ROWS rows.

    The seeded stream gives the count x-normals first, then the count
    p-normals.  The p side reads a second generator with the same seed,
    advanced past the x-normals one block at a time, so memory is one block
    and the cost is one extra pass of normals.  count and seed are admitted
    before the first block.
    """
    n = require_count("count", count)
    seed = require_count("seed", seed)
    return _sample_blocks(params, n, np.random.default_rng(seed), np.random.default_rng(seed))


def _sample_blocks(params: FluctuationParams, n: int, x_rng, p_rng):
    discard = np.empty(min(n, BLOCK_ROWS))
    for first in range(0, n, BLOCK_ROWS):
        p_rng.standard_normal(out=discard[: min(BLOCK_ROWS, n - first)])
    for first in range(0, n, BLOCK_ROWS):
        k = min(BLOCK_ROWS, n - first)
        block = np.empty((k, 2))
        block[:, 0] = params.mean_x + params.delta_x * x_rng.standard_normal(k)
        block[:, 1] = params.mean_p + params.delta_p * p_rng.standard_normal(k)
        yield block


def normalization_check(params: FluctuationParams, half_width_sigmas: float = HALF_WIDTH_SIGMAS) -> float:
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
        value *= _trapz(np.exp(_kernels._gauss_exponent(grid, mean, var)), grid[1] - grid[0])
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
    """Density values on the outer product of xs and ps (rows follow xs): the
    one block of density_mesh over the whole axes."""
    return density_mesh(params, xs, ps)(slice(None), slice(None))


def density_mesh(params: FluctuationParams, xs, ps):
    """density_grid's mesh as a function of a row slice and a column slice
    that makes that block of it, each cell by the same operations, so with
    the same bits.  The peak is admitted, and the p axis's factor made,
    here, once."""
    xs, ps = _axes(xs, ps)
    p_factor = _kernels.gauss_axis(ps, params.mean_p, params.var_p)
    pref = peak_value(params)

    return lambda rows, columns: _kernels.gauss_scan(
        _kernels.gauss_axis(xs[rows], params.mean_x, params.var_x), [f[columns] for f in p_factor], pref)


def reduced_grid(
    mean_x: float, mean_p: float, units: UnitSystem, xs: np.ndarray, ps: np.ndarray
) -> np.ndarray:
    """Reduced-density values on the outer product of xs and ps (an empty axis gives the
    empty mesh): the one block of reduced_mesh over the whole axes."""
    return reduced_mesh(mean_x, mean_p, units, xs, ps)(slice(None), slice(None))


def reduced_mesh(mean_x: float, mean_p: float, units: UnitSystem, xs, ps):
    """reduced_grid's mesh as density_mesh gives density_grid's.  The
    separations at the axes' ends and the rate 4*pi/h are admitted here, on
    the whole axes, and must be finite: an infinite rate times a zero
    product is NaN."""
    xs, ps = _axes(xs, ps)
    rate = 4.0 * math.pi / units.h
    ends = [float(end) - mean for axis, mean in ((xs, mean_x), (ps, mean_p)) if axis.size
            for end in (axis.min(), axis.max())]
    require_finite("separations and rate 4*pi/h", *ends, rate)
    dp, pref = ps - mean_p, 2.0 / units.h
    return lambda rows, columns: _kernels.reduced_scan(xs[rows] - mean_x, dp[columns], rate, pref)


def _axes(xs, ps) -> tuple:
    return np.ascontiguousarray(xs, dtype=float), np.ascontiguousarray(ps, dtype=float)

