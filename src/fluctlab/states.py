"""Pure states, mixed ensembles, and their phase-space and energy moments.

Everything lives on a uniform 1-D grid.  Position moments use trapezoid
quadrature; momentum and kinetic-energy terms go through the discrete
Fourier transform, which is why every state must vanish at the grid edges
(the "decay guard").  Each pure state is measured on its own, by one DFT
in _moments, the one place where a state's moments are taken; a mixture's
mean is the weighted member mean and its variance follows the law of total
variance, the weighted member variances plus the weighted spread of the
member means.  All values are immutable after construction and all
operations are pure functions, so objects can be shared freely between
workers.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from functools import cached_property
from typing import Union

import numpy as np

from . import _kernels
from .errors import (
    DecayGuardViolation,
    GridMismatch,
    InvalidRecipe,
    NormalizationError,
    TruncationError,
    require_count,
    require_finite,
    require_positive,
)
from .units import TWO_PI, UnitSystem, _Record, _trapz  # UnitSystem stays one of this module's names

NORM_TOL = 1e-10          # |L2 norm - 1| allowed for states and weight sums
DECAY_RATIO = 1e-6        # edge amplitude allowed relative to the peak
TAIL_TOL = 1e-8           # truncated Boltzmann tail mass allowed


class GridSpec(_Record):
    """Uniform grid of n points x_min + j*dx, j = 0..n-1, with dx = (x_max - x_min)/n."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        x_min, x_max, n = self.x_min, self.x_max, self.n
        require_finite("grid endpoints and span", x_min, x_max, x_max - x_min)
        if x_max <= x_min:
            raise InvalidRecipe(f"need x_max > x_min, got [{x_min}, {x_max}]")
        if not n >= 8:  # NaN too
            raise InvalidRecipe(f"need at least 8 sample points, got n={n}")
        vars(self)["n"] = require_count("sample points n", n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def points(self) -> np.ndarray:
        return self._points

    # Made on first use and kept on the grid, so they are freed with it.
    @cached_property
    def _points(self) -> np.ndarray:
        return _freeze(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        # TWO_PI * np.fft.fftfreq(n, d=dx), bit for bit, made in place in its one array
        k = np.arange(float(self.n))
        k[(self.n + 1) // 2 :] -= self.n
        k *= 1.0 / (self.n * self.dx)
        return _freeze(np.multiply(k, TWO_PI, out=k))

    def __reduce__(self):  # a pickle or copy carries the fields, not the arrays
        return GridSpec, (self.x_min, self.x_max, self.n)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _amplitude_array(grid: GridSpec, amp: np.ndarray) -> np.ndarray:
    """amp, a complex array, refused unless it holds one finite value per grid point."""
    if amp.shape != (grid.n,):
        raise InvalidRecipe(f"expected {grid.n} amplitudes, got shape {amp.shape}")
    if not np.all(np.isfinite(amp.view(np.float64))):
        raise InvalidRecipe("amplitudes must be finite")
    return amp


def _admitted(grid: GridSpec, amp: np.ndarray, prob=None, guard: str = "") -> np.ndarray:
    """amp, a complex array (not copied), once admitted as a state on grid:
    one finite value a grid point, unit L2 norm under trapezoid quadrature and
    the decay guard |psi(edge)| < 1e-6 * max|psi|; the refusals of those two
    begin with guard.  prob, a float array of the grid's size (made here when
    None), is left holding |amp|^2."""
    prob = np.abs(_amplitude_array(grid, amp), out=prob)
    peak = float(prob.max())
    norm = math.sqrt(_trapz(np.square(prob, out=prob), grid.dx))
    if abs(norm - 1.0) > NORM_TOL:
        raise NormalizationError(f"{guard}L2 norm {norm!r} differs from 1 by more than {NORM_TOL}")
    edge = max(abs(amp[0]), abs(amp[-1]))
    if edge >= DECAY_RATIO * peak:
        raise DecayGuardViolation(f"{guard}edge amplitude {edge:.3e} exceeds {DECAY_RATIO:g} * peak {peak:.3e}; "
                                  "widen the grid")
    return amp


class PureState(_Record):
    """Normalized complex amplitudes on a grid.

    The constructor enforces unit L2 norm under trapezoid quadrature and the
    decay guard |psi(edge)| < 1e-6 * max|psi|; use the build_state recipes to
    get normalization for free.
    """

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        vars(self)["amplitudes"] = _freeze(_admitted(self.grid, np.array(self.amplitudes, np.complex128)))

    @classmethod
    def _adopt(cls, grid: GridSpec, amp: np.ndarray, prob=None, guard: str = "") -> "PureState":
        """PureState(grid, amp) without the copy: amp, a new complex array its
        caller gives up, passes the constructor's checks (_admitted(grid, amp,
        prob, guard)) and becomes the state's own."""
        state = cls.__new__(cls)
        state.__dict__.update(grid=grid, amplitudes=_freeze(_admitted(grid, amp, prob, guard)))
        return state


class MixedEnsemble(_Record):
    """Statistical mixture: strictly positive weights summing to 1 over shared-grid members."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        w = _mixture_weights(self.weights, len(members))
        for i, member in enumerate(members):
            if not isinstance(member, PureState):
                raise InvalidRecipe(f"member {i}: expected PureState, got {type(member).__name__}")
            if member.grid != members[0].grid:
                raise GridMismatch(f"member {i} grid {member.grid} differs from {members[0].grid}")
        vars(self).update(weights=w, members=members)

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid


def _mixture_weights(weights, count: int) -> np.ndarray:
    """weights as a frozen float64 copy, refused unless they are count
    weights, each in (0, 1], summing to 1 within NORM_TOL."""
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.ndim != 1 or w.size == 0 or w.size != count:
        raise InvalidRecipe(f"{w.size} weights for {count} members")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0) or np.any(w > 1.0):
        raise InvalidRecipe("weights must lie in (0, 1]")
    if abs(w.sum() - 1.0) > NORM_TOL:
        raise InvalidRecipe(f"weights sum to {w.sum()!r}, not 1")
    return _freeze(w)


class HamiltonianSpec(_Record):
    """Kinetic term p^2/(2m) plus a potential sampled on the grid."""

    mass: float
    potential: np.ndarray

    def __post_init__(self):
        require_positive("mass", self.mass)
        v = np.array(self.potential, dtype=np.float64, copy=True)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InvalidRecipe("potential must be a finite 1-D sample array")
        vars(self)["potential"] = _freeze(v)

    @classmethod
    def harmonic(cls, grid: GridSpec, mass: float, omega: float) -> "HamiltonianSpec":
        require_positive("omega", omega)
        omega_squared = omega * omega
        require_finite("omega**2", omega_squared)
        return cls(mass=mass, potential=0.5 * mass * omega_squared * grid.points() ** 2)


class MomentReport(_Record):
    """Means and variances of position and momentum for a state or ensemble."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float

    def __post_init__(self):
        for name, value in vars(self).items():
            require_finite(name, value)
        if self.var_x < 0 or self.var_p < 0:
            raise InvalidRecipe("variances must be nonnegative")


# --- state recipes -----------------------------------------------------------

class GaussianPacket(_Record):
    """Real Gaussian envelope of position spread sigma, boosted to mean momentum."""

    center: float = 0.0
    momentum: float = 0.0
    sigma: float = 1.0


class OscillatorEigenstate(_Record):
    n: int
    mass: float = 1.0
    omega: float = 1.0


class CoherentState(_Record):
    """Displaced oscillator ground state, alpha = (x0/s + i*p0*s/hbar)/sqrt(2), s = sqrt(hbar/(m*omega))."""

    alpha: complex
    mass: float = 1.0
    omega: float = 1.0


class RawSamples(_Record):
    amplitudes: tuple


StateRecipe = Union[GaussianPacket, OscillatorEigenstate, CoherentState, RawSamples]


def _normalized_state(grid, amp, what=None, center=0.0, width=0.0, prob=None, admit=PureState._adopt, guard=""):
    """amp, a complex array the caller gives up, scaled in place to unit norm
    and then admitted by admit(grid, amp, prob, guard): PureState._adopt, which
    makes it a state's, or _admitted.  prob, a float array of the grid's size
    (made here when None), is left holding |amp|^2.  A recipe's amplitudes
    (what names it, centered at center, of the given width) whose norm is 0
    are refused by _vanishing, naming it: every point 0, or their squares
    all underflowing.  Amplitudes whose squares are all subnormal give a norm
    that has lost its digits, so admit refuses the scaled ones; that refusal
    says so."""
    prob = np.square(np.abs(amp, out=prob), out=prob)
    norm = math.sqrt(_trapz(prob, grid.dx))
    if norm == 0.0 and what is not None:
        raise _vanishing(what, center, width, grid, "its squared amplitudes underflow to 0 on every grid point"
                         if amp.any() else "it vanishes on every grid point")
    require_positive("amplitude norm", norm)
    amp /= norm
    try:
        return admit(grid, amp, prob, guard)
    except NormalizationError as exc:
        largest = (float(np.abs(amp).max()) * norm) ** 2  # the largest square before the scaling
        if largest < sys.float_info.min:
            raise NormalizationError(f"{exc}: its squared amplitudes before normalizing are subnormal "
                                     f"(at most {largest!r}) and lost their digits") from None
        raise


def _gaussian_packet(grid, center, momentum, sigma, units) -> PureState:
    """The Gaussian packet of center, momentum and sigma on grid, normalized."""
    require_finite("center and momentum", center, momentum)
    variance = sigma * sigma  # sigma**2 without its OverflowError
    require_positive(f"2*pi*sigma**2 at sigma = {sigma}", TWO_PI * variance)
    x = grid.points()
    # numpy divides the complex phase by hbar as a product with 1/hbar
    require_finite("phase momentum*x/hbar", momentum * max(abs(grid.x_min), abs(float(x[-1]))) * (1.0 / units.hbar))
    with np.errstate(over="ignore"):  # an overflow here is +inf, and exp(-inf) is exactly 0
        envelope = (TWO_PI * variance) ** -0.25 * np.exp(-((x - center) ** 2) / (4.0 * variance))
    amp = envelope * np.exp(1j * momentum * x / units.hbar)
    return _normalized_state(grid, amp, f"packet of center {center!r} and sigma {sigma!r}", center, sigma)


def _vanishing(what: str, center: float, width: float, grid: GridSpec, how: str) -> InvalidRecipe:
    """The refusal of what, centered at center and of the given width, that
    the grid cannot hold: how says what its amplitudes do there, and the end
    says why: its center is off the grid, or it is wider than the grid's
    span, or else narrower than its step."""
    if not grid.x_min <= center <= grid.x_max:
        where = "outside the grid"
    elif width > grid.x_max - grid.x_min:
        where = f"wider than the grid span {grid.x_max - grid.x_min!r}"
    else:
        where = f"narrower than the grid step {grid.dx!r}"
    return InvalidRecipe(f"{what} must be finite and nonzero on the grid, but {how}: it is {where}")


def _hermite_rows(n_max, mass, omega, grid, units):
    """The arguments of oscillator levels 0..n_max admitted, then
    ("eigenstate n=<n>", n, h_n, sqrt(s), 1/s) for each level n in turn: h_n the
    orthonormal Hermite function sampled on s*x, s = sqrt(m*omega/hbar), from
    the recurrence, a new array each, and 1/s the levels' width, inf where
    m*omega/hbar underflows to 0."""
    require_positive("mass", mass)
    require_positive("omega", omega)
    n_max = require_count("n_max", n_max)
    scale = math.sqrt(mass * omega / units.hbar)
    require_finite("Hermite argument sqrt(m*omega/hbar)*|x|", scale * max(abs(grid.x_min), abs(grid.x_max)))
    factor, width = math.sqrt(scale), 1.0 / scale if scale else math.inf
    for n, row in enumerate(_kernels.hermite_basis(scale * grid.points(), n_max)):
        yield f"eigenstate n={n}", n, row, factor, width


def _eigenstate_level(grid: GridSpec, item, amp: np.ndarray, prob, admit=_admitted):
    """The oscillator level of item (what, n, h_n, sqrt(s), 1/s) of _hermite_rows,
    built into amp (complex) and renormalized on the grid, then admitted by
    admit (see _normalized_state); prob (float) is left holding |amp|^2.
    Level n has n + 1 lobes; where |psi|^2 is nonzero on fewer grid points,
    the grid cannot hold them, and _vanishing refuses the level (level 0, one
    lobe, is held by any point)."""
    what, n, row, factor, width = item
    level = _normalized_state(grid, np.multiply(row, factor, out=amp), what, 0.0, width, prob, admit, f"{what}: ")
    if (points := np.count_nonzero(prob)) <= n:
        how = f"its {n + 1} lobes need as many grid points where |psi|^2 > 0, and it has {points}"
        raise _vanishing(what, 0.0, width, grid, how)
    return level


def _eigenstate(grid: GridSpec, item) -> PureState:
    """The state of the oscillator level of item, of _hermite_rows, in a new array (see _eigenstate_level)."""
    return _eigenstate_level(grid, item, np.empty(grid.n, np.complex128), np.empty(grid.n), PureState._adopt)


def oscillator_eigenstates(n_max, mass, omega, grid, units) -> tuple:
    """Eigenstates n = 0..n_max of the harmonic oscillator from the stable orthonormal
    Hermite recurrence, each renormalized on the grid and admitted in turn (a
    refusal names the first level that fails, see _eigenstate_level), and all held at once."""
    return tuple(_eigenstate(grid, item) for item in _hermite_rows(n_max, mass, omega, grid, units))


def build_state(recipe: StateRecipe, grid: GridSpec, units: UnitSystem) -> PureState:
    """Realize a recipe on a grid as a normalized PureState.

    Raises InvalidRecipe for out-of-range parameters and DecayGuardViolation
    when the state does not vanish at the grid edges.  Every recipe admits
    exactly one state, the one returned: an OscillatorEigenstate(n) runs the
    Hermite recurrence through its n + 1 rows but normalizes and checks only
    the last, level n, so a refusal is level n's own (see _eigenstate_level).
    """
    if isinstance(recipe, GaussianPacket):
        require_positive("sigma", recipe.sigma)
        return _gaussian_packet(grid, recipe.center, recipe.momentum, recipe.sigma, units)
    if isinstance(recipe, OscillatorEigenstate):
        rows = _hermite_rows(recipe.n, recipe.mass, recipe.omega, grid, units)
        return _eigenstate(grid, deque(rows, maxlen=1).pop())
    if isinstance(recipe, CoherentState):
        require_positive("mass", recipe.mass)
        require_positive("omega", recipe.omega)
        require_positive("mass * omega", recipe.mass * recipe.omega)
        alpha = complex(recipe.alpha)
        hbar = units.hbar
        center = math.sqrt(2.0 * hbar / (recipe.mass * recipe.omega)) * alpha.real
        momentum = math.sqrt(2.0 * hbar * recipe.mass * recipe.omega) * alpha.imag
        sigma = math.sqrt(hbar / (2.0 * recipe.mass * recipe.omega))
        return _gaussian_packet(grid, center, momentum, sigma, units)
    if isinstance(recipe, RawSamples):
        return _normalized_state(grid, _amplitude_array(grid, np.array(recipe.amplitudes, dtype=np.complex128)))
    raise InvalidRecipe(f"unknown recipe type {type(recipe).__name__}")


# --- moments -----------------------------------------------------------------

def _mixture(target):
    """(weights, members) of a MixedEnsemble, or of a PureState as the
    one-member mixture with weight 1."""
    if isinstance(target, PureState):
        return np.array([1.0]), (target,)
    if isinstance(target, MixedEnsemble):
        return target.weights, target.members
    raise InvalidRecipe(f"expected PureState or MixedEnsemble, got {type(target).__name__}")


def _total_variance(weights, means, variances):
    """Mean and variance of a mixture from its members' means and variances
    (law of total variance): mean = sum w*m, variance = sum w*(v + (m - mean)^2).

    Every term is nonnegative, so the variance is too.  With one member of
    weight 1 the result is exact: 0 + 1.0*v == v and (m - m)**2 == 0.
    """
    mean = sum(w * m for w, m in zip(weights, means))
    var = sum(w * (v + (m - mean) ** 2) for w, m, v in zip(weights, means, variances))
    return float(mean), float(var)


def _mixture_report(weights, reports) -> MomentReport:
    """Moments of a mixture whose members' moments are `reports`."""
    mean_x, var_x = _total_variance(weights, [r.mean_x for r in reports], [r.var_x for r in reports])
    mean_p, var_p = _total_variance(weights, [r.mean_p for r in reports], [r.var_p for r in reports])
    return MomentReport(mean_x, mean_p, var_x, var_p)


def _moments(grid: GridSpec, units: UnitSystem, amp: np.ndarray, prob: np.ndarray, spectrum, scratch):
    """Moments of the pure state on grid whose admitted amplitudes are amp and
    whose |psi|^2 is prob (as _admitted leaves it): position by trapezoid
    quadrature of prob, momentum from the power spectrum of one DFT of amp.
    This is the one place where a state's moments take their DFT.  It is
    written into spectrum (complex and contiguous, or None to make one); a
    caller that gives amp up passes amp itself, which is then overwritten.
    prob, spectrum and scratch (a float array of the grid's size, or None to
    make one) are overwritten; every value and sum is the same float, summed
    in the same order, as out-of-place expressions give."""
    # the DFT, then the grid's arrays and scratch: measuring a 65536-point state in a fresh process
    # peaked 0.5 MB higher with the grid's arrays made first, 1.5 MB with the DFT last
    spectrum = np.fft.fft(amp, out=spectrum)
    x, dx, k = grid.points(), grid.dx, grid._wavenumbers
    prob /= _trapz(prob, dx)
    scratch = np.multiply(prob, x, out=scratch)
    mean_x = _trapz(scratch, dx)
    power = np.square(np.abs(spectrum, out=scratch), out=scratch)
    power /= power.sum()
    p_low, p_high = units.hbar * float(k.min()), units.hbar * float(k.max())
    require_finite("momenta hbar*k", p_low, p_high)
    p, terms = spectrum.view(np.float64).reshape(2, -1)  # the spectrum's memory, free once power is made
    np.multiply(units.hbar, k, out=p)
    # numpy's pairwise sums: the same bits whatever BLAS's thread count
    mean_p = float(np.multiply(power, p, out=terms).sum())
    require_finite("squared momentum deviations", *(d * d for d in (p_high - mean_p, mean_p - p_low)))
    require_finite("squared position deviations", *(d * d for d in (float(x[-1]) - mean_x, mean_x - float(x[0]))))
    var_p = float(np.multiply(power, np.square(np.subtract(p, mean_p, out=p), out=p), out=terms).sum())
    if var_p < sys.float_info.min:  # hbar*k underflowed: the variance has lost its digits
        raise InvalidRecipe(f"momentum variance var_p must be a normal float, got {var_p!r} at h = {units.h!r}")
    np.square(np.subtract(x, mean_x, out=p), out=p)  # p's memory again, now (x - mean_x)**2
    return MomentReport(mean_x, mean_p, _trapz(np.multiply(prob, p, out=terms), dx), var_p)


def phase_space_moments(state: PureState, units: UnitSystem) -> MomentReport:
    """Moments of one pure state: position by trapezoid quadrature of
    |psi|^2, momentum from the power spectrum of one DFT (see _moments)."""
    if not isinstance(state, PureState):
        raise InvalidRecipe(f"expected PureState, got {type(state).__name__}; ensemble_moments measures mixtures")
    prob = np.abs(state.amplitudes)
    return _moments(state.grid, units, state.amplitudes, np.square(prob, out=prob), None, None)


def ensemble_moments(ensemble: MixedEnsemble, units: UnitSystem) -> MomentReport:
    """Moments of a mixture (a PureState counts as the one-member mixture).

    Each member is measured once, as phase_space_moments measures it, in one
    set of arrays for all (|psi|^2, the spectrum and scratch, see _moments);
    the mixture mean is the weighted member mean and the mixture variance
    follows the law of total variance, Var = sum w*Var_i + sum w*(mean_i - mean)^2.
    """
    weights, members = _mixture(ensemble)
    n = members[0].grid.n
    prob, spectrum, scratch = np.empty(n), np.empty(n, np.complex128), np.empty(n)
    return _mixture_report(weights, [
        _moments(m.grid, units, m.amplitudes, np.square(np.abs(m.amplitudes, out=prob), out=prob), spectrum, scratch)
        for m in members
    ])


def _state_energy(state: PureState, hamiltonian: HamiltonianSpec, units: UnitSystem):
    """(<E>, ||(H - <E>) psi||^2) of one pure state; H applies the kinetic
    term spectrally."""
    if hamiltonian.potential.shape != (state.grid.n,):
        raise GridMismatch(
            f"potential has {hamiltonian.potential.shape[0]} samples for a grid of {state.grid.n}"
        )
    psi = state.amplitudes
    k = state.grid._wavenumbers
    kinetic = np.fft.ifft((0.5 * units.hbar**2 / hamiltonian.mass) * k**2 * np.fft.fft(psi))
    h_psi = kinetic + hamiltonian.potential * psi
    dx = state.grid.dx
    mean = _trapz(np.real(np.conj(psi) * h_psi), dx)
    return mean, _trapz(np.abs(h_psi - mean * psi) ** 2, dx)


def energy_moments(target, hamiltonian: HamiltonianSpec, units: UnitSystem):
    """Mean and variance of the energy for a PureState or MixedEnsemble.

    Each member's variance is the squared residual norm ||(H - <E>) psi||^2
    about its own mean, so it is nonnegative by construction; the members
    combine by the law of total variance, Var = sum w*Var_i + sum w*(E_i - E)^2.
    """
    weights, members = _mixture(target)
    return _total_variance(weights, *zip(*(_state_energy(m, hamiltonian, units) for m in members)))


def _boltzmann_weights(omega, mass, temperature, n_max, units) -> np.ndarray:
    """Normalized weights of the levels thermal_ensemble mixes at T: levels
    0..n_max less those whose weight underflows to zero, the ground state
    alone at T = 0."""
    require_positive("omega", omega)
    require_positive("mass", mass)
    if temperature < 0 or not math.isfinite(temperature):
        raise InvalidRecipe(f"temperature must be >= 0, got {temperature}")
    n_max = require_count("n_max", n_max)
    if temperature == 0.0:
        return np.array([1.0])
    q = math.exp(-units.hbar * omega / temperature)
    tail = q ** (n_max + 1)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"truncated Boltzmann tail mass {tail:.3e} >= {TAIL_TOL:g} at T={temperature}; raise n_max"
        )
    weights = (1.0 - q) * q ** np.arange(n_max + 1)
    weights = weights[weights > 0.0]  # geometric weights can underflow for deep levels; drop exact zeros
    return weights / weights.sum()


def thermal_ensemble(
    omega: float,
    mass: float,
    temperature: float,
    n_max: int,
    grid: GridSpec,
    units: UnitSystem,
) -> MixedEnsemble:
    """Boltzmann mixture of oscillator eigenstates 0..n_max at temperature T (k_B = 1).

    T = 0 returns the bare ground state.  Raises TruncationError when the
    discarded tail of the geometric weight series carries mass >= 1e-8.
    """
    weights = _boltzmann_weights(omega, mass, temperature, n_max, units)
    return MixedEnsemble(weights, oscillator_eigenstates(weights.size - 1, mass, omega, grid, units))
