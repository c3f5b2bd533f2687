"""Pure states, mixed ensembles, and their phase-space and energy moments.

Everything lives on a uniform 1-D grid.  Position moments use trapezoid
quadrature; momentum and kinetic-energy terms go through the discrete
Fourier transform, which is why every state must vanish at the grid edges
(the "decay guard").  All values are immutable after construction and all
operations are pure functions, so objects can be shared freely between
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import _kernels
from .errors import (
    DecayGuardViolation,
    GridMismatch,
    InvalidRecipe,
    NormalizationError,
    NumericalFailure,
    TruncationError,
)

TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-10          # |L2 norm - 1| allowed for states and weight sums
DECAY_RATIO = 1e-6        # edge amplitude allowed relative to the peak
VAR_CLAMP = -1e-10        # variance this far below zero is roundoff, further is a bug
TAIL_TOL = 1e-8           # truncated Boltzmann tail mass allowed


@dataclass(frozen=True)
class UnitSystem:
    """Working units, fixed by the Planck constant h (default h = 2*pi, i.e. hbar = 1)."""

    h: float = TWO_PI

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise InvalidRecipe(f"Planck constant must be finite and positive, got {self.h}")

    @property
    def hbar(self) -> float:
        return self.h / TWO_PI

    @property
    def bound(self) -> float:
        """Lower bound h/(4*pi) on the product of position and momentum spreads."""
        return self.h / (4.0 * math.pi)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of n points x_min + j*dx, j = 0..n-1, with dx = (x_max - x_min)/n."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise InvalidRecipe("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise InvalidRecipe(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if int(self.n) != self.n or self.n < 8:
            raise InvalidRecipe(f"need at least 8 sample points, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def points(self) -> np.ndarray:
        return _grid_points(self)


@lru_cache(maxsize=128)
def _grid_points(grid: GridSpec) -> np.ndarray:
    x = grid.x_min + grid.dx * np.arange(grid.n)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=128)
def _grid_wavenumbers(grid: GridSpec) -> np.ndarray:
    k = TWO_PI * np.fft.fftfreq(grid.n, d=grid.dx)
    k.flags.writeable = False
    return k


def _trapz(y: np.ndarray, dx: float) -> float:
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _clamped_variance(value: float, label: str) -> float:
    if value < 0.0:
        if value < VAR_CLAMP:
            raise NumericalFailure(f"{label} = {value:.3e} is negative beyond roundoff")
        return 0.0
    return value


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitudes on a grid.

    The constructor enforces unit L2 norm under trapezoid quadrature and the
    decay guard |psi(edge)| < 1e-6 * max|psi|; use the build_state recipes to
    get normalization for free.
    """

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amp.shape != (self.grid.n,):
            raise InvalidRecipe(f"expected {self.grid.n} amplitudes, got shape {amp.shape}")
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise InvalidRecipe("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _freeze(amp))
        prob = np.abs(amp) ** 2
        norm = math.sqrt(_trapz(prob, self.grid.dx))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"L2 norm {norm!r} differs from 1 by more than {NORM_TOL}")
        peak = float(np.abs(amp).max())
        edge = max(abs(amp[0]), abs(amp[-1]))
        if edge >= DECAY_RATIO * peak:
            raise DecayGuardViolation(
                f"edge amplitude {edge:.3e} exceeds {DECAY_RATIO:g} * peak {peak:.3e}; widen the grid"
            )


@dataclass(frozen=True)
class MixedEnsemble:
    """Statistical mixture: strictly positive weights summing to 1 over shared-grid members."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        members = tuple(self.members)
        if w.ndim != 1 or w.size == 0 or w.size != len(members):
            raise InvalidRecipe(f"{w.size} weights for {len(members)} members")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0) or np.any(w > 1.0):
            raise InvalidRecipe("weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > NORM_TOL:
            raise InvalidRecipe(f"weights sum to {w.sum()!r}, not 1")
        grid = members[0].grid
        for i, member in enumerate(members):
            if member.grid != grid:
                raise GridMismatch(f"member {i} grid {member.grid} differs from {grid}")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "members", members)

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid


@dataclass(frozen=True)
class HamiltonianSpec:
    """Kinetic term p^2/(2m) plus a potential sampled on the grid."""

    mass: float
    potential: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise InvalidRecipe(f"mass must be positive, got {self.mass}")
        v = np.array(self.potential, dtype=np.float64, copy=True)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InvalidRecipe("potential must be a finite 1-D sample array")
        object.__setattr__(self, "potential", _freeze(v))

    @classmethod
    def harmonic(cls, grid: GridSpec, mass: float, omega: float) -> "HamiltonianSpec":
        if omega <= 0:
            raise InvalidRecipe(f"omega must be positive, got {omega}")
        x = grid.points()
        return cls(mass=mass, potential=0.5 * mass * omega**2 * x**2)


@dataclass(frozen=True)
class MomentReport:
    """Means and variances of position and momentum for a state or ensemble."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float

    def __post_init__(self):
        for name in ("mean_x", "mean_p", "var_x", "var_p"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidRecipe(f"{name} must be finite")
        if self.var_x < 0 or self.var_p < 0:
            raise InvalidRecipe("variances must be nonnegative")


# --- state recipes -----------------------------------------------------------

@dataclass(frozen=True)
class GaussianPacket:
    """Real Gaussian envelope of position spread sigma, boosted to mean momentum."""

    center: float = 0.0
    momentum: float = 0.0
    sigma: float = 1.0


@dataclass(frozen=True)
class OscillatorEigenstate:
    n: int
    mass: float = 1.0
    omega: float = 1.0


@dataclass(frozen=True)
class CoherentState:
    """Displaced oscillator ground state, alpha = (x0/s + i*p0*s/hbar)/sqrt(2), s = sqrt(hbar/(m*omega))."""

    alpha: complex
    mass: float = 1.0
    omega: float = 1.0


@dataclass(frozen=True)
class RawSamples:
    amplitudes: tuple


StateRecipe = Union[GaussianPacket, OscillatorEigenstate, CoherentState, RawSamples]


def _normalized_state(grid: GridSpec, amp: np.ndarray) -> PureState:
    norm = math.sqrt(_trapz(np.abs(amp) ** 2, grid.dx))
    if not (math.isfinite(norm) and norm > 0):
        raise InvalidRecipe("amplitudes have zero or non-finite norm")
    return PureState(grid, amp / norm)


def _gaussian_amplitudes(grid, center, momentum, sigma, units):
    x = grid.points()
    envelope = (TWO_PI * sigma**2) ** -0.25 * np.exp(-((x - center) ** 2) / (4.0 * sigma**2))
    return envelope * np.exp(1j * momentum * x / units.hbar)


def oscillator_eigenstates(n_max, mass, omega, grid, units) -> tuple:
    """Eigenstates n = 0..n_max of the harmonic oscillator, from the stable
    orthonormal Hermite recurrence, renormalized on the grid."""
    if mass <= 0 or omega <= 0:
        raise InvalidRecipe(f"need mass, omega > 0, got mass={mass}, omega={omega}")
    if int(n_max) != n_max or n_max < 0:
        raise InvalidRecipe(f"need integer n_max >= 0, got {n_max}")
    scale = math.sqrt(mass * omega / units.hbar)
    basis = _kernels.hermite_basis(scale * grid.points(), int(n_max)) * math.sqrt(scale)
    states = []
    for n in range(int(n_max) + 1):
        try:
            states.append(_normalized_state(grid, basis[n].astype(np.complex128)))
        except DecayGuardViolation as exc:
            raise DecayGuardViolation(f"eigenstate n={n}: {exc}") from exc
    return tuple(states)


def build_state(recipe: StateRecipe, grid: GridSpec, units: UnitSystem) -> PureState:
    """Realize a recipe on a grid as a normalized PureState.

    Raises InvalidRecipe for out-of-range parameters and DecayGuardViolation
    when the state does not vanish at the grid edges.
    """
    if isinstance(recipe, GaussianPacket):
        if recipe.sigma <= 0 or not math.isfinite(recipe.sigma):
            raise InvalidRecipe(f"sigma must be positive, got {recipe.sigma}")
        if not (math.isfinite(recipe.center) and math.isfinite(recipe.momentum)):
            raise InvalidRecipe("center and momentum must be finite")
        return _normalized_state(
            grid, _gaussian_amplitudes(grid, recipe.center, recipe.momentum, recipe.sigma, units)
        )
    if isinstance(recipe, OscillatorEigenstate):
        return oscillator_eigenstates(recipe.n, recipe.mass, recipe.omega, grid, units)[-1]
    if isinstance(recipe, CoherentState):
        if recipe.mass <= 0 or recipe.omega <= 0:
            raise InvalidRecipe(f"need mass, omega > 0, got mass={recipe.mass}, omega={recipe.omega}")
        alpha = complex(recipe.alpha)
        hbar = units.hbar
        center = math.sqrt(2.0 * hbar / (recipe.mass * recipe.omega)) * alpha.real
        momentum = math.sqrt(2.0 * hbar * recipe.mass * recipe.omega) * alpha.imag
        sigma = math.sqrt(hbar / (2.0 * recipe.mass * recipe.omega))
        return _normalized_state(grid, _gaussian_amplitudes(grid, center, momentum, sigma, units))
    if isinstance(recipe, RawSamples):
        return _normalized_state(grid, np.asarray(recipe.amplitudes, dtype=np.complex128))
    raise InvalidRecipe(f"unknown recipe type {type(recipe).__name__}")


# --- moments -----------------------------------------------------------------

def _position_distribution(state: PureState):
    prob = np.abs(state.amplitudes) ** 2
    return prob / _trapz(prob, state.grid.dx)


def _momentum_distribution(state: PureState, units: UnitSystem):
    """Momentum samples and matching probability weights from the DFT of the amplitudes."""
    weights = np.abs(np.fft.fft(state.amplitudes)) ** 2
    p = units.hbar * _grid_wavenumbers(state.grid)
    return p, weights / weights.sum()


def _mixture(target):
    """(weights, members) of a MixedEnsemble, or of a PureState as the
    one-member mixture with weight 1."""
    if isinstance(target, PureState):
        return np.array([1.0]), (target,)
    if isinstance(target, MixedEnsemble):
        return target.weights, target.members
    raise InvalidRecipe(f"expected PureState or MixedEnsemble, got {type(target).__name__}")


def _moments(weights, members, units: UnitSystem) -> MomentReport:
    """Weighted-trace moments: means are weight-averaged, variances are taken
    about the mixture mean (law of total variance).  With one member of
    weight 1 the weighting is exact (1.0 * v == v and 0 + v == v)."""
    grid = members[0].grid
    x = grid.points()
    dx = grid.dx
    probs = [_position_distribution(m) for m in members]
    momenta = [_momentum_distribution(m, units) for m in members]
    mean_x = float(sum(wi * _trapz(prob * x, dx) for wi, prob in zip(weights, probs)))
    var_x = float(sum(wi * _trapz(prob * (x - mean_x) ** 2, dx) for wi, prob in zip(weights, probs)))
    mean_p = float(sum(wi * (wk @ p) for wi, (p, wk) in zip(weights, momenta)))
    var_p = float(sum(wi * (wk @ (p - mean_p) ** 2) for wi, (p, wk) in zip(weights, momenta)))
    return MomentReport(
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=_clamped_variance(var_x, "var_x"),
        var_p=_clamped_variance(var_p, "var_p"),
    )


def phase_space_moments(state: PureState, units: UnitSystem) -> MomentReport:
    """Position moments by trapezoid quadrature, momentum moments spectrally."""
    return _moments(*_mixture(state), units)


def ensemble_moments(ensemble: MixedEnsemble, units: UnitSystem) -> MomentReport:
    """Moments of a mixture (a PureState counts as the one-member mixture);
    see _moments."""
    return _moments(*_mixture(ensemble), units)


def _apply_hamiltonian(state: PureState, hamiltonian: HamiltonianSpec, units: UnitSystem):
    k = _grid_wavenumbers(state.grid)
    kinetic = np.fft.ifft((0.5 * units.hbar**2 / hamiltonian.mass) * k**2 * np.fft.fft(state.amplitudes))
    return kinetic + hamiltonian.potential * state.amplitudes


def _member_energy(state, hamiltonian, units):
    h_psi = _apply_hamiltonian(state, hamiltonian, units)
    dx = state.grid.dx
    mean = _trapz(np.real(np.conj(state.amplitudes) * h_psi), dx)
    return mean, h_psi


def energy_moments(target, hamiltonian: HamiltonianSpec, units: UnitSystem):
    """Mean and variance of the energy for a PureState or MixedEnsemble.

    The variance is the squared deviation about the (ensemble) mean,
    computed as the squared residual norm ||(H - <E>) psi||^2, so it is
    nonnegative by construction up to roundoff.
    """
    weights, members = _mixture(target)
    grid = members[0].grid
    if hamiltonian.potential.shape != (grid.n,):
        raise GridMismatch(
            f"potential has {hamiltonian.potential.shape[0]} samples for a grid of {grid.n}"
        )
    dx = grid.dx
    per_member = [_member_energy(m, hamiltonian, units) for m in members]
    mean_e = float(sum(wi * e for wi, (e, _) in zip(weights, per_member)))
    var_e = float(
        sum(
            wi * _trapz(np.abs(h_psi - mean_e * m.amplitudes) ** 2, dx)
            for wi, m, (_, h_psi) in zip(weights, members, per_member)
        )
    )
    return mean_e, _clamped_variance(var_e, "var_E")


def _boltzmann_weights(omega, mass, temperature, n_max, units) -> np.ndarray:
    """Normalized weights of the levels thermal_ensemble mixes at T: levels
    0..n_max less those whose weight underflows to zero, the ground state
    alone at T = 0."""
    if omega <= 0 or mass <= 0:
        raise InvalidRecipe(f"need omega, mass > 0, got omega={omega}, mass={mass}")
    if temperature < 0 or not math.isfinite(temperature):
        raise InvalidRecipe(f"temperature must be >= 0, got {temperature}")
    if int(n_max) != n_max or n_max < 0:
        raise InvalidRecipe(f"need integer n_max >= 0, got {n_max}")
    if temperature == 0.0:
        return np.array([1.0])
    q = math.exp(-units.hbar * omega / temperature)
    tail = q ** (int(n_max) + 1)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"truncated Boltzmann tail mass {tail:.3e} >= {TAIL_TOL:g} at T={temperature}; raise n_max"
        )
    weights = (1.0 - q) * q ** np.arange(int(n_max) + 1)
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
