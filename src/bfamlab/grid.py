"""Periodic grid bookkeeping and Fourier-space primitives.

Conventions, fixed once for the whole package:

* the box is [0, L) sampled at N equispaced nodes x_j = j*L/N;
* mode k in [-N/2, N/2) carries the continuous frequency xi_k = 2*pi*k/L;
* forward transform returns Fourier-series coefficients,
  u_hat[k] = (1/N) * sum_j u(x_j) exp(-i xi_k x_j),
  so Parseval reads  L * sum_k |u_hat[k]|^2 = integral of |u|^2 over the box.

Coefficient arrays are stored in numpy FFT ordering
(k = 0, 1, ..., N/2-1, -N/2, ..., -1).

Every real transform of the package goes through `_rfft` and `_irfft`, which
call numpy's pocketfft kernels directly and write into caller-given storage.
They are the calls numpy.fft.rfft and numpy.fft.irfft end in, with the same
arguments, so results are those of numpy.fft bit for bit, without about
4 us of argument handling per call. Their scale factors, 1 and 1/N, are
float64 0-d arrays made once per N, not Python floats converted per call.
N is even on every grid, so the even-length forward kernel always applies.
The complex `dft` and `idft`, and the `SpectralField` they return, are
public API and the tests' reference path; no run takes them. They stay on
numpy.fft: folding their 1/N into the kernel's factor would change bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigurationError, NumericalError

DEFAULT_DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class GridSpec:
    """Resolution N, box length L, and the dealias cutoff fraction."""

    n_points: int
    box_length: float
    dealias_fraction: float = DEFAULT_DEALIAS_FRACTION

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise ConfigurationError(
                f"n_points must be even and >= 8, got {self.n_points}"
            )
        if not 0 < self.box_length < np.inf:
            raise ConfigurationError(
                f"box_length must be positive and finite, got {self.box_length}"
            )
        if not 0 < self.dealias_fraction <= 1:
            raise ConfigurationError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @cached_property
    def dx(self) -> float:
        return self.box_length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        """Physical nodes x_j = j*L/N."""
        return np.arange(self.n_points) * self.dx

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers k in FFT ordering."""
        return np.rint(np.fft.fftfreq(self.n_points) * self.n_points).astype(int)

    @cached_property
    def xi(self) -> np.ndarray:
        """Continuous frequencies xi_k = 2*pi*k/L in FFT ordering."""
        return 2.0 * np.pi * self.modes / self.box_length

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True for modes kept by the 2/3-type rule: |k| <= fraction * N/2."""
        return np.abs(self.modes) <= self.dealias_fraction * (self.n_points // 2)

    @cached_property
    def helmholtz_inv_multiplier(self) -> np.ndarray:
        """1 / (1 + xi^2); denominator is >= 1 for every mode."""
        return 1.0 / (1.0 + self.xi**2)

    # Half-spectrum multipliers for rfft arrays, modes k = 0 .. N/2.

    @cached_property
    def band_size(self) -> int:
        """Number m of half-spectrum modes kept by the dealias rule, k <= fraction * N/2."""
        return int(np.count_nonzero(self.dealias_mask[: self.n_points // 2 + 1]))

    @cached_property
    def half_deriv_multiplier(self) -> np.ndarray:
        """i xi_k for k = 0 .. N/2, with the sign-ambiguous Nyquist entry zeroed."""
        multiplier = 1j * self.xi[: self.n_points // 2 + 1]
        multiplier[-1] = 0.0
        return multiplier

    @cached_property
    def band_nonlocal_multiplier(self) -> np.ndarray:
        """i xi / (1 + xi^2) on the dealiased band, k = 0 .. m-1."""
        return self.half_deriv_multiplier[: self.band_size] * self.helmholtz_inv_multiplier[: self.band_size]


def _checked(grid: GridSpec, values, dtype, kind: str, entries: str) -> np.ndarray:
    """values as an array of dtype, checked to hold N finite entries."""
    array = np.asarray(values, dtype=dtype)
    if array.shape != (grid.n_points,):
        raise ConfigurationError(
            f"expected {grid.n_points} {entries}, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise NumericalError(f"{kind} {entries} are not all finite")
    return array


@dataclass(frozen=True)
class RealField:
    """N real samples of a function on the grid; samples[j] = u(x_j)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        samples = _checked(self.grid, self.samples, np.float64, "field", "samples")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a field, in FFT ordering (see module docstring)."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _checked(self.grid, self.coeffs, np.complex128, "spectral", "coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, k: int) -> complex:
        """Coefficient of integer mode k in [-N/2, N/2)."""
        n = self.grid.n_points
        if not -n // 2 <= k < n // 2:
            raise ConfigurationError(f"mode {k} outside [-N/2, N/2) for N={n}")
        return complex(self.coeffs[k % n])


_UNIT_FACTOR = np.array(1.0)
_inverse_lengths = {}  # N -> 1/N as a float64 0-d array, made on first use


def _rfft(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy.fft.rfft of the rows of samples (last axis even N) written into out
    (last axis N/2+1); returns out."""
    return _pocketfft.rfft_n_even(samples, _UNIT_FACTOR, out=(out,))


def _irfft(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy.fft.irfft of the rows of spectrum to out's last-axis length N,
    written into out; returns out. Rows shorter than N/2+1 are zero-padded."""
    n = out.shape[-1]
    factor = _inverse_lengths.get(n)
    if factor is None:
        factor = _inverse_lengths[n] = np.array(1.0 / n)
    return _pocketfft.irfft(spectrum, factor, out=(out,))


def make_grid(
    n_points: int,
    box_length: float,
    dealias_fraction: float = DEFAULT_DEALIAS_FRACTION,
) -> GridSpec:
    """Validated grid; n_points must be even and >= 8, box_length > 0."""
    return GridSpec(n_points, float(box_length), dealias_fraction)


def dft(f: RealField) -> SpectralField:
    """Forward transform to series coefficients, u_hat = fft(u)/N."""
    return SpectralField(f.grid, np.fft.fft(f.samples) / f.grid.n_points)


def idft(F: SpectralField) -> RealField:
    """Inverse of dft; imaginary residue of the ifft is discarded."""
    return RealField(F.grid, (np.fft.ifft(F.coeffs) * F.grid.n_points).real)


def deriv(F: SpectralField, order: int = 1) -> SpectralField:
    """Spectral derivative: multiply by (i xi)^order.

    The Nyquist mode k = -N/2 is sign-ambiguous on an even grid and is
    zeroed for odd orders.
    """
    if order < 0:
        raise ConfigurationError(f"derivative order must be >= 0, got {order}")
    if order == 0:
        return F
    grid = F.grid
    # (i xi)^order split into real/imaginary cases to avoid complex-power noise
    magnitude = grid.xi**order
    if order % 2 == 0:
        multiplier = (-1) ** (order // 2) * magnitude
    else:
        multiplier = 1j * (-1) ** ((order - 1) // 2) * magnitude
    coeffs = multiplier * F.coeffs
    if order % 2 == 1:
        coeffs[grid.n_points // 2] = 0.0
    return SpectralField(grid, coeffs)


def helmholtz(F: SpectralField) -> SpectralField:
    """Apply 1 - d^2/dx^2, i.e. multiply by (1 + xi^2)."""
    return SpectralField(F.grid, (1.0 + F.grid.xi**2) * F.coeffs)


def helmholtz_inv(F: SpectralField) -> SpectralField:
    """Invert 1 - d^2/dx^2 exactly: divide by (1 + xi^2)."""
    return SpectralField(F.grid, F.grid.helmholtz_inv_multiplier * F.coeffs)


def dealias(F: SpectralField) -> SpectralField:
    """Zero every mode with |k| > dealias_fraction * N/2."""
    return SpectralField(F.grid, np.where(F.grid.dealias_mask, F.coeffs, 0.0))
