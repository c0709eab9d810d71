"""Periodic grid bookkeeping and the package's real transforms.

Conventions, fixed once for the whole package:

* the box is [0, L) sampled at N equispaced nodes x_j = j*L/N;
* mode k carries the continuous frequency xi_k = 2*pi*k/L;
* the Fourier-series coefficients of a field are
  u_hat[k] = (1/N) * sum_j u(x_j) exp(-i xi_k x_j),
  so Parseval reads  L * sum_k |u_hat[k]|^2 = integral of |u|^2 over the box.

Fields are real, so every coefficient array of the package is a half
spectrum: the modes k = 0 .. N/2 of an rfft, u_hat[-k] being the conjugate
of u_hat[k]. Every frequency array of `GridSpec` runs over those N/2 + 1
modes, in that order.

Every transform of the package goes through `_rfft` and `_irfft`, which
call numpy's pocketfft kernels directly and write into caller-given storage.
They are the calls numpy.fft.rfft and numpy.fft.irfft end in, with the same
arguments, so results are those of numpy.fft bit for bit, without about
4 us of argument handling per call. Their scale factors, 1 and 1/N, are
float64 0-d arrays made once per N, not Python floats converted per call.
N is even on every grid, so the even-length forward kernel always applies.
"""

from __future__ import annotations

import numbers
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
        n = self.n_points
        if not isinstance(n, numbers.Integral) or n % 2 != 0 or n < 8:
            raise ConfigurationError(f"n_points must be an even integer >= 8, got {n!r}")
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
    def xi(self) -> np.ndarray:
        """Continuous frequencies xi_k = 2*pi*k/L of the half spectrum, k = 0 .. N/2."""
        return 2.0 * np.pi * np.arange(self.n_points // 2 + 1) / self.box_length

    @cached_property
    def helmholtz_inv_multiplier(self) -> np.ndarray:
        """1 / (1 + xi_k^2) for k = 0 .. N/2; the denominator is >= 1 for every mode."""
        return 1.0 / (1.0 + self.xi**2)

    @cached_property
    def band_size(self) -> int:
        """Number m of half-spectrum modes kept by the dealias rule, k <= fraction * N/2."""
        return int(self.dealias_fraction * (self.n_points // 2)) + 1

    @cached_property
    def half_deriv_multiplier(self) -> np.ndarray:
        """i xi_k for k = 0 .. N/2, with the sign-ambiguous Nyquist entry zeroed."""
        multiplier = 1j * self.xi
        multiplier[-1] = 0.0
        return multiplier


@dataclass(frozen=True)
class RealField:
    """N real samples of a function on the grid; samples[j] = u(x_j)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"expected {self.grid.n_points} samples, got shape {samples.shape}"
            )
        if not np.isfinite(samples).all():
            raise NumericalError("field samples are not all finite")
        object.__setattr__(self, "samples", samples)


def _finite_field(grid: GridSpec, samples: np.ndarray) -> RealField:
    """A RealField of float64 samples of shape (N,) that the caller has already
    shown to be finite; it is built without __post_init__'s checks and scan."""
    field = object.__new__(RealField)
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "samples", samples)
    return field


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
    """Validated grid; n_points must be an even integer >= 8, box_length > 0."""
    return GridSpec(n_points, float(box_length), dealias_fraction)

