import sys

import numpy as np
import pytest

import bfamlab.dynamics
import bfamlab.grid
import bfamlab.taylor
from bfamlab import RealField, make_grid


def reference_wavenumbers(n, box_length):
    """i xi_k for k = 0 .. N/2 (Nyquist zeroed), xi_k, and the 2/3 dealias mask."""
    k = np.arange(n // 2 + 1)
    xi = 2.0 * np.pi * k / box_length
    ixi = 1j * xi
    ixi[-1] = 0.0
    return ixi, xi, k <= (2.0 / 3.0) * (n // 2)


def conservative_band(square, dsquare, b, box_length):
    """Half spectrum of -F from the samples of u^2 and u_x^2 (or their Cauchy
    sums), in conservative form,

        -F = d/dx [ u^2/2 + (1 - d^2/dx^2)^{-1} ((b/2) u^2 + ((3-b)/2) u_x^2) ],

    with both spectra cut to |k| <= (2/3) N/2; unnormalised, like numpy's
    rfft. A reference for the combine built on numpy.fft alone, in the
    squares' own precision.
    """
    ixi, xi, keep = reference_wavenumbers(square.shape[-1], box_length)
    s_hat = np.fft.rfft(square) * keep
    d_hat = np.fft.rfft(dsquare) * keep
    return ixi * (0.5 * s_hat + (0.5 * b * s_hat + 0.5 * (3.0 - b) * d_hat) / (1.0 + xi**2))


def reference_derivative(u, box_length):
    """Samples of u_x, by an rfft round trip in u's own precision."""
    ixi, _, _ = reference_wavenumbers(u.shape[-1], box_length)
    return np.fft.irfft(ixi * np.fft.rfft(u), u.shape[-1])


def fft_frequencies(grid):
    """Integer modes k and frequencies xi_k = 2 pi k / L over the full spectrum of
    a grid, in numpy FFT ordering (k = 0, 1, ..., N/2-1, -N/2, ..., -1), the
    Nyquist mode entered as -N/2; the grid itself lists only k = 0 .. N/2."""
    n = grid.n_points
    k = np.rint(np.fft.fftfreq(n) * n).astype(int)
    return k, 2.0 * np.pi * k / grid.box_length


def fft_band(grid):
    """The 2/3-rule band over fft_frequencies(grid): True where |k| <= (2/3) N/2."""
    return np.abs(fft_frequencies(grid)[0]) <= (2.0 / 3.0) * (grid.n_points // 2)


def planted_field(grid, coeffs):
    """The RealField whose Fourier-series coefficients, in numpy FFT ordering,
    are coeffs: N ifft(coeffs), with the imaginary round-off dropped."""
    return RealField(grid, (np.fft.ifft(coeffs) * grid.n_points).real)


def series_coefficients(u):
    """Fourier-series coefficients of a RealField in numpy FFT ordering, fft(u)/N."""
    return np.fft.fft(u.samples) / u.grid.n_points


def derivative(grid, coeffs, order):
    """The order-th derivative of planted_field(grid, coeffs): each mode times
    (i xi)^order, with the sign-ambiguous Nyquist mode -N/2 zeroed for odd orders."""
    magnitude = (-1) ** (order // 2) * fft_frequencies(grid)[1] ** order
    if order % 2 == 0:
        return planted_field(grid, magnitude * coeffs)
    coeffs = 1j * magnitude * coeffs
    coeffs[grid.n_points // 2] = 0.0
    return planted_field(grid, coeffs)


def rk4_states(u0, b, t, steps, samples=1):
    """The RK4 reference march from u0 at b at times t, 2 t, .., samples t:
    one reference_march of `steps` steps per span, each from the state the
    one before returned."""
    states = []
    for _ in range(samples):
        u0 = RealField(u0.grid, reference_march(u0, b, t, steps))
        states.append(u0)
    return states


def reference_march(u0, b, t, n):
    """The samples of u after n steps of t/n from u0: classical RK4 on the
    band of rfft(u), written with plain numpy operators and numpy.fft, each
    stage spectrum formed as u_hat - c (-k_i) (negation is exact) and the
    increments summed as ((k1 + 2 k2) + 2 k3) + k4; modes above the band
    keep the datum's values. The tests check the series of `run` and
    `taylor_coeffs` against it, and test_evolve.py checks it against an
    independent complex-FFT step.
    The band of -F is A rfft(u^2) + B rfft(u_x^2) with
    A = (i xi + b i xi / (1 + xi^2)) / 2 and B = ((3 - b)/2) i xi / (1 + xi^2)."""
    grid = u0.grid
    size, m = grid.n_points, grid.band_size
    xi = 2.0 * np.pi * np.arange(size // 2 + 1) / grid.box_length
    ixi = 1j * xi
    ixi[-1] = 0.0
    nonlocal_ = ixi[:m] * (1.0 / (1.0 + xi[:m] ** 2))
    A, B = 0.5 * (ixi[:m] + b * nonlocal_), (0.5 * (3.0 - b)) * nonlocal_
    spectrum = np.fft.rfft(u0.samples)

    def fields_of(band):
        spectrum[:m] = band
        return np.fft.irfft(np.array([spectrum, ixi * spectrum]), size)

    def minus_f(fields):
        squares = np.fft.rfft(fields * fields)
        return A * squares[0, :m] + B * squares[1, :m]

    dt, u_hat = t / n, spectrum[:m].copy()
    fields = np.array([u0.samples, np.fft.irfft(ixi * spectrum, size)])
    for _ in range(n):
        k1 = minus_f(fields)
        k2 = minus_f(fields_of(u_hat - (0.5 * dt) * k1))
        k3 = minus_f(fields_of(u_hat - (0.5 * dt) * k2))
        k4 = minus_f(fields_of(u_hat - dt * k3))
        u_hat = u_hat - (dt / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        fields = fields_of(u_hat)
    return fields[0]


def conservative_rhs(u, b, box_length):
    """Samples of F(u) from `conservative_band`."""
    ux = reference_derivative(u, box_length)
    return np.fft.irfft(-conservative_band(u * u, ux * ux, b, box_length), u.shape[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_2pi():
    return make_grid(64, 2.0 * np.pi)


@pytest.fixture
def random_field(grid_2pi, rng):
    # smooth random field: band-limited noise
    coeffs = np.zeros(grid_2pi.n_points, dtype=complex)
    for k in range(1, 12):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    samples = (np.fft.ifft(coeffs) * grid_2pi.n_points).real
    return RealField(grid_2pi, samples)


@pytest.fixture
def fft_counts(monkeypatch):
    """Live tally of FFTs and of shared-combine calls.

    "real" and "complex" count transformed rows, so a stacked (2, N) rfft
    counts 2; "calls" counts transform calls of either kind. Real transforms
    are counted at the grid's kernels `grid._rfft` and `grid._irfft`, in every
    bfamlab module that has bound them, and complex ones at numpy.fft. A
    real transform taken through numpy.fft is not counted, so the budgets
    also pin the grid's kernels as the one entry point for real transforms.
    """
    tally = {"real": 0, "complex": 0, "calls": 0, "combine": 0}

    def counted(fft, key):
        def wrapper(a, *args, **kwargs):
            tally[key] += int(np.prod(np.shape(a)[:-1], dtype=int))
            tally["calls"] += 1
            return fft(a, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "complex"))

    modules = [module for name, module in sys.modules.items() if name.startswith("bfamlab.")]
    for kernel in (bfamlab.grid._rfft, bfamlab.grid._irfft):
        wrapper = counted(kernel, "real")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, wrapper)

    combine = bfamlab.dynamics._rhs_from_products

    def counted_combine(*args, **kwargs):
        tally["combine"] += 1
        return combine(*args, **kwargs)

    # rhs_F and the recursion reach the combine by name, so patch every binding
    for module in (bfamlab.dynamics, bfamlab.taylor):
        monkeypatch.setattr(module, "_rhs_from_products", counted_combine)
    return tally
