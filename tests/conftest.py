import numpy as np
import pytest

import bfamlab.dynamics
import bfamlab.taylor
from bfamlab import RealField, make_grid


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
    """Live tally of real and complex FFTs and of shared-combine calls."""
    tally = {"real": 0, "complex": 0, "combine": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, key in (("rfft", "real"), ("irfft", "real"), ("fft", "complex"), ("ifft", "complex")):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), key))
    # the recursion imports the combine by name, so patch both bindings
    combine = counted(bfamlab.dynamics._rhs_from_products, "combine")
    for module in (bfamlab.dynamics, bfamlab.taylor):
        monkeypatch.setattr(module, "_rhs_from_products", combine)
    return tally
