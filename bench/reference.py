"""Independent references that the workload checks compare against.

Nothing here imports bfamlab. The right-hand side is a plain real-FFT
pipeline in conservative form, and the norms are closed forms, so a check
against them does not compare the program with a stored copy of itself.
"""

import math

import numpy as np
from scipy.special import i0

DEALIAS_FRACTION = 2.0 / 3.0


def _wavenumbers(n, box_length):
    k = np.arange(n // 2 + 1)
    xi = 2.0 * np.pi * k / box_length
    ixi = 1j * xi
    ixi[-1] = 0.0  # the Nyquist mode of an odd derivative is sign-ambiguous
    return k, xi, ixi


def derivative(u, box_length):
    _, _, ixi = _wavenumbers(u.size, box_length)
    return np.fft.irfft(ixi * np.fft.rfft(u), u.size)


def rhs(u, b, box_length):
    """b-family right-hand side in conservative form,

        u_t = -d/dx [ u^2/2 + (1 - d^2/dx^2)^{-1} ((b/2) u^2 + ((3-b)/2) u_x^2) ],

    with the spectra of u^2 and u_x^2 cut to |k| <= (2/3) N/2.
    This is also the raw-numpy floor that rhs_F is timed against.
    """
    n = u.size
    k, xi, ixi = _wavenumbers(n, box_length)
    keep = k <= DEALIAS_FRACTION * (n // 2)
    ux = np.fft.irfft(ixi * np.fft.rfft(u), n)
    s_hat = np.fft.rfft(u * u) * keep
    d_hat = np.fft.rfft(ux * ux) * keep
    flux = 0.5 * s_hat + (0.5 * b * s_hat + 0.5 * (3.0 - b) * d_hat) / (1.0 + xi**2)
    return np.fft.irfft(-ixi * flux, n)


def rk4(u, b, box_length, t, steps):
    """Classical RK4 with `steps` equal steps of the reference right-hand side."""
    dt = t / steps
    for _ in range(steps):
        k1 = rhs(u, b, box_length)
        k2 = rhs(u + 0.5 * dt * k1, b, box_length)
        k3 = rhs(u + 0.5 * dt * k2, b, box_length)
        k4 = rhs(u + dt * k3, b, box_length)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def periodic_sech(x, amplitude, width, center, box_length):
    """a sech((x - c)/w) summed over the neighbouring box images."""
    return sum(
        amplitude / np.cosh((x - center + shift * box_length) / width)
        for shift in (-1.0, 0.0, 1.0)
    )


def sech_strip(width):
    """Half-width of the analyticity strip of sech(x/w): poles at +-i pi w/2."""
    return 0.5 * math.pi * width


def sech_l2(amplitude, width):
    """L2 norm of a sech(x/w) on the line: integral of sech^2 is 2w."""
    return amplitude * math.sqrt(2.0 * width)


def gaussian_integral(amplitude, width):
    """Integral of a exp(-x^2/w^2) on the line."""
    return amplitude * width * math.sqrt(math.pi)


# a sin(x + phase) on a 2 pi box: modes +-1 with |u_hat| = a/2, so every
# derivative-weighted norm reduces to a one-term or Bessel-type series.


def sine_sobolev(amplitude, s):
    return amplitude * math.sqrt(math.pi * 2.0**s)


def sine_gevrey(amplitude, sigma, s):
    return sine_sobolev(amplitude, s) * math.exp(sigma)


def sine_km_phi(amplitude, sigma):
    """1/2 sum_j e^{2 sigma j}/(j!)^2 * 4 pi a^2 = 2 pi a^2 I0(2 e^sigma)."""
    return 2.0 * math.pi * amplitude**2 * float(i0(2.0 * math.exp(sigma)))


def sine_km_radius(amplitude, sigma):
    return math.sqrt(2.0 * sine_km_phi(amplitude, sigma))


def sine_hm(amplitude, sigma, m):
    """sup_j sigma^j (j+1)^2 / j! * a sqrt(pi) 2^m; 4.5 a sqrt(pi) 2^m at sigma = 1."""
    log_sup = max(
        j * math.log(sigma) + 2.0 * math.log(j + 1) - math.lgamma(j + 1) for j in range(200)
    )
    return amplitude * math.sqrt(math.pi) * 2.0**m * math.exp(log_sup)


def sine_first_coeff(amplitude, b, phase, x):
    """c_1 = F(a sin(x + phase)) = -a^2 ((1+b)/5) sin(2(x + phase))."""
    return -(amplitude**2) * ((1.0 + b) / 5.0) * np.sin(2.0 * (x + phase))
