"""Spectra from correlation kernels: emission, direct and net absorption.

The emission spectrum is the Fourier transform of G1 over theta,
P(omega) = 2 Re int_0^T G1(theta) e^{-i omega theta} d theta, with the
overall detector-coupling scale set to one; the direct absorption P' is the
same transform of G2 and the net absorption is Q = P' - P. The integral is
the trapezoidal sum over the uniform theta grid. The detector grid is
uniform too, so with omega_k = omega_0 + k*dw and theta_n = n*dtheta the sum
is a chirp-z transform (Bluestein's algorithm): one linear convolution,
done with FFTs in O((N + M) log(N + M)) for N theta and M omega points.

The transform is linear, so a detuning average transforms once, on the
weighted kernel of the whole mixture.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (CorrelationKernel, PulseSchedule, SimParams, SpectrumResult,
                   check_omega_grid)
from .correlations import accumulate_kernel, exp_powers


def fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^a >= n: 2^a >= ceil(n / p35)
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def spectrum_from_kernel(kernel: CorrelationKernel,
                         omega_grid: np.ndarray) -> SpectrumResult:
    """Fourier-transform the kernels onto a uniform detector frequency grid.

    ``omega_grid`` is checked by ``check_omega_grid``; the kernel's lags
    theta_n = n*dt are uniform by construction. Trapezoidal weights in
    theta. With k*n = (k^2 + n^2 - (k-n)^2)/2 and c_j = e^{-i dw dtheta j^2/2},
    the sum over n of f_n e^{-i omega_k theta_n} is c_k times the convolution
    of f_n e^{-i omega_0 theta_n} c_n with conj(c_j); G1 and G2 share the FFT
    of the chirp, the one exp; e^{-i omega_0 theta_n} is ``exp_powers``. Net
    absorption is the exact elementwise difference of the other two columns.
    """
    omega = check_omega_grid(omega_grid)
    n, m, dtheta = kernel.g1.size, omega.size, kernel.params.dt
    dw = (omega[-1] - omega[0]) / max(m - 1, 1)
    wq = np.full(n, dtheta)
    wq[0] = wq[-1] = 0.5 * dtheta
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * dw * dtheta * (j * j))  # j*j is an exact integer
    demod = exp_powers(np.array([-1j * omega[0] * dtheta]), n - 1)[0]
    f = np.stack([kernel.g1, kernel.g2]) * (wq * demod * chirp[:n])
    size = fft_length(n + m - 1)  # no wrap-around
    h = np.zeros(size, complex)
    h[:m] = chirp[:m].conj()
    h[size - n + 1:] = chirp[n - 1:0:-1].conj()  # offsets k - n < 0
    s = np.fft.ifft(np.fft.fft(f, size) * np.fft.fft(h))[:, :m] * chirp[:m]
    emission, direct = 2.0 * s.real

    return SpectrumResult(
        omega=omega,
        emission=emission,
        direct_absorption=direct,
        net_absorption=direct - emission,
        kernel=kernel,
    )


def emission_sum_rule(result: SpectrumResult) -> tuple[float, float]:
    """Parseval check: int P(omega) d omega / (2 pi) against G1(0).

    G1(0) of ``result.kernel`` is the time-integrated excited population,
    so the two agree up to quadrature error and spectral weight outside the
    frequency grid. Warns when the emission has not decayed at the grid
    edges.
    """
    omega = result.omega
    if (omega[0] > -40.0 or omega[-1] < 40.0
            or np.max(np.diff(omega)) > 0.05 * (1 + 1e-9)):
        raise ValueError(
            "sum rule needs an omega grid spanning at least [-40, 40] "
            "with step <= 0.05"
        )
    p = result.emission
    lhs = float(np.sum((p[1:] + p[:-1]) * np.diff(omega)) / 2.0 / (2.0 * np.pi))
    rhs = float(result.kernel.g1[0].real)
    edge = max(abs(p[0]), abs(p[-1]))
    if edge > 1e-3 * np.max(p, initial=0.0):
        warnings.warn(
            "emission at the omega-grid edge is not negligible; "
            "widen the grid for a reliable sum rule",
            stacklevel=2,
        )
    return lhs, rhs


def detuning_average(schedule: PulseSchedule, params: SimParams,
                     deltas: np.ndarray, weights: np.ndarray,
                     omega_grid: np.ndarray) -> SpectrumResult:
    """Weighted ensemble average of spectra over a set of detunings.

    Proxy for inhomogeneous broadening. The spectra are linear in the
    kernel, so the average is one transform onto ``omega_grid`` of the
    mixture's weighted kernel (``accumulate_kernel`` with ``deltas`` and
    ``weights``); it equals the weighted mean of the single-detuning
    spectra up to rounding. A single run is the one-point mixture [delta], [1.0].
    """
    return spectrum_from_kernel(accumulate_kernel(schedule, params, deltas, weights),
                                omega_grid)


def smooth3(values: np.ndarray) -> np.ndarray:
    """3-point moving average with the ends left untouched.

    The two outer terms are added first, so reversing the input reverses
    the output bit for bit.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return v.copy()
    out = v.copy()
    out[1:-1] = (v[:-2] + v[2:] + v[1:-1]) / 3.0
    return out


#: neighbouring smoothed values closer than this many machine epsilons of
#: their summed magnitudes are equal; rounding moves a smoothed value by at
#: most 1.5 eps of its magnitude (mean |raw| of its three terms), so a tie
#: in exact arithmetic is never split
_TIE_EPS = 2.0


def local_maxima(omega: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of local maxima of the 3-point-smoothed values.

    Neighbouring smoothed values count as equal when they differ by no more
    than a bound just above the rounding error of their 3-term sums, taken
    from the magnitudes of the raw values in each sum; the bound is local,
    so small peaks in the tails of a large one survive. A flat run (one or more points, equal in
    this sense) is a maximum when the values rise into it and fall after
    it. A shelf, where the values rise into the run and rise again after
    it, is not a maximum. Each maximal run gives one index: the point of
    the run with the largest raw value, the lowest frequency among exact
    raw ties. A run that touches a grid endpoint never qualifies, so
    reversing input without raw ties reverses the indices.
    """
    v = np.asarray(values, dtype=float)
    s = smooth3(v)
    if s.size < 3:
        return np.array([], dtype=int)
    mag = smooth3(np.abs(v))
    tol = _TIE_EPS * np.finfo(float).eps * (mag[:-1] + mag[1:])
    diff = np.diff(s)
    step = (diff > tol).astype(int) - (diff < -tol)
    edges = np.flatnonzero(step)
    peak = (step[edges[:-1]] > 0) & (step[edges[1:]] < 0)
    starts = edges[:-1][peak] + 1
    stops = edges[1:][peak] + 1
    return np.array([a + int(np.argmax(v[a:b])) for a, b in zip(starts, stops)],
                    dtype=int)


def dominant_peaks(omega: np.ndarray, values: np.ndarray,
                   rel_height: float = 0.5) -> list[tuple[float, float]]:
    """(position, smoothed height) of the local maxima that reach the cut.

    The cut is base + rel_height * (top - base), with base the smallest
    smoothed value and top the highest maximum, so a constant shift (lines
    all below zero, say) changes nothing. Positions and heights are taken at
    the indices `local_maxima` reports, so a symmetric narrow line sits on
    its own grid point.
    """
    s = smooth3(values)
    idx = local_maxima(omega, values)
    if idx.size == 0:
        return []
    cut = s.min() + rel_height * (s[idx].max() - s.min())
    return [(float(omega[i]), float(s[i])) for i in idx if s[i] >= cut]


def full_width_half_max(omega: np.ndarray, values: np.ndarray) -> float:
    """FWHM of the global maximum via linear interpolation of the crossings."""
    v = np.asarray(values, dtype=float)
    i = int(np.argmax(v))
    half = v[i] / 2.0
    left = np.nonzero(v[:i] < half)[0]
    right = np.nonzero(v[i:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half-maximum level is not crossed on both sides")
    j = left[-1]
    lo = omega[j] + (half - v[j]) * (omega[j + 1] - omega[j]) / (v[j + 1] - v[j])
    k = i + right[0]
    hi = omega[k - 1] + (half - v[k - 1]) * (omega[k] - omega[k - 1]) / (v[k] - v[k - 1])
    return float(hi - lo)
