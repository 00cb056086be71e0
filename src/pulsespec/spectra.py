"""Spectra from correlation kernels: emission, direct and net absorption.

The emission spectrum is the Fourier transform of G1 over theta,
P(omega) = 2 Re int_0^T G1(theta) e^{-i omega theta} d theta, with the
overall detector-coupling scale set to one; the direct absorption P' is the
same transform of G2 and the net absorption is Q = P' - P. The integral is
the trapezoidal sum over the uniform theta grid. The detector grid is
uniform too, so with omega_k = omega_0 + k*dw and theta_n = n*dtheta the sum
is a chirp-z transform (Bluestein's algorithm): a linear convolution with
the chirp, done with FFTs in nb = max(1, N // 4M) blocks of the N theta points,
O((N + nb M) log(N/nb + M)) for M omega points. All that does not depend on
the kernel is one plan per grid, kept for the next transform onto that grid.

The transform is linear, so a detuning average transforms once, on the
weighted kernel of the whole mixture.

``emission_sum_rule`` holds the sum-rule policy: the grids it judges and its warnings.
Tools that read peaks and widths off a spectrum are the tests' (``tests/peaks.py``).
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .core import (CorrelationKernel, PulseSchedule, SimParams, SpectrumResult,
                   check_omega_grid)
from .correlations import accumulate_kernel


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


@functools.lru_cache(maxsize=1)
def _plan(n: int, m: int, omega0: float, dw: float, dtheta: float):
    """Read-only (pre, windows, post) of the transform of n lags onto m frequencies:
    trapezoid weights x e^{-i omega_0 theta_n} x c_n, the FFTs of conj(c) at the
    offsets k - n of each block, and c_k, with c_j = e^{-i dw dtheta j^2 / 2}. Each
    phase is one rounding of a float times an exact integer, one exp per point.
    """
    nb = max(1, n // (4 * m))
    blen = -(-n // nb)
    j = np.arange(max(nb * blen, m))
    chirp = np.exp(-1j * (0.5 * dw * dtheta) * (j * j))
    wq = np.full(n, dtheta)
    wq[0] = wq[-1] = 0.5 * dtheta
    pre = wq * np.exp(-1j * (omega0 * dtheta) * j[:n]) * chirp[:n]
    # conj(c) at the offsets 1 - nb*blen .. m - 1; block b's starts at (nb - 1 - b)*blen
    offsets = np.concatenate([chirp[nb * blen - 1:0:-1], chirp[:m]]).conj()
    windows = np.stack([offsets[i:i + blen + m - 1]
                        for i in range((nb - 1) * blen, -1, -blen)])
    plan = pre, np.fft.fft(windows, fft_length(blen + m - 1)), chirp[:m].copy()
    for a in plan:
        a.setflags(write=False)
    return plan


def spectrum_from_kernel(kernel: CorrelationKernel,
                         omega_grid: np.ndarray) -> SpectrumResult:
    """Fourier-transform the kernels onto a uniform detector frequency grid.

    ``omega_grid`` is checked by ``check_omega_grid``; the kernel's lags
    theta_n = n*dt are uniform by construction. Trapezoidal weights in
    theta. With k*n = (k^2 + n^2 - (k-n)^2)/2 and c_j = e^{-i dw dtheta j^2/2},
    the sum over n of f_n e^{-i omega_k theta_n} is c_k times the convolution
    of f_n e^{-i omega_0 theta_n} c_n with conj(c_j): the valid part of each
    block's convolution with its window of conj(c_j), so nothing wraps, summed
    over the blocks before the one inverse FFT. All but the kernel is the plan
    of the grid (N, M, omega_0, dw, dtheta), kept until another grid is used. Net
    absorption is the exact elementwise difference of the other two columns.
    """
    omega = check_omega_grid(omega_grid)
    n, m = kernel.g1.size, omega.size
    nyquist, reach = math.pi / kernel.params.dt, max(-omega[0], omega[-1])
    if reach > nyquist:
        warnings.warn(f"omega grid reaches {reach:g}, past the Nyquist frequency pi/dt = "
                      f"{nyquist:g}: the spectrum repeats every 2 pi/dt = {2 * nyquist:g}",
                      stacklevel=2)
    dw = (omega[-1] - omega[0]) / max(m - 1, 1)
    pre, windows, post = _plan(n, m, float(omega[0]), float(dw), kernel.params.dt)
    nb, size = windows.shape
    blen = -(-n // nb)
    f = np.zeros((2, nb * blen), complex)
    np.multiply(kernel.g1, pre, out=f[0, :n])
    np.multiply(kernel.g2, pre, out=f[1, :n])
    blocks = np.fft.fft(f.reshape(2, nb, blen).transpose(1, 0, 2), size)
    blocks *= windows[:, None]
    s = np.fft.ifft(blocks.sum(axis=0))[:, blen - 1:blen - 1 + m]
    emission, direct = 2.0 * (s * post).real

    return SpectrumResult(
        omega=omega,
        emission=emission,
        direct_absorption=direct,
        net_absorption=direct - emission,
        kernel=kernel,
    )


def emission_sum_rule(result: SpectrumResult) -> tuple[float, float]:
    """Parseval check: (int P(omega) d omega / (2 pi) over the grid, G1(0)), on any grid.

    G1(0) of ``result.kernel`` is the time-integrated excited population,
    so the two agree up to quadrature error and spectral weight outside the
    frequency grid. Only a grid spanning [-40, 40] at step <= 0.05 is judged:
    it warns when the emission has not decayed at the grid edges, then when a
    nonzero G1(0) is missed by more than 10%.
    """
    omega, p = result.omega, result.emission
    lhs = float(np.sum((p[1:] + p[:-1]) * np.diff(omega)) / 2.0 / (2.0 * np.pi))
    rhs = float(result.kernel.g1[0].real)
    if omega[0] > -40.0 or omega[-1] < 40.0 or np.max(np.diff(omega)) > 0.05 * (1 + 1e-9):
        return lhs, rhs
    edge = max(abs(p[0]), abs(p[-1]))
    if edge > 1e-3 * np.max(p, initial=0.0):
        warnings.warn(
            "emission at the omega-grid edge is not negligible; "
            "widen the grid for a reliable sum rule",
            stacklevel=2,
        )
    deviation = abs(lhs / rhs - 1.0) if rhs else 0.0
    if deviation > 0.10:
        warnings.warn(f"emission sum rule off by {deviation:.1%} (lhs={lhs:.6g}, rhs={rhs:.6g})",
                      stacklevel=2)
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
