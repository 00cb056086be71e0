"""Two-time correlators via the regression recipe, reduced to theta kernels.

The emission and absorption integrands are C1(t, theta) = <s+(t+theta) s-(t)>
and C2(t, theta) = <s-(t) s+(t+theta)>. Each is obtained by seeding a
modified operator at time t (sigma_- rho for C1, rho sigma_- for C2),
evolving it with the same master equation and pulse maps, and reading off
the ge element. Exchanging the order of the double integral lets the
t-integration happen first, so only the theta-indexed kernels

    G1(theta) = int_0^{T-theta} C1(t, theta) dt     (G2 likewise)

are ever stored, never the full (t, theta) grid.

``accumulate_kernel`` works in the toggling frame. The coherences of rho
stay zero, so both seeds are pure coherences (ge = rho_ee, resp. rho_gg)
evolving under the monomial coherence map M of ``dynamics.GridState``. So
C1 = rho_ee(t) K and C2 = rho_gg(t) K with
K(t, theta) = [M(t+theta) M(t)^-1]_ge,ge, and each t-sum is a
cross-correlation per coherence column, done with FFTs in O(N log N). The
decay e^{theta*rate} is an envelope taken out first, so the FFT operands
have modulus near one and long windows keep full precision.

The kernel is linear in the correlators, so a detuning ensemble is one
weighted kernel sum_d w_d G_d: each detuning adds its own cross-correlations
under its own envelope into one accumulator, and a single detuning is the
one-point mixture. The populations, and with them G(0), do not depend on
the detuning; one ``grid_state`` call gives them together with the
coherence map of every detuning. The kernel sits on the run's own lags
theta_j = j*dt and stores no grid; the detector grid is the transform's.
"""

from __future__ import annotations

import numpy as np

from .core import CorrelationKernel, PulseSchedule, SimParams, check_mixture
from .dynamics import grid_state


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


def accumulate_kernel(schedule: PulseSchedule, params: SimParams,
                      deltas: np.ndarray | None = None,
                      weights: np.ndarray | None = None) -> CorrelationKernel:
    """Reduce both correlators to their theta kernels G1, G2.

    G[j] = sum_k w_k C(t_k, theta_j) over the rows k = 0..N-j (the
    integration triangle), with trapezoidal row weights: dt/2 for the rows
    seeded at t = 0 and t = T, dt for the rest. For each family the sum is
    two cross-correlations, one per coherence column, computed with
    zero-padded FFTs; G(0) is the direct sum of the weighted populations, so
    it is real. Repeated runs are bit-identical.

    With ``deltas`` and ``weights`` (a mixture as ``core.check_mixture``
    accepts it) the result is the weighted kernel sum_d w_d G_d of that
    detuning mixture, computed one detuning at a time from one
    ``grid_state`` pass; zero weights cost nothing. Without them it is the
    kernel at ``params.delta``. Either way the kernel carries ``params``.
    """
    params.check_schedule(schedule)
    if deltas is None:
        deltas, weights = [params.delta], [1.0]
    deltas, weights = check_mixture(deltas, weights)
    n, dt = params.n_steps, params.dt
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    size = fft_length(2 * n + 1)  # nothing wraps around
    steps = np.arange(n + 1)
    used = weights > 0
    s = grid_state(schedule, params, deltas[used])
    seeds = np.stack([w * s.ee, w * s.gg])  # row weights of C1 and C2, any delta
    g = np.zeros((2, n + 1), complex)
    for ge, eg, rate, weight in zip(s.ge, s.eg, s.rate, weights[used]):
        later = np.stack([ge, eg.conj()])  # M[ge, c] e^{-k*rate}, c = ge, eg
        # = seeds / conj(later), so conj(earlier[k]) * later[k + j] is
        # w_k rho(t_k) K(t_k, theta_j) e^{-j*rate} on the column that is nonzero
        earlier = seeds[:, None] * later / (np.abs(ge) + np.abs(eg)) ** 2
        both = np.fft.fft(earlier, size).conj() * np.fft.fft(later, size)
        g += weight * (np.fft.ifft(both.sum(axis=1))[:, :n + 1]
                       * np.exp(rate * steps))
    g[:, 0] = seeds.sum(axis=1)
    return CorrelationKernel(g1=g[0], g2=g[1], params=params,
                             schedule_digest=schedule.digest())
