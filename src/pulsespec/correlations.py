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
K(t, theta) = [M(t+theta) M(t)^-1]_ge,ge. Between pulses M is one constant
coefficient times e^{k(rate + i phase)}, so on the pulse-free stretches the
t-sum is a difference of prefix sums: with Lambda_c the prefix sum of
seed / coef over the rows on column c,

    G[j] = e^{j(rate + i phase)} sum_s coef_s (Lambda_c[b_s - j] - Lambda_c[a_s - j])

over the stretches s = [a_s, b_s), c the column of s. Each stretch boundary
adds one reversed slice of a prefix sum, so the cost is O(S N) for S
stretches, with no FFT. The decay e^{theta*rate} is an envelope taken out first, so the
prefix sums stay of the size of the window and long windows keep full
precision; it comes from two short tables, with no exp per lag (``exp_powers``).

The kernel is linear in the correlators, so a detuning ensemble is one
weighted kernel sum_d w_d G_d: all detunings go through the same slices at
once, and their kernels are added under their own envelopes; a single
detuning is the one-point mixture. The populations, the stretches and their
columns, and with them G(0), do not depend on the detuning; one
``grid_state`` call gives them together with the coefficients of every
detuning. The kernel sits on the run's own lags theta_j = j*dt and stores no
grid; the detector grid is the transform's.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CorrelationKernel, PulseSchedule, SimParams, check_mixture
from .dynamics import grid_state


def exp_powers(z: np.ndarray, n: int) -> np.ndarray:
    """e^{j z}, j = 0..n, a row per z: e^{q b z} e^{r z}, j = q b + r, b = isqrt(n) + 1."""
    b = math.isqrt(n) + 1
    r = np.arange(b)
    hi, lo = np.exp(np.multiply.outer(z, b * r)), np.exp(np.multiply.outer(z, r))
    return (hi[:, :, None] * lo[:, None, :]).reshape(z.size, b * b)[:, :n + 1]


def accumulate_kernel(schedule: PulseSchedule, params: SimParams,
                      deltas: np.ndarray | None = None,
                      weights: np.ndarray | None = None) -> CorrelationKernel:
    """Reduce both correlators to their theta kernels G1, G2.

    G[j] = sum_k w_k C(t_k, theta_j) over the rows k = 0..N-j (the
    integration triangle), with trapezoidal row weights: dt/2 for the rows
    seeded at t = 0 and t = T, dt for the rest. The sum runs over the
    stretches of ``grid_state``: one prefix sum per coherence column, then
    one reversed slice of it per stretch boundary, a single one where the
    stretches on both sides share the column. G(0) is the direct sum of the
    weighted populations, so it is real. Repeated runs are bit-identical.

    With ``deltas`` and ``weights`` (a mixture as ``core.check_mixture``
    accepts it) the result is the weighted kernel sum_d w_d G_d of that
    detuning mixture, from one ``grid_state`` pass; zero weights cost
    nothing. Without them it is the kernel at ``params.delta``. Either way
    the kernel carries ``params``.
    """
    params.check_schedule(schedule)
    if deltas is None:
        deltas, weights = [params.delta], [1.0]
    deltas, weights = check_mixture(deltas, weights)
    n, dt = params.n_steps, params.dt
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    used = weights > 0
    s = grid_state(schedule, params, deltas[used])
    seeds = np.stack([w * s.ee, w * s.gg])  # row weights of C1 and C2, any delta
    # lam[c, d, f, k] = Lambda_c[k + 1] of family f at detuning d; complex
    # seeds make the products below complex by complex, the fast loop
    lam = np.zeros((2, s.coef.shape[1], 2, n + 1), complex)
    rows = seeds.astype(complex)
    # stretch [a, b) on column c adds coef (Lambda_c[b - j] - Lambda_c[a - j])
    # to G[j]; the terms of one boundary and column add up to one slice
    terms = {}
    for a, b, c, coef in zip(s.starts, [*s.starts[1:], n + 1], s.columns, s.coef):
        np.multiply(rows[:, a:b], 1.0 / coef[:, None, None], out=lam[c, :, :, a:b])
        terms[b, c] = terms.get((b, c), 0.0) + coef
        terms[a, c] = terms.get((a, c), 0.0) - coef
    for c in set(s.columns):
        np.cumsum(lam[c], axis=-1, out=lam[c])
    # rev[..., n - j] = G[j], so the reversed slice Lambda_c[m - j], j < m,
    # is the forward slice lam[c, ..., :m] added to rev[..., n + 1 - m:]
    rev = np.zeros(lam.shape[1:], complex)
    work = np.empty_like(rev)
    for (m, c), x in terms.items():
        np.multiply(lam[c, :, :, :m], x[:, None, None], out=work[:, :, :m])
        rev[:, :, n + 1 - m:] += work[:, :, :m]
    envelope = weights[used, None] * exp_powers(s.rate + 1j * s.phase, n)
    g = np.einsum("dj,dfj->fj", envelope, rev[:, :, ::-1])
    g[:, 0] = seeds.sum(axis=1)
    return CorrelationKernel(g1=g[0], g2=g[1], params=params,
                             schedule_digest=schedule.digest())
