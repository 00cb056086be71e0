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
r_c = seed / coef over the rows on column c,

    G[j] = e^{j(rate + i phase)} sum_s coef_s (Lambda_c[b_s - j] - Lambda_c[a_s - j])

over the stretches s = [a_s, b_s), c the column of s. Read backwards, that
is a running sum of the train of boundary terms +-coef_s convolved with r_c.
Between pulses each seed is a constant plus E_s q^k (q the RK4 decay
factor), so r_c is a few impulses per stretch through a running sum and
through y[k] = q y[k - 1] + u[k] (``decay_recurrence``). Both filters commute
with the convolution, so the kernel convolves the two sparse trains as an
outer product of their nonzeros and filters once: O(D (S^2 + N)) for D
detunings and S stretches, a fixed number of passes over the (D, N + 1) lags
whatever the pulse count. The decay e^{theta*rate} is an envelope taken out
first, so long windows keep full precision; it comes from two short tables,
with no exp per lag (``exp_powers``).

The kernel is linear in the correlators, so a detuning ensemble is one
weighted kernel sum_d w_d G_d: all detunings go through the same impulses
at once, and their kernels are added under their own envelopes; a single
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


def decay_recurrence(u: np.ndarray, q: float) -> np.ndarray:
    """y[..., i] = q y[..., i - 1] + u[..., i] along the last axis, from y = 0, for 0 < q < 1.

    In blocks of b steps, q^-b <= e (1 <= b <= size): y is q^i times the
    cumulative sum of q^-i u in a block, plus q^(i + 1) times the end of the
    block before. The block ends follow y_end[k] = q^b y_end[k - 1] + (own part),
    solved by a doubling scan in log2 of the block count passes.
    """
    size = u.shape[-1]
    b = max(1, min(size, int(-1.0 / math.log(q))))
    y = np.zeros((*u.shape[:-1], -(-size // b) * b), np.result_type(u, float))
    y[..., :size] = u
    blocks, i = y.reshape(*u.shape[:-1], -1, b), np.arange(b)
    blocks *= q ** -i
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks *= q ** i
    ends, s = blocks[..., -1].copy(), 1
    while s < ends.shape[-1]:
        ends[..., s:] += q ** (b * s) * ends[..., :-s]
        s *= 2
    blocks[..., 1:, :] += ends[..., :-1, None] * q ** (i + 1)
    return y[..., :size]


def accumulate_kernel(schedule: PulseSchedule, params: SimParams,
                      deltas: np.ndarray, weights: np.ndarray) -> CorrelationKernel:
    """Reduce both correlators to the weighted theta kernels G1, G2 of a detuning mixture.

    G[j] = sum_k w_k C(t_k, theta_j) over the rows k = 0..N-j (the
    integration triangle), with trapezoidal row weights: dt/2 for the rows
    seeded at t = 0 and t = T, dt for the rest. Stretch s, with heads E_s
    and G_s, has the impulses E_s / coef_s at a_s and -E_s q^(b_s - a_s) /
    coef_s at b_s (decaying) and +-(E_s + G_s) / coef_s (constant); row 0's
    half weight halves those at row 0 and adds two at row 1 that restore
    the full weight from there on. Their pairs with the boundary terms are
    scattered in chunks of O(N), so temporaries stay O(D N). The constant
    part is summed twice, weighting each pair's rounding by up to T: the
    error grows as O(S^2 T eps), where prefix sums give O(S T eps). G(0) is
    real, from the heads: the L_s rows of stretch s sum ee to E_s expm1(L_s ln q)
    / expm1(ln q) and ee + gg to L_s (E_s + G_s). As at every lag, G2 is exact
    to eps of G1 + G2, not of itself. Repeated runs are bit-identical.

    The result is sum_d w_d G_d over the members ``core.check_mixture``
    keeps, from one ``grid_state`` pass; a single detuning delta is the
    one-point mixture [delta], [1.0]. The kernel carries ``params`` and the
    schedule's digest.
    """
    params.check_schedule(schedule)
    deltas, weights = check_mixture(deltas, weights)
    n, dt = params.n_steps, params.dt
    s = grid_state(schedule, params, deltas)
    q, a, b = s.decay, s.starts, np.append(s.starts[1:], n + 1)
    ue, uc = s.ee[:, None] / s.coef, (s.ee + s.gg)[:, None] / s.coef
    # (boundary term, impulses) at stretch starts, ends and row 1, merged by column and position
    key = np.concatenate([s.columns, s.columns, [0]]) * (n + 2) + np.concatenate([a, b, [1]])
    vals = np.concatenate([np.stack([-s.coef, ue, uc], axis=1),
                           np.stack([s.coef, -ue * q ** (b - a)[:, None], -uc], axis=1),
                           0.5 * np.stack([0 * ue[:1], q * ue[:1], uc[:1]], axis=1)])
    vals[0, 1:] *= 0.5
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    key, vals = key[order][first], np.add.reduceat(vals[order], first, axis=0)
    d = s.coef.shape[1]
    acc = np.zeros((2, d, n + 2), complex)  # both impulse trains; slot n + 1 takes the overflow
    flat, rows, budget = acc.reshape(-1), (n + 2) * np.arange(2 * d)[:, None, None], 4 * (n + 1)
    for c in (0, 1):
        on = key // (n + 2) == c
        # C order, so that the products below ravel without a copy
        p, x, v = key[on] % (n + 2), vals[on, 0].T.copy(), vals[on, 1:].transpose(1, 2, 0).copy()
        # the boundary at p[t] reaches the impulses p[:t] at n + 1 - p[t] + p[k];
        # boundaries [i, j) against impulses [:j] make about budget pairs
        i = 1
        while i < p.size:
            j = min(p.size, max(i + 1, int((i + math.sqrt(i * i + 4 * budget)) / 2)))
            at = np.minimum(n + 1 - p[i:j, None] + p[:j], n + 1)
            pairs = x[None, :, i:j, None] * v[:, :, None, :j]
            np.add.at(flat, (rows + at).ravel(), pairs.ravel())
            i = j
    rev_ee = np.cumsum(decay_recurrence(acc[0, :, :n + 1], q), axis=-1)
    rev_c = np.cumsum(np.cumsum(acc[1, :, :n + 1], axis=-1), axis=-1)
    envelope = dt * weights[:, None] * exp_powers(s.rate + 1j * s.phase, n)
    g1 = np.einsum("dj,dj->j", envelope, rev_ee[:, ::-1])
    g2 = np.einsum("dj,dj->j", envelope, rev_c[:, ::-1]) - g1
    # G(0): stretch sums of ee = E q^j and of ee + gg = E + G; rows 0 and n at half weight
    x = math.log(q)
    ee_sum = s.ee @ np.expm1((b - a) * x) / math.expm1(x)
    fall = s.ee[-1] * math.expm1((n - a[-1]) * x)  # ee at row n less its head
    g1[0] = dt * (ee_sum - 0.5 * (s.ee[0] + s.ee[-1] + fall))
    g2[0] = dt * ((s.ee + s.gg) @ (b - a) - ee_sum - 0.5 * (s.gg[0] + s.gg[-1] - fall))
    return CorrelationKernel(g1=g1, g2=g2, params=params,
                             schedule_digest=schedule.digest())
