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
through y[k] = q y[k - 1] + u[k]. Both filters commute with the convolution:
a pair of boundary term at p_t and impulse at p_k < p_t on one column adds
a h(L - j) to G1 and a (L - j + 1) to G1 + G2 at the lags j <= L = p_t - p_k - 1,
h(k) = sum_{i<=k} q^i. So the pairs are summed per breakpoint L, and the lags
cut into cells, runs between breakpoints of at most 1/|ln q| lags: a scan
(``decay_scan``) and running sums give four coefficients at each cell start,
and short tables in the offset give every lag in one matrix product per family.
The work per detuning follows the pairs and cells, not the lags; the envelope
e^{theta(rate + i phase)} is taken at each cell start, keeping full precision.

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


def decay_scan(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """y[..., i] += f[i] y[..., i + 1] along the last axis from the end, in place, for 0 < f <= 1:
    log2 of the size doubling passes, each factor a product of the f, so at most one."""
    f, s = np.array(f, dtype=float), 1
    while s < f.size:
        y[..., :-s] += f[:-s] * y[..., s:]
        f[:-s] *= f[s:]
        s *= 2
    return y


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
    binned in chunks of O(N / D), so the chunks stay O(N) values. The constant
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
    d, lq = s.coef.shape[1], math.log(q)
    # C order, so that the products below ravel without a copy
    p, x, v = key % (n + 2), vals[:, 0].T.copy(), vals[:, 1:].transpose(1, 2, 0).copy()
    columns = slice(0, mid := np.searchsorted(key, n + 2)), slice(mid, None)  # columns 0, 1
    # bit L + 1 of seen: a pair stops at lag L; each column's bit set shifted by its positions
    seen = 0
    for ks in [p[col].tolist() for col in columns]:
        row = sum(1 << k for k in ks)
        for k in ks:
            seen |= row >> k
    u = seen.bit_count() - 1  # breakpoints; bit 0 is the pairs k = t
    seen = np.unpackbits(np.frombuffer(seen.to_bytes((n + 9) // 8, "little"), np.uint8),
                         count=n + 2, bitorder="little").view(bool)
    # cells: runs between breakpoints, cut at multiples of w, and q^-w <= e
    w = max(1, min(int(-1.0 / lq), max(math.isqrt(2 * d * (n + 1) // u), (n + 1) // (2 * u)) + 1))
    seen[:n + 1:w] = seen[n + 1] = True
    edges = np.flatnonzero(seen)
    starts, ell, m = edges[:-1], edges[1:] - edges[:-1], edges.size - 1
    slot = np.zeros(2 * (n + 2), np.intp)  # slot[L + 1] = 2 + the cell that ends at lag L
    slot[edges] = np.arange(1, m + 2)
    acc = np.zeros((2, d, m + 2), complex)  # both impulse trains per cell; slots 0, 1 take k >= t
    flat, rows = acc.reshape(-1), (m + 2) * np.arange(2 * d)[:, None, None]
    # boundaries [i, j) of a column against its impulses [:j], about 2 (N + 1) / D pairs;
    # p[t] - p[k] is L + 1 for k < t, and <= 0 for k >= t, which slot sends to 0 or 1
    for col in columns:
        pc, xc, vc, i = p[col], x[:, col], v[:, :, col], 1
        while i < pc.size:
            j = min(pc.size, max(i + 1, int((i + math.sqrt(i * i + 8 * (n + 1) / d)) / 2)))
            at = slot[pc[i:j, None] - pc[:j]]  # both live on into the next chunk: freed
            pairs = xc[None, :, i:j, None] * vc[:, :, None, :j]  # first, its own take fresh pages
            np.add.at(flat, (rows + at).ravel(), pairs.ravel())
            i = j
    del slot, at, pairs
    # at each cell start s, over the pairs past it (K = L - s): sum ee q^(K + 1) by a scan down
    # the cells; as running sums, sum c, sum c (K + 1) and sum ee h(K) (sum ee q^K over lags >= s)
    f, z = np.exp(ell * lq), s.rate + 1j * s.phase
    co = np.empty((2, 2, d, m), complex)  # [ee, c] x [h(K) or K + 1, q^(K + 1) or 1]
    decay_scan(np.multiply(f, acc[0, :, 2:], out=co[0, 1]), f)
    np.cumsum(acc[1, :, :1:-1], axis=-1, out=co[1, 1, :, ::-1])
    np.multiply(co[:, 1], np.stack([np.expm1(-ell * lq) / -math.expm1(lq), ell])[:, None],
                out=co[:, 0])
    np.cumsum(co[:, 0, :, ::-1], axis=-1, out=co[:, 0, :, ::-1])
    co *= np.exp(np.multiply.outer(z, starts))
    # lag s + r of a cell: G1 from e^{rz} (sum ee h(K) - q^-r h(r - 1) sum ee q^(K + 1)),
    # G1 + G2 from e^{rz} (sum c (K + 1) - r sum c), one product per family
    r = np.arange(ell.max())
    tab = np.stack([np.ones(r.size), np.expm1(-r * lq) / math.expm1(lq), np.ones(r.size), -r])
    tab = tab[:, None] * (dt * weights[:, None] * np.exp(np.multiply.outer(z, r)))
    out = np.matmul(co.reshape(2, 2 * d, m).transpose(0, 2, 1), tab.reshape(2, 2 * d, r.size))
    g1, g2 = np.take(out.reshape(2, -1), np.flatnonzero(ell[:, None] > r), axis=1)
    g2 -= g1
    del co, out  # before the kernel copies g1 and g2
    # G(0): stretch sums of ee = E q^j and of ee + gg = E + G; rows 0 and n at half weight
    ee_sum = s.ee @ np.expm1((b - a) * lq) / math.expm1(lq)
    fall = s.ee[-1] * math.expm1((n - a[-1]) * lq)  # ee at row n less its head
    g1[0] = dt * (ee_sum - 0.5 * (s.ee[0] + s.ee[-1] + fall))
    g2[0] = dt * ((s.ee + s.gg) @ (b - a) - ee_sum - 0.5 * (s.gg[0] + s.gg[-1] - fall))
    return CorrelationKernel(g1=g1, g2=g2, params=params,
                             schedule_digest=schedule.digest())
