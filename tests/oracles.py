"""Reference implementations the tests compare the pipeline against.

Everything here works on plain 2x2 complex matrices in the (e, g) basis,
rows and columns ordered (e, g), so rho[1, 0] is the ge element. None of it
shares code with the pipeline's maps: a pulse is a Pauli conjugation, a
free step is one generic classical RK4 step of the Lindblad equation, and
each grid interval is split at its pulses here. Only two tolerances are
shared: TIME_SNAP, because a pulse that close to a grid point must coincide
with it in both, and window_tol, so both accept the same window end.

Four checks share the pipeline's maps on purpose. ``per_detuning_average``
checks only how a detuning average mixes, so it runs the single-detuning
pipeline once per detuning and averages the spectra.
``interval_loop_grid_state`` checks only the bookkeeping of
``dynamics.grid_state``: it is the per-interval loop grid_state replaced,
with ``step_multipliers`` and ``apply_pulse`` applied to the whole state
(ee, gg, ge, eg) one sub-step and one pulse at a time, on (D,) arrays.
``prefix_sum_kernel`` and ``direct_sum_kernel`` check only how
``accumulate_kernel`` sums the stretches of ``grid_state``: the first is
the prefix-sum kernel it replaced, the second the plain triangle sum in
long double, both on the grid populations of ``density_trajectory``.
"""

import math

import numpy as np

from pulsespec import PulseAxis, accumulate_kernel, density_trajectory, spectrum_from_kernel
from pulsespec.core import check_mixture, window_tol
from pulsespec.correlations import exp_powers
from pulsespec.dynamics import TIME_SNAP, GridState, apply_pulse, grid_state, step_multipliers

PAULI = {
    PulseAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PulseAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PulseAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.T.copy()

def op(ee=0j, eg=0j, ge=0j, gg=0j):
    """The 2x2 matrix with these elements, rows and columns (e, g)."""
    return np.array([[ee, eg], [ge, gg]], dtype=complex)


#: default tolerance of ``validate_density``
DENSITY_TOL = 1e-9


def validate_density(rho, tol: float = DENSITY_TOL) -> bool:
    """Whether the 2x2 matrix rho is a physical density matrix, within tol.

    Hermitian (real populations, ge = conj(eg)), unit trace, both
    populations in [0, 1].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    (ee, eg), (ge, gg) = np.asarray(rho, dtype=complex)
    if abs(ee.imag) > tol or abs(gg.imag) > tol:
        return False
    if abs(ge - eg.conjugate()) > tol:
        return False
    if abs(ee + gg - 1.0) > tol:
        return False
    return all(-tol <= p <= 1.0 + tol for p in (ee.real, gg.real))


def left_mul_sigma_minus(rho):
    """sigma_- rho, the regression seed of <sigma_+(t+theta) sigma_-(t)>."""
    return SIGMA_MINUS @ rho


def right_mul_sigma_minus(rho):
    """rho sigma_-, the regression seed of <sigma_-(t) sigma_+(t+theta)>."""
    return rho @ SIGMA_MINUS


def lindblad_rhs(rho, delta, gamma):
    """-i[H, rho] + gamma D[sigma_-] rho with H = diag(+delta/2, -delta/2).

    rho may be a stack of matrices, shape (..., 2, 2).
    """
    h = np.diag([0.5 * delta, -0.5 * delta])
    s, sd = SIGMA_MINUS, SIGMA_PLUS
    return (-1j * (h @ rho - rho @ h)
            + gamma * (s @ rho @ sd - 0.5 * (sd @ s @ rho + rho @ sd @ s)))


def rk4_oracle(rho, h, delta, gamma):
    """One generic classical Runge-Kutta step of ``lindblad_rhs``."""
    k1 = lindblad_rhs(rho, delta, gamma)
    k2 = lindblad_rhs(rho + 0.5 * h * k1, delta, gamma)
    k3 = lindblad_rhs(rho + 0.5 * h * k2, delta, gamma)
    k4 = lindblad_rhs(rho + h * k3, delta, gamma)
    return rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve_operator(rho, t_from, t_to, schedule, params, delta):
    """Evolve rho (or a stack of them) from t_from to t_to at detuning delta.

    RK4 steps run on the lattice t_from + k*dt, the last one shortened to
    end at t_to. A pulse cuts the lattice interval (a, b] it falls in: the
    step runs up to the pulse, the pulse acts, the step goes on to b. Times
    within TIME_SNAP*dt coincide, so a pulse that close to a is left out
    (it acted before), one that close to b acts at the end of the interval,
    and no step shorter than that is taken.
    """
    end = schedule.window_end
    if not 0.0 <= t_from <= t_to <= end + window_tol(end):
        raise ValueError(f"need 0 <= t_from <= t_to <= window_end, got "
                         f"[{t_from}, {t_to}] in window {end}")
    dt = params.dt
    snap = TIME_SNAP * dt
    n = int(math.floor((t_to - t_from) / dt + TIME_SNAP))
    marks = [t_from + k * dt for k in range(n + 1)]
    if t_to - marks[-1] > snap:
        marks.append(t_to)
    else:
        marks[-1] = t_to
    rho = np.array(rho, dtype=complex)
    for a, b in zip(marks[:-1], marks[1:]):
        cur = a
        for ev in schedule.events:
            if a + snap < ev.time <= b + snap:
                if ev.time - cur > snap:
                    rho = rk4_oracle(rho, ev.time - cur, delta, params.gamma)
                rho = PAULI[ev.axis] @ rho @ PAULI[ev.axis]
                cur = ev.time
        if b - cur > snap:
            rho = rk4_oracle(rho, b - cur, delta, params.gamma)
    return rho


def correlator_row(t_seed, rho_at_seed, schedule, params, delta):
    """C1(t_seed, theta) and C2(t_seed, theta) at detuning delta, theta = 0, dt, ..., T - t_seed.

    ``rho_at_seed`` is the density matrix at the grid time t_seed
    (post-pulse if a pulse sits there). Both seeds are evolved one grid
    interval at a time and their ge element read off.
    """
    dt = params.dt
    k = round(t_seed / dt)
    if k < 0 or k > params.n_steps or abs(k * dt - t_seed) > TIME_SNAP * dt:
        raise ValueError(
            f"t_seed={t_seed} is not on the [0, {params.t_end}] grid with step {dt}")
    grid = params.time_grid()[k:]
    seeds = np.stack([left_mul_sigma_minus(rho_at_seed),
                      right_mul_sigma_minus(rho_at_seed)])
    rows = [seeds[:, 1, 0]]
    for a, b in zip(grid[:-1], grid[1:]):
        seeds = evolve_operator(seeds, a, b, schedule, params, delta)
        rows.append(seeds[:, 1, 0])
    c1, c2 = np.array(rows).T
    return c1, c2


def row_loop_kernel(schedule, params, delta):
    """G1, G2 at detuning delta summed row by row from ``correlator_row``, trapezoidal in t.

    The density matrix at each seed time comes from ``evolve_operator``,
    one grid interval at a time from the excited state.
    """
    n, dt = params.n_steps, params.dt
    w = np.full(n + 1, dt)
    w[0] = w[-1] = dt / 2
    grid = params.time_grid()
    rho = op(ee=1.0)
    g1 = np.zeros(n + 1, dtype=complex)
    g2 = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        if k:
            rho = evolve_operator(rho, grid[k - 1], grid[k], schedule, params, delta)
        c1, c2 = correlator_row(grid[k], rho, schedule, params, delta)
        g1[:c1.size] += w[k] * c1
        g2[:c2.size] += w[k] * c2
    return g1, g2


def per_detuning_average(schedule, params, deltas, weights, omega_grid):
    """Emission and direct absorption of a detuning mixture, one run per detuning.

    Each detuning gets its own kernel and its own transform onto
    ``omega_grid``; the spectra are then averaged with the weights.
    """
    emission = np.zeros(len(omega_grid))
    direct = np.zeros(len(omega_grid))
    for delta, weight in zip(deltas, weights):
        kern = accumulate_kernel(schedule, params, [delta], [1.0])
        spec = spectrum_from_kernel(kern, omega_grid)
        emission += weight * spec.emission
        direct += weight * spec.direct_absorption
    return emission, direct


def _free_step(state, h, deltas, gamma):
    """One pulse-free step of the state (ee, gg, ge, eg), at one detuning or an array."""
    ee, gg, ge, eg = state
    decay, phase = step_multipliers(h, deltas, gamma)
    return ee * decay, gg + (1.0 - decay) * ee, ge * phase, eg * phase.conjugate()


def _advance(state, t0, t1, events, dt, deltas, gamma):
    """Evolve the state over the grid interval [t0, t1] and the pulses inside it.

    Each pulse in ``events`` that falls in the interval splits it, so the
    pulse acts at its exact time. Pulses at exactly t0 are excluded, pulses
    at exactly t1 included; times within TIME_SNAP*dt coincide.
    """
    snap = TIME_SNAP * dt
    cur = t0
    for ev in events:
        if ev.time <= t0 + snap or ev.time > t1 + snap:
            continue
        if ev.time - cur > snap:
            state = _free_step(state, ev.time - cur, deltas, gamma)
        state = apply_pulse(state, ev.axis)
        cur = ev.time
    if t1 - cur > snap:
        state = _free_step(state, t1 - cur, deltas, gamma)
    return state


def interval_loop_grid_state(schedule, params, deltas):
    """``dynamics.grid_state`` one stretch and one pulsed interval at a time.

    Whole steps act as powers of the one-step factors; each pulsed grid
    interval goes through one ``_advance`` call for all detunings. The
    state carried from one stretch to the next is (ee, gg, ge, eg) at its
    first grid point, with ge and eg the column e_ge of every M_d over
    |p_d(dt)|^k; its populations are the stretch heads.
    """
    n, dt, gamma = params.n_steps, params.dt, params.gamma
    deltas = np.array(deltas, dtype=float)
    grid = params.time_grid()
    where = np.searchsorted(grid + TIME_SNAP * dt, schedule.times)
    starts = np.array([0, *np.unique(where[(where > 0) & (where <= n)])])
    decay, phases = step_multipliers(dt, deltas, gamma)
    log_decay, scales, phase = math.log(decay), np.abs(phases), np.angle(phases)
    ee, gg = np.empty(starts.size), np.empty(starts.size)
    columns = np.empty(starts.size, int)
    coef = np.empty((starts.size, deltas.size), complex)
    state = (1.0, 0.0, np.ones(deltas.size, complex), np.zeros(deltas.size, complex))
    for s, (k, m) in enumerate(zip(starts, [*starts[1:], n + 1])):
        ee[s], gg[s], ge0, eg0 = state
        columns[s] = eg0[0] != 0
        coef[s] = (eg0.conj() if columns[s] else ge0) * np.exp(-1j * phase * k)
        if m > n:
            break
        x = (m - 1 - k) * log_decay
        turn = np.exp(1j * phase * (m - 1 - k))
        inside = schedule.events[np.searchsorted(where, m):
                                 np.searchsorted(where, m, side="right")]
        ee1, gg1, ge1, eg1 = _advance((ee[s] * np.exp(x), gg[s] - ee[s] * np.expm1(x),
                                       ge0 * turn, eg0 * turn.conj()),
                                      grid[m - 1], grid[m], inside, dt, deltas, gamma)
        state = (ee1, gg1, ge1 / scales, eg1 / scales)
    return GridState(ee, gg, decay, starts, columns, coef, np.log(scales), phase)


def prefix_sum_kernel(schedule, params, deltas, weights):
    """G1, G2 of ``accumulate_kernel`` from per-stretch prefix sums, O(D S N).

    The same stretches, coefficients and envelope, but the t-sum of each
    stretch s = [a, b) on column c is the difference of two reversed slices
    of Lambda_c, the prefix sum of seed / coef over the rows on column c:
    one slice per stretch boundary, one where the stretches on both sides
    share the column. Its rounding grows only as O(S T eps).
    """
    deltas, weights = check_mixture(deltas, weights)
    n, dt = params.n_steps, params.dt
    w = np.full(n + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    used = weights > 0
    s = grid_state(schedule, params, deltas[used])
    traj = density_trajectory(schedule, params)
    seeds = np.stack([w * traj.ee, w * traj.gg])
    # lam[c, d, f, k] = Lambda_c[k + 1] of family f at detuning d
    lam = np.zeros((2, s.coef.shape[1], 2, n + 1), complex)
    rows = seeds.astype(complex)
    terms = {}
    for a, b, c, coef in zip(s.starts, [*s.starts[1:], n + 1], s.columns, s.coef):
        np.multiply(rows[:, a:b], 1.0 / coef[:, None, None], out=lam[c, :, :, a:b])
        terms[b, c] = terms.get((b, c), 0.0) + coef
        terms[a, c] = terms.get((a, c), 0.0) - coef
    for c in set(s.columns):
        np.cumsum(lam[c], axis=-1, out=lam[c])
    # rev[..., n - j] = G[j]: the reversed slice Lambda_c[m - j], j < m, is
    # the forward slice lam[c, ..., :m] added to rev[..., n + 1 - m:]
    rev = np.zeros(lam.shape[1:], complex)
    for (m, c), x in terms.items():
        rev[:, :, n + 1 - m:] += lam[c, :, :, :m] * x[:, None, None]
    envelope = weights[used, None] * exp_powers(s.rate + 1j * s.phase, n)
    g = np.einsum("dj,dfj->fj", envelope, rev[:, :, ::-1])
    g[:, 0] = seeds.sum(axis=1)
    return g[0], g[1]


def direct_sum_kernel(schedule, params, delta):
    """G1, G2 at detuning delta as the O(N^2) triangle sum, every product and sum in long double.

    From the populations of ``density_trajectory`` and the maps of
    ``grid_state``: row k on column c(k) reaches lag j with K = e^{j z}
    coef_{s(k + j)} / coef_{s(k)} when c(k + j) = c(k), and zero
    otherwise, so G[j] = e^{j z} sum_c sum_k a_c[k] b_c[k + j] with
    a_c = w seed / coef and b_c = coef on the rows of column c. It checks only
    how the kernel sums, to about 1e-19 where doubles give 1e-16.
    """
    n, dt = params.n_steps, params.dt
    s = grid_state(schedule, params, [delta])
    at = np.repeat(np.arange(s.starts.size), np.diff(s.starts, append=n + 1))
    coef, col = s.coef[at, 0].astype(np.clongdouble), s.columns[at]
    w = np.full(n + 1, dt, dtype=np.longdouble)
    w[0] = w[-1] = w[0] / 2
    traj = density_trajectory(schedule, params)
    seeds = w * np.stack([traj.ee, traj.gg]).astype(np.longdouble) / coef
    g = np.zeros((2, n + 1), np.clongdouble)
    for c in (0, 1):
        a, b = np.where(col == c, seeds, 0), np.where(col == c, coef, 0)
        g += np.array([a[:, :n + 1 - j] @ b[j:] for j in range(n + 1)]).T
    z = np.longdouble(s.rate[0]) + 1j * np.longdouble(s.phase[0])
    return g * np.exp(np.arange(n + 1, dtype=np.longdouble) * z)
