"""Free evolution between pulses and instantaneous pulse maps.

Between pulses the drive is off, so each matrix element obeys a decoupled
linear equation: populations exchange through spontaneous decay at rate
gamma, coherences rotate at the detuning and damp at gamma/2. One step of
length h is therefore an elementwise multiplication by a decay and a phase
factor, ``step_multipliers``. They come from one of two steppers: the
classical fixed-step RK4 (default), whose factors are degree-4 Taylor
polynomials, or the closed-form propagator of the same equations (exact
between pulses).

Pulses are instantaneous conjugations rho -> sigma_i rho sigma_i. They are
applied at their exact times by splitting the enclosing grid interval,
never by snapping the pulse to the grid.

Boundary convention used everywhere: evolving over [t_from, t_to] applies a
pulse sitting exactly at t_to but not one sitting exactly at t_from (that
one is assumed already applied). This makes chained evolution associative
and makes the post-pulse value the state at a grid time that carries a
pulse.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .core import PulseAxis, PulseSchedule, SimParams, TwoLevelOperator, window_tol

#: fraction of dt below which two times are treated as coincident
TIME_SNAP = 1e-9


def apply_pulse(op: TwoLevelOperator, axis: PulseAxis) -> TwoLevelOperator:
    """Instantaneous pi pulse about the given axis: op -> sigma_i op sigma_i.

    X swaps populations and swaps the coherences; Y swaps populations and
    exchanges the coherences with a sign flip; Z is a phase kick that only
    negates the coherences. Each map is its own inverse.
    """
    if axis is PulseAxis.X:
        return TwoLevelOperator(ee=op.gg, eg=op.ge, ge=op.eg, gg=op.ee)
    if axis is PulseAxis.Y:
        return TwoLevelOperator(ee=op.gg, eg=-op.ge, ge=-op.eg, gg=op.ee)
    if axis is PulseAxis.Z:
        return TwoLevelOperator(ee=op.ee, eg=-op.eg, ge=-op.ge, gg=op.gg)
    raise ValueError(f"unknown pulse axis {axis!r}")


def step_multipliers(h: float, delta: float, gamma: float,
                     stepper: str = "rk4") -> tuple[float, complex]:
    """Per-step update factors (decay, phase) of the linear free evolution.

    Because the free equations are linear with constant coefficients, one
    step of either integrator is elementwise multiplication:
    ee *= decay, gg += (1 - decay)*ee_old, ge *= phase, eg *= conj(phase).
    For "exact" the factors are the true exponentials; for "rk4" they are
    the degree-4 Taylor polynomial the classical RK4 update realizes on a
    linear system.
    """
    lam = 1j * delta - 0.5 * gamma
    if stepper == "exact":
        return math.exp(-gamma * h), cmath.exp(lam * h)
    if stepper == "rk4":
        z = -gamma * h
        decay = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        w = lam * h
        phase = 1.0 + w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
        return decay, phase
    raise ValueError(f"unknown stepper {stepper!r}; use 'rk4' or 'exact'")


def _free_step(op: TwoLevelOperator, h: float, params: SimParams,
               stepper: str) -> TwoLevelOperator:
    """One pulse-free step of length h: the ``step_multipliers`` update."""
    decay, phase = step_multipliers(h, params.delta, params.gamma, stepper)
    return TwoLevelOperator(ee=op.ee * decay, eg=op.eg * phase.conjugate(),
                            ge=op.ge * phase, gg=op.gg + (1.0 - decay) * op.ee)


def _advance(op: TwoLevelOperator, t0: float, t1: float, events,
             params: SimParams, stepper: str) -> TwoLevelOperator:
    """Evolve op over the lattice interval [t0, t1] and the pulses inside it.

    Each pulse in ``events`` that falls in the interval splits it, so the
    pulse acts at its exact time. Pulses at exactly t0 are excluded, pulses
    at exactly t1 included; times within TIME_SNAP*dt coincide.
    """
    snap = TIME_SNAP * params.dt
    cur = t0
    for ev in events:
        if ev.time <= t0 + snap or ev.time > t1 + snap:
            continue
        if ev.time - cur > snap:
            op = _free_step(op, ev.time - cur, params, stepper)
        op = apply_pulse(op, ev.axis)
        cur = ev.time
    if t1 - cur > snap:
        op = _free_step(op, t1 - cur, params, stepper)
    return op


def evolve_operator(op: TwoLevelOperator, t_from: float, t_to: float,
                    schedule: PulseSchedule, params: SimParams,
                    stepper: str = "rk4") -> TwoLevelOperator:
    """Evolve an operator from t_from to t_to under free decay plus pulses.

    Integration advances on the lattice t_from + k*dt; a pulse inside a
    lattice interval splits it into shortened substeps so the pulse acts at
    its exact time. A pulse exactly at t_from is not applied (assumed already
    applied), a pulse exactly at t_to is. t_to may pass the window end by
    the ``window_tol`` that ``SimParams`` allows between t_end and n*dt.
    """
    end = schedule.window_end
    if not 0.0 <= t_from <= t_to <= end + window_tol(end):
        raise ValueError(
            f"need 0 <= t_from <= t_to <= window_end, got "
            f"[{t_from}, {t_to}] in window {schedule.window_end}"
        )
    dt = params.dt
    n_full = int(math.floor((t_to - t_from) / dt + TIME_SNAP))
    lattice = [t_from + k * dt for k in range(n_full + 1)]
    if t_to - lattice[-1] > TIME_SNAP * dt:
        lattice.append(t_to)
    else:
        lattice[-1] = t_to
    for a, b in zip(lattice[:-1], lattice[1:]):
        op = _advance(op, a, b, schedule.events, params, stepper)
    return op


class GridState(NamedTuple):
    """Populations ``ee``, ``gg`` and coherence map M on the grid t_k = k*dt.

    From the excited start the coherences of rho stay zero. M(t) of [0, t]
    acts on (ge, eg) and is monomial: free steps multiply ge by the phase p
    and eg by conj(p), X and Y pulses swap the pair (Y with a sign), Z
    negates both. ``ge``, ``eg`` hold M(t_k) e_ge / |p(dt)|^k: one is zero,
    the other of modulus near one. With rate = log|p(dt)|, the ge row of
    M(t_k) is e^{k*rate} (ge, conj(eg)).
    """

    ee: np.ndarray
    gg: np.ndarray
    ge: np.ndarray
    eg: np.ndarray
    rate: float


def grid_state(schedule: PulseSchedule, params: SimParams,
               stepper: str = "rk4") -> GridState:
    """Closed-form GridState, one pulse-free stretch of whole steps at a time.

    Whole steps act as powers of the ``step_multipliers`` factors; a grid
    interval with pulses goes through ``_advance``, as in ``evolve_operator``.
    """
    n, dt = params.n_steps, params.dt
    grid = params.time_grid()
    # pulse i acts in the interval (t_{m-1}, t_m], m = where[i]; pulses with
    # m = 0 (within TIME_SNAP of t = 0) or m = n + 1 never act
    where = np.searchsorted(grid + TIME_SNAP * dt, schedule.times)
    decay, phase = step_multipliers(dt, params.delta, params.gamma, stepper)
    log_decay, scale = math.log(decay), abs(phase)
    turn = np.exp(1j * cmath.phase(phase) * np.arange(n + 1))
    ee, gg = np.empty(n + 1), np.empty(n + 1)
    ge, eg = np.empty(n + 1, complex), np.empty(n + 1, complex)
    op, k = TwoLevelOperator(ee=1.0, ge=1.0), 0  # populations, and the column
    for m in [*np.unique(where[(where > 0) & (where <= n)]), n + 1]:
        j = np.arange(m - k)
        ee[k:m] = op.ee.real * np.exp(j * log_decay)
        gg[k:m] = op.gg.real - op.ee.real * np.expm1(j * log_decay)
        ge[k:m] = op.ge * turn[:m - k]
        eg[k:m] = op.eg * turn[:m - k].conj()
        if m > n:
            break
        inside = schedule.events[np.searchsorted(where, m):
                                 np.searchsorted(where, m, side="right")]
        op = _advance(TwoLevelOperator(ee[m - 1], eg[m - 1], ge[m - 1], gg[m - 1]),
                      grid[m - 1], grid[m], inside, params, stepper)
        op = TwoLevelOperator(op.ee, op.eg / scale, op.ge / scale, op.gg)
        k = m
    return GridState(ee, gg, ge, eg, math.log(scale))


class Trajectory(NamedTuple):
    """Populations of the density matrix on the uniform grid over [0, T].

    At a grid time that carries a pulse the stored value is the post-pulse
    one (the 0+ side of the discontinuity). The coherences are not stored:
    from the excited start they stay exactly zero.
    """

    t_grid: np.ndarray
    ee: np.ndarray
    gg: np.ndarray


def density_trajectory(schedule: PulseSchedule, params: SimParams,
                       stepper: str = "rk4") -> Trajectory:
    """Evolve the emitter density matrix from the occupied excited state.

    Initial condition: ee = 1 and everything else zero at t = 0.
    """
    params.check_schedule(schedule)
    s = grid_state(schedule, params, stepper)
    return Trajectory(params.time_grid(), s.ee, s.gg)
