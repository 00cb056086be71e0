"""The paper's claims about its pulse protocols, checked as laws of the spectra.

Each bound here follows from the numerics, not from a fit to our own output.
"""

import numpy as np
import pytest

from pulsespec import (PulseAxis, SimParams, default_omega_grid, detuning_average,
                       periodic_schedule, uhrig_schedule)

from peaks import dominant_peaks, full_width_half_max

#: the paper's trains: 12 pulses spaced tau = 0.2 over T = 2.4, at gamma = 2
TAU, N_PULSES = 0.2, 12
PARAMS = SimParams(gamma=2.0, t_end=TAU * N_PULSES, dt=1e-3)


def spectrum(axis, delta, grid):
    return detuning_average(periodic_schedule([axis], TAU, N_PULSES), PARAMS,
                            [delta], [1.0], grid)


@pytest.mark.parametrize("delta", [1.5, 3.0, 6.0])
def test_z_train_spectra_shift_rigidly_with_the_detuning(delta):
    # Z pulses never move the coherence between ge and eg, so G(theta) at delta is
    # e^{i delta theta} G(theta) at 0 and P_delta(omega) = P_0(omega - delta), likewise
    # P'. The RK4 phase factor misses e^{w} by |w|^5/120, w = (i delta - gamma/2) dt,
    # at each of the N steps: that is the bound, relative to the peak
    grid = default_omega_grid(-60.0, 60.0, 0.025)
    shift = round(delta / 0.025)
    w = (1j * delta - PARAMS.gamma / 2) * PARAMS.dt
    bound = PARAMS.n_steps * abs(w) ** 5 / 120
    at_zero, shifted = spectrum(PulseAxis.Z, 0.0, grid), spectrum(PulseAxis.Z, delta, grid)
    for name in ("emission", "direct_absorption"):
        p0, p = getattr(at_zero, name), getattr(shifted, name)
        err = np.max(np.abs(p[shift:] - p0[:-shift])) / np.max(np.abs(p0))
        assert err <= bound


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_periodic_x_sidebands_sit_at_plus_and_minus_pi_over_tau(delta):
    # X pulses every tau swap the coherence between ge and eg, a modulation of
    # period 2 tau: its first harmonics are sidebands at +-pi/tau (the analogue of
    # the Mollow triplet), to within half the central line's width
    grid = default_omega_grid()
    p = spectrum(PulseAxis.X, delta, grid).emission
    half_width = full_width_half_max(grid, p) / 2
    peaks = [omega for omega, _ in dominant_peaks(grid, p, 0.05)]
    for line in (np.pi / TAU, -np.pi / TAU):
        assert min(abs(omega - line) for omega in peaks) <= half_width


#: n pulses over the paper's window T = 2.4, by protocol
TRAINS = {
    "px": lambda n: periodic_schedule([PulseAxis.X], PARAMS.t_end / n, n),
    "pxpy": lambda n: periodic_schedule([PulseAxis.X, PulseAxis.Y], PARAMS.t_end / n, n),
    "uhrig": lambda n: uhrig_schedule(n, PARAMS.t_end),
    "pz": lambda n: periodic_schedule([PulseAxis.Z], PARAMS.t_end / n, n),
}


@pytest.mark.parametrize("protocol", sorted(TRAINS))
def test_only_x_and_y_trains_suppress_the_detuning_dependence_as_one_over_n(protocol):
    # The paper's weak detuning dependence, as a law. To first order in the
    # toggling frame each X or Y pulse refocuses the phase delta*g gathered
    # over a pulse-free gap g, so s(n) = max|P_delta - P_0| / max P_0 goes as
    # delta times the longest gap, as 1/n: measured exponents -1.01 (px),
    # -1.03 to -1.04 (pxpy) and -1.24 (uhrig, whose longest gap shrinks a
    # little faster). Z pulses commute with the free precession, so a Z train
    # only shifts the line by delta, whatever n: exponent -0.01. The bounds
    # -0.9 and -0.1 sit between the two laws. The grid holds the +-pi/tau
    # sidebands at n = 48 (pi/tau = 62.8); on [-40, 40] their weight is lost
    grid = default_omega_grid(-200.0, 200.0, 0.025)
    ns = [6, 12, 24, 48]
    rows = []
    for n in ns:
        train = TRAINS[protocol](n)
        p0, p1, p2 = (detuning_average(train, PARAMS, [delta], [1.0], grid).emission
                      for delta in (0.0, 1.0, 2.0))
        rows.append([np.max(np.abs(p - p0)) / np.max(p0) for p in (p1, p2)])
    exponents = np.polyfit(np.log(ns), np.log(rows), 1)[0]
    if protocol == "pz":
        assert np.all(exponents >= -0.1)
    else:
        assert np.all(exponents <= -0.9)
