"""Regression rows and the triangle reduction to theta kernels."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsespec
from pulsespec import correlations, dynamics
from pulsespec.dynamics import TIME_SNAP
from pulsespec import (
    CorrelationKernel,
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    accumulate_kernel,
    default_omega_grid,
    density_trajectory,
    detuning_average,
    no_drive_schedule,
    periodic_schedule,
    spectrum_from_kernel,
    uhrig_schedule,
)
from pulsespec.dynamics import stable_step, step_multipliers

from oracles import (correlator_row, direct_sum_kernel, evolve_operator,
                     interval_loop_grid_state, op, per_detuning_average,
                     prefix_sum_kernel, row_loop_kernel)


def rho_at(traj, k):
    """The density matrix at grid point k; its coherences are zero."""
    return op(ee=traj.ee[k], gg=traj.gg[k])


class TestCorrelatorRow:
    def test_theta_zero_equals_populations(self):
        sched = periodic_schedule([PulseAxis.X], 0.2, 4)
        params = SimParams(gamma=2.0, t_end=0.8, dt=1e-3)
        traj = density_trajectory(sched, params)
        for k in (0, 137, 400):
            c1, c2 = correlator_row(k * params.dt, rho_at(traj, k), sched, params, 2.0)
            assert c1[0] == pytest.approx(traj.ee[k])
            assert c2[0] == pytest.approx(traj.gg[k])

    def test_free_decay_row_is_exponential(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        sched = no_drive_schedule(1.0)
        traj = density_trajectory(sched, params)
        k = 250
        c1, _ = correlator_row(k * params.dt, rho_at(traj, k), sched, params, 0.0)
        theta = np.arange(c1.size) * params.dt
        expect = traj.ee[k] * np.exp(-theta)  # gamma/2 = 1
        assert np.max(np.abs(c1 - expect)) < 1e-9

    def test_phase_winds_at_detuning(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        sched = no_drive_schedule(1.0)
        traj = density_trajectory(sched, params)
        c1, _ = correlator_row(0.0, rho_at(traj, 0), sched, params, 3.0)
        theta = np.arange(c1.size) * params.dt
        phase = np.unwrap(np.angle(c1))
        assert np.max(np.abs(phase - 3.0 * theta)) < 1e-6

    def test_row_lengths_shrink_with_seed(self):
        params = SimParams(gamma=2.0, t_end=0.4, dt=0.1)
        sched = no_drive_schedule(0.4)
        traj = density_trajectory(sched, params)
        for k in range(5):
            c1, c2 = correlator_row(k * 0.1, rho_at(traj, k), sched, params, 0.0)
            assert c1.size == c2.size == 5 - k

    def test_rejects_off_grid_seed(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        sched = no_drive_schedule(1.0)
        with pytest.raises(ValueError, match="grid"):
            correlator_row(0.00042, rho_at(density_trajectory(sched, params), 0),
                           sched, params, 0.0)


class TestAccumulateKernel:
    def test_g1_zero_is_integrated_excited_population(self):
        params = SimParams(gamma=2.0, t_end=4.0, dt=1e-3)
        kern = accumulate_kernel(no_drive_schedule(4.0), params, [0.0], [1.0])
        assert kern.g1[0].imag == 0.0
        assert kern.g1[0].real == pytest.approx((1 - math.exp(-8.0)) / 2, abs=1e-5)

    def test_apex_is_single_sample(self):
        params = SimParams(gamma=2.0, t_end=4.0, dt=1e-3)
        kern = accumulate_kernel(no_drive_schedule(4.0), params, [0.0], [1.0])
        # only the t=0 row reaches theta=T, carrying its half weight
        assert abs(kern.g1[-1]) <= 0.5 * params.dt * math.exp(-4.0) * 1.01

    def test_free_kernel_matches_analytic_form(self):
        delta, gamma, t_end = 2.5, 2.0, 2.0
        params = SimParams(gamma=gamma, t_end=t_end, dt=1e-3)
        kern = accumulate_kernel(no_drive_schedule(t_end), params, [delta], [1.0])
        theta = kern.theta_grid
        # G1(theta) = e^{(i d - g/2) th} * int_0^{T-th} e^{-g t} dt
        weight = (1 - np.exp(-gamma * (t_end - theta))) / gamma
        expect = np.exp((1j * delta - gamma / 2) * theta) * weight
        diff = np.abs(kern.g1 - expect)
        assert np.max(diff) < 1e-4
        # the dominant deviation is the full-weight row at t = T - theta;
        # subtracting that half-row term must leave only O(dt^2) quadrature
        edge = 0.5 * params.dt * np.exp(-gamma * (t_end - theta)) \
            * np.exp(-0.5 * gamma * theta)
        assert np.max(np.abs(diff - edge)) < 1e-5

    def test_hermiticity_sum_at_theta_zero(self):
        sched = uhrig_schedule(6, 2.0)
        params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)
        kern = accumulate_kernel(sched, params, [3.0], [1.0])
        assert kern.g1[0].real >= 0 and kern.g2[0].real >= 0
        assert kern.g1[0].imag == pytest.approx(0.0, abs=1e-12)
        assert (kern.g1[0] + kern.g2[0]).real == pytest.approx(2.0, abs=1e-9)

    def test_matches_per_row_double_loop(self):
        # the vectorized antidiagonal reduction against the reference path
        sched = uhrig_schedule(3, 0.5)  # pulse times off the step lattice
        params = SimParams(gamma=2.0, t_end=0.5, dt=1e-2)
        kern = accumulate_kernel(sched, params, [1.7], [1.0])
        n, dt = params.n_steps, params.dt
        w = np.full(n + 1, dt)
        w[0] = w[-1] = dt / 2
        traj = density_trajectory(sched, params)
        g1 = np.zeros(n + 1, dtype=complex)
        g2 = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            c1, c2 = correlator_row(k * dt, rho_at(traj, k), sched, params, 1.7)
            g1[:c1.size] += w[k] * c1
            g2[:c2.size] += w[k] * c2
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    def test_triangle_sample_count(self):
        # kernel value at theta_j collects exactly n+1-j rows; with a flat
        # integrand (gamma tiny would be needed) we instead check weights:
        # G2(theta) for free decay approaches sum of w_k over the triangle as
        # rho_gg -> 1, up to the decay transient
        params = SimParams(gamma=2.0, t_end=1.0, dt=0.25)
        kern = accumulate_kernel(no_drive_schedule(1.0), params, [0.0], [1.0])
        assert kern.g1.shape == kern.g2.shape == kern.theta_grid.shape
        assert kern.theta_grid[-1] == pytest.approx(1.0)

    def test_deterministic(self):
        sched = periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.2, 4)
        params = SimParams(gamma=2.0, t_end=0.8, dt=1e-3)
        a = accumulate_kernel(sched, params, [3.0], [1.0])
        b = accumulate_kernel(sched, params, [3.0], [1.0])
        assert np.array_equal(a.g1, b.g1) and np.array_equal(a.g2, b.g2)

    def test_carries_run_metadata(self):
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        params = SimParams(gamma=2.0, t_end=0.6, dt=1e-3)
        kern = accumulate_kernel(sched, params, [1.0], [1.0])
        assert kern.params is params
        assert kern.schedule_digest == sched.digest()


class TestCoarseBruteForce:
    """Bookkeeping oracle on a hand-checkable instance: one X pulse mid-window."""

    def setup_method(self):
        self.sched = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),),
                                   window_end=0.4)
        self.params = SimParams(gamma=2.0, t_end=0.4, dt=0.1)

    def _segments(self, vec, t0, t1):
        # independent evolution: RK4 propagator + explicit pulse map; on
        # this linear system an RK4 step multiplies by the degree-4 Taylor
        # polynomial of each exponential
        def taylor4(z):
            return 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24

        def prop(v, h):
            a = taylor4(-2.0 * h)
            b = taylor4((1j * 1.3 - 1.0) * h)
            return [v[0] * a, v[1] * np.conj(b), v[2] * b, v[3] + v[0] * (1 - a)]

        def xp(v):
            return [v[3], v[2], v[1], v[0]]

        if t0 < 0.2 - 1e-12 and t1 > 0.2 + 1e-12:
            return prop(xp(prop(vec, 0.2 - t0)), t1 - 0.2)
        v = prop(vec, t1 - t0)
        return xp(v) if abs(t1 - 0.2) < 1e-12 else v

    def test_exact_kernel_vs_brute_force(self):
        kern = accumulate_kernel(self.sched, self.params, [1.3], [1.0])
        n, dt = 4, 0.1
        w = np.full(n + 1, dt)
        w[0] = w[-1] = dt / 2
        states = [[1.0, 0j, 0j, 0.0]]
        for k in range(n):
            states.append(self._segments(states[-1], k * dt, (k + 1) * dt))
        g1 = np.zeros(n + 1, dtype=complex)
        g2 = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            ee, eg, ge, gg = states[k]
            r1 = [0j, 0j, ee, eg]
            r2 = [eg, 0j, gg, 0j]
            for j in range(n - k + 1):
                g1[j] += w[k] * r1[2]
                g2[j] += w[k] * r2[2]
                if j < n - k:
                    r1 = self._segments(r1, (k + j) * dt, (k + j + 1) * dt)
                    r2 = self._segments(r2, (k + j) * dt, (k + j + 1) * dt)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    def test_default_kernel_vs_row_loop(self):
        kern = accumulate_kernel(self.sched, self.params, [1.3], [1.0])
        traj = density_trajectory(self.sched, self.params)
        n, dt = 4, 0.1
        w = np.full(n + 1, dt)
        w[0] = w[-1] = dt / 2
        g1 = np.zeros(n + 1, dtype=complex)
        g2 = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            c1, c2 = correlator_row(k * dt, rho_at(traj, k), self.sched, self.params, 1.3)
            g1[:c1.size] += w[k] * c1
            g2[:c2.size] += w[k] * c2
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12


AXES = st.sampled_from([PulseAxis.X, PulseAxis.Y, PulseAxis.Z])


@st.composite
def coarse_runs(draw):
    """A schedule on a coarse grid with the awkward pulse placements, and a detuning.

    Every draw holds a pulse within TIME_SNAP of a grid point, two pulses in
    one dt interval and random off-grid pulses; some end with a pulse at T.
    """
    n = draw(st.integers(4, 40))
    dt = draw(st.sampled_from([0.05, 0.1, 0.25]))
    t_end = n * dt
    snap = TIME_SNAP * dt
    times = {k * dt + off for k, off in draw(st.lists(
        st.tuples(st.integers(1, n - 1), st.floats(-0.5 * snap, 0.5 * snap)),
        min_size=1, max_size=3))}
    k = draw(st.integers(0, n - 1))
    a, b = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2,
                                unique=True)))
    times |= {(k + a) * dt, (k + b) * dt}
    times |= {x * t_end for x in draw(st.lists(st.floats(0.01, 0.99), max_size=4))}
    if draw(st.booleans()):
        times.add(t_end)
    events = tuple(PulseEvent(t, draw(AXES)) for t in sorted(times))
    delta = draw(st.floats(-8.0, 8.0))
    return (PulseSchedule(events=events, window_end=t_end),
            SimParams(gamma=2.0, t_end=t_end, dt=dt), delta)


class TestKernelAgainstOracles:
    @settings(max_examples=40, deadline=None)
    @given(run=coarse_runs())
    def test_matches_row_loop_on_random_schedules(self, run):
        sched, params, delta = run
        kern = accumulate_kernel(sched, params, [delta], [1.0])
        g1, g2 = row_loop_kernel(sched, params, delta)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    def test_long_window_z_train_against_direct_sum(self):
        # gamma*T = 200: without the decay envelope taken out, the
        # stretch sums would span e^{+-100} and lose every digit
        delta, gamma, t_end, dt = 3.0, 2.0, 100.0, 0.05
        times = 0.013 + 0.9973 * np.arange(1, 100)  # Z pulses off the grid
        sched = PulseSchedule(
            events=tuple(PulseEvent(float(t), PulseAxis.Z) for t in times),
            window_end=t_end)
        params = SimParams(gamma=gamma, t_end=t_end, dt=dt)
        kern = accumulate_kernel(sched, params, [delta], [1.0])

        # independent O(N^2) sum. Z pulses leave the populations alone and
        # negate the coherence; a step cut at a pulse is two RK4 steps. So
        # step i multiplies rho_ee by d_i and the coherence by p * s_i, with
        # s_i = 1 on whole steps, and K(t_k, theta_j) = p^j S_{k+j} / S_k
        # for the running product S of the s_i, which stays near modulus one
        n = params.n_steps
        t = np.arange(n + 1) * dt
        w = np.full(n + 1, dt)
        w[0] = w[-1] = dt / 2
        decay, p = step_multipliers(dt, delta, gamma)
        d, s = np.full(n, decay), np.ones(n, complex)
        for tp in times:
            i = int(tp // dt)
            d_before, p_before = step_multipliers(tp - t[i], delta, gamma)
            d_after, p_after = step_multipliers(t[i + 1] - tp, delta, gamma)
            d[i] = d_before * d_after
            s[i] = -p_before * p_after / p
        ee = np.concatenate(([1.0], np.cumprod(d)))
        big_s = np.concatenate(([1.0], np.cumprod(s)))
        p_j = np.exp(np.log(p) * np.arange(n + 1))
        for pop, g in ((ee, kern.g1), (1.0 - ee, kern.g2)):
            a = w * pop / big_s
            direct = p_j * np.array([a[:n + 1 - j] @ big_s[j:] for j in range(n + 1)])
            assert np.max(np.abs(g - direct)) < 1e-12 * abs(g[0])

    @pytest.mark.parametrize("last_axis", [None, PulseAxis.Y])
    def test_window_just_below_the_step_lattice(self, last_axis):
        # SimParams accepts t_end within window_tol of n*dt, so the last grid
        # point n*dt = 1 lies just past the window end; rows still reach it
        t_end = 0.9999999995
        events = () if last_axis is None else (
            PulseEvent(0.5, PulseAxis.X), PulseEvent(t_end, last_axis))
        sched = PulseSchedule(events=events, window_end=t_end)
        fine = SimParams(t_end=t_end, dt=1e-3)
        c1, c2 = correlator_row(0.0, op(ee=1.0), sched, fine, 0.0)
        assert c1.size == c2.size == fine.n_steps + 1
        params = SimParams(t_end=t_end, dt=1e-2)
        kern = accumulate_kernel(sched, params, [2.0], [1.0])
        g1, g2 = row_loop_kernel(sched, params, 2.0)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    @staticmethod
    def pulse_past_the_last_grid_point(dt):
        """px-10 at tau = 0.1 + 3e-11: the window end and last pulse lie 3e-10 past 1 = t_N.

        SimParams accepts that T, within window_tol of t_N, and the pulse is
        further past t_N than TIME_SNAP*dt. Returns the schedule, the same with
        its last pulse moved onto t_N, and the SimParams.
        """
        sched = periodic_schedule([PulseAxis.X], 0.10000000003, 10)
        params = SimParams(gamma=2.0, t_end=sched.window_end, dt=dt)
        last = params.n_steps * dt
        assert sched.events[-1].time - last > TIME_SNAP * dt
        moved = PulseSchedule((*sched.events[:-1], PulseEvent(last, PulseAxis.X)),
                              window_end=sched.window_end)
        return sched, moved, params

    def test_a_pulse_past_the_last_grid_point_acts_in_the_last_interval(self):
        # it acts as the same pulse at t_N does, where dropping it moves P and
        # P' by 1.5e-3 and 1.7e-3 of their peaks; the extra 3e-10 of free
        # evolution moves them by 6e-13
        sched, moved, params = self.pulse_past_the_last_grid_point(1e-3)
        assert dynamics.grid_state(sched, params, [0.0]).starts.size == 11
        got, want = (spectrum_from_kernel(accumulate_kernel(s, params, [0.0], [1.0]),
                                          default_omega_grid()) for s in (sched, moved))
        for name in ("emission", "direct_absorption"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(g - w)) <= 1e-11 * np.max(w)

    def test_window_just_above_the_step_lattice(self):
        # the Lindblad oracle places the pulse past t_N in the last interval too
        sched, _, params = self.pulse_past_the_last_grid_point(1e-2)
        kern = accumulate_kernel(sched, params, [2.0], [1.0])
        g1, g2 = row_loop_kernel(sched, params, 2.0)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    @staticmethod
    def dense_run():
        """61 pulses and 61 stretches on a 90-step grid, at detuning 2.5.

        Alternating X/Y pulses switch the column at every boundary; a run of Z
        pulses keeps it, so both sides of those boundaries share one slice.
        Two pulses share one grid interval, eight sit within TIME_SNAP of a
        grid point, and the last one at T.
        """
        dt, n = 0.1, 90
        snap = TIME_SNAP * dt
        pulses = [((k + 0.37) * dt, (PulseAxis.X, PulseAxis.Y)[k % 2])
                  for k in range(1, 31)]
        pulses += [((k + 0.5) * dt, PulseAxis.Z) for k in range(32, 52)]
        pulses += [(55.2 * dt, PulseAxis.X), (55.7 * dt, PulseAxis.Z)]
        pulses += [(60 * dt + 0.3 * snap, PulseAxis.X), (70 * dt - 0.3 * snap, PulseAxis.Y)]
        pulses += [(k * dt + 0.4 * snap, PulseAxis.Z) for k in range(75, 81)]
        pulses += [(n * dt, PulseAxis.Y)]
        sched = PulseSchedule(tuple(PulseEvent(t, axis) for t, axis in pulses),
                              window_end=n * dt)
        return sched, SimParams(gamma=2.0, t_end=n * dt, dt=dt), 2.5

    def test_dense_train_matches_row_loop(self):
        sched, params, delta = self.dense_run()
        s = dynamics.grid_state(sched, params, [delta])
        assert len(sched.events) == 61 and s.starts.size == 61
        same = s.columns[1:] == s.columns[:-1]
        assert same.sum() >= 20 and (~same).sum() >= 30
        kern = accumulate_kernel(sched, params, [delta], [1.0])
        g1, g2 = row_loop_kernel(sched, params, delta)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12

    def test_dense_train_mixture_matches_per_detuning_runs(self):
        sched, params, _ = self.dense_run()
        deltas, weights = [-1.5, 0.5, 4.0], [0.3, 0.0, 0.7]
        grid = default_omega_grid()
        # dt = 0.1: the grid reaches past pi/dt = 31.4
        with pytest.warns(UserWarning, match="past the Nyquist frequency"):
            avg = detuning_average(sched, params, deltas, weights, grid)
            wants = per_detuning_average(sched, params, deltas, weights, grid)
        for got, want in zip((avg.emission, avg.direct_absorption), wants):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_never_builds_the_trajectory(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("accumulate_kernel called density_trajectory")

        for module in (pulsespec, correlations, dynamics):
            monkeypatch.setattr(module, "density_trajectory", forbidden,
                                raising=False)
        kern = accumulate_kernel(uhrig_schedule(6, 2.0), SimParams(t_end=2.0, dt=1e-2),
                                 [3.0], [1.0])
        assert kern.g1[0].real > 0


PAPER_SCHEDULES = {
    "none": no_drive_schedule(2.4),
    "px": periodic_schedule([PulseAxis.X], 0.2, 12),
    "pxpy": periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.2, 12),
    "pz": periodic_schedule([PulseAxis.Z], 0.2, 12),
    "uhrig": uhrig_schedule(12, 2.4),
}
#: the nine-detuning mixture of the benchmark's detuning averages, about 0
NINE_OFFSETS = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
NINE_WEIGHTS = np.array([0.04, 0.08, 0.12, 0.16, 0.2, 0.16, 0.12, 0.08, 0.04])
#: a Gaussian of width 1 about detuning 3, by 33-node Gauss-Hermite quadrature
_GH = np.polynomial.hermite.hermgauss(33)
WIDE_MIXTURE = 3.0 + np.sqrt(2.0) * _GH[0], _GH[1] / np.sqrt(np.pi)


class TestAgainstPrefixSums:
    """The impulse kernel against the per-stretch prefix sums it replaced."""

    @staticmethod
    def check(sched, params, deltas, weights):
        kern = accumulate_kernel(sched, params, deltas, weights)
        for got, want in zip((kern.g1, kern.g2),
                             prefix_sum_kernel(sched, params, deltas, weights)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("delta", [0.0, 3.0])
    @pytest.mark.parametrize("protocol", sorted(PAPER_SCHEDULES))
    def test_paper_protocols(self, protocol, delta):
        self.check(PAPER_SCHEDULES[protocol], SimParams(gamma=2.0, t_end=2.4, dt=1e-3),
                   [delta], [1.0])

    def test_uhrig_24_over_a_long_window(self):
        self.check(uhrig_schedule(24, 16.0), SimParams(gamma=2.0, t_end=16.0, dt=1e-3),
                   [2.0], [1.0])

    def test_decay_time_far_beyond_the_window(self):
        self.check(uhrig_schedule(4, 1.0), SimParams(gamma=1e-9, t_end=1.0, dt=1e-3),
                   [3.0], [1.0])

    def test_steps_longer_than_the_decay_time(self):
        # gamma dt = 1.5: q = 0.27 < 1/e, so every lag is a cell, 2401 of them
        self.check(uhrig_schedule(12, 2.4), SimParams(gamma=1500.0, t_end=2.4, dt=1e-3),
                   [3.0], [1.0])

    @pytest.mark.parametrize("protocol, mixture", [
        *((p, (c + NINE_OFFSETS, NINE_WEIGHTS)) for p in ("pz", "uhrig") for c in (0.0, 3.0, 6.0)),
        ("uhrig", WIDE_MIXTURE), ("pxpy", WIDE_MIXTURE),
    ], ids=[*(f"{p}-{c}" for p in ("pz", "uhrig") for c in (0.0, 3.0, 6.0)),
            "uhrig-wide", "pxpy-wide"])
    def test_nine_detuning_mixtures(self, protocol, mixture):
        self.check(PAPER_SCHEDULES[protocol], SimParams(gamma=2.0, t_end=2.4, dt=1e-3), *mixture)

    def test_dense_run(self):
        sched, params, delta = TestKernelAgainstOracles.dense_run()
        self.check(sched, params, [delta], [1.0])

    @pytest.mark.parametrize("delta", [0.0, 3.0])
    def test_dense_xy_train_against_long_double(self, delta):
        # pxpy-240 with tau = 10 dt: 241 stretches, a column switch at each.
        # Every pair (boundary term, impulse) is rounded once, to eps of
        # its O(1) size, and the constant part then summed twice, weighting
        # that error by up to T. With O(S^2) pairs the kernel's error grows
        # as S^2 T eps (about 3e-11 here), where the prefix sums round each
        # of their O(S) slices once and stay at S T eps.
        sched = periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.01, 240)
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-3)
        n_stretches = dynamics.grid_state(sched, params, [delta]).starts.size
        assert n_stretches == 241
        eps, t_end = np.finfo(float).eps, params.t_end
        exact = direct_sum_kernel(sched, params, delta)
        kern = accumulate_kernel(sched, params, [delta], [1.0])
        for got, want in zip((kern.g1, kern.g2), exact):
            assert np.max(np.abs(got - want)) <= n_stretches ** 2 * t_end * eps
        for got, want in zip(prefix_sum_kernel(sched, params, [delta], [1.0]), exact):
            assert np.max(np.abs(got - want)) <= n_stretches * t_end * eps


def x_train(times):
    """X pulses at ``times`` over [0, 1], on 100 steps of 0.01."""
    return (PulseSchedule(tuple(PulseEvent(t, PulseAxis.X) for t in times), window_end=1.0),
            SimParams(gamma=2.0, t_end=1.0, dt=0.01))


class TestStretchTable:
    """``grid_state`` keeps one population head per stretch; G(0) sums them in closed form."""

    def test_no_field_grows_with_the_step_count(self):
        sched = uhrig_schedule(12, 2.4)
        coarse, fine = (dynamics.grid_state(sched, SimParams(t_end=2.4, dt=dt), [3.0])
                        for dt in (2e-3, 1e-3))
        for name, value in fine._asdict().items():
            if isinstance(value, np.ndarray):
                assert value.shape == getattr(coarse, name).shape, name
        assert fine.decay == stable_step(1e-3, [3.0], 2.0)[0]
        assert coarse.decay == stable_step(2e-3, [3.0], 2.0)[0]

    @staticmethod
    def trapezoid(sched, params):
        """int_0^T rho_ee dt and int_0^T rho_gg dt over ``density_trajectory``."""
        traj = density_trajectory(sched, params)
        w = np.full(params.n_steps + 1, params.dt)
        w[0] = w[-1] = 0.5 * params.dt
        return (w * traj.ee).sum(), (w * traj.gg).sum()

    @pytest.mark.parametrize("run", [
        *((PAPER_SCHEDULES[p], SimParams(gamma=2.0, t_end=2.4, dt=1e-3))
          for p in sorted(PAPER_SCHEDULES)),
        # gamma dt = 1e-12, where 1 - q^L would cancel and expm1 does not
        (uhrig_schedule(4, 1.0), SimParams(gamma=1e-9, t_end=1.0, dt=1e-3)),
        (uhrig_schedule(12, 2.4), SimParams(gamma=1500.0, t_end=2.4, dt=1e-3)),
        x_train([0.035, 0.045]),  # the stretch [4, 5) has one row
        x_train([0.005, 0.995]),  # pulses in the first and last grid intervals
        x_train([0.5, 1.0]),  # a pulse exactly at T
    ], ids=[*sorted(PAPER_SCHEDULES), "gamma-dt-1e-12", "gamma-dt-1.5", "one-row",
            "first-and-last-interval", "pulse-at-T"])
    def test_g_zero_is_the_trapezoid_over_the_trajectory(self, run):
        kern = accumulate_kernel(*run, [3.0], [1.0])
        for got, want in zip((kern.g1[0], kern.g2[0]), self.trapezoid(*run)):
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-14 * want

    def test_g2_zero_of_a_slow_free_decay(self):
        # gamma dt = 1e-12 without pulses: G2(0) is about gamma T^2 / 2, 5e-10.
        # As at every lag, G2 is the constant part less G1, so it is exact to
        # eps of G1 + G2 = T, not of itself
        run = no_drive_schedule(1.0), SimParams(gamma=1e-9, t_end=1.0, dt=1e-3)
        kern = accumulate_kernel(*run, [3.0], [1.0])
        ee, gg = self.trapezoid(*run)
        assert abs(kern.g1[0] - ee) <= 1e-14 * ee
        assert abs(kern.g2[0] - gg) <= 1e-14 * (ee + gg)

    def test_never_builds_a_time_grid(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the kernel or transform built a time grid")

        monkeypatch.setattr(CorrelationKernel, "theta_grid", property(forbidden))
        kern = accumulate_kernel(uhrig_schedule(6, 2.0), SimParams(t_end=2.0, dt=1e-2),
                                 [3.0], [1.0])
        assert spectrum_from_kernel(kern, default_omega_grid()).emission.max() > 0


class TestDecayRecurrence:
    """``decay_scan``, the kernel's scan down its cells, against a loop."""

    @staticmethod
    def loop(u, q):
        y = np.zeros_like(u)
        prev = np.zeros(u.shape[:-1], u.dtype)
        for i in range(u.shape[-1]):
            y[..., i] = prev = q * prev + u[..., i]
        return y

    @pytest.mark.parametrize("gamma_dt, size, rows", [
        (1e-3, 700, ()),      # factors near one: the sum runs over the whole array
        (1e-12, 50, ()),      # factors one to 1e-12
        (0.1, 2001, ()),      # gamma T = 200: the products fall to e^-200
        (1.5, 300, ()),       # q = 0.27 < 1/e
        (2.78, 500, ()),      # at the edge of the RK4 region q nears 1 again
        (0.01, 1234, (3,)),   # complex rows
    ])
    def test_matches_the_loop(self, gamma_dt, size, rows):
        # with a constant factor the scan, run backwards, is y[i] = q y[i - 1] + u[i]
        q = step_multipliers(gamma_dt, 0.0, 1.0)[0]
        assert 0.0 < q < 1.0
        rng = np.random.default_rng(7)
        u = rng.normal(size=(*rows, size))
        u[..., rng.integers(0, size, 5)] += 50.0  # impulses, as the kernel drives it
        if rows:
            u = u + 1j * rng.normal(size=u.shape)
        got = correlations.decay_scan(u[..., ::-1].copy(), np.full(size, q))[..., ::-1]
        want = self.loop(u, q)
        assert got.shape == u.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 1000])
    def test_factors_that_vary_per_step(self, size):
        # as over the kernel's cells: factors q^len, lengths 1 to 40 at gamma dt = 0.025
        rng = np.random.default_rng(size)
        f = step_multipliers(0.025, 0.0, 1.0)[0] ** rng.integers(1, 41, size)
        u = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
        want, prev = np.zeros_like(u), np.zeros(2, complex)
        for i in range(size - 1, -1, -1):
            want[:, i] = prev = f[i] * prev + u[:, i]
        factors = f.copy()
        got = correlations.decay_scan(u, f)
        assert got is u and np.array_equal(f, factors)  # in place on y, f untouched
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@st.composite
def mixtures(draw):
    """A ``coarse_runs`` schedule and a detuning mixture for it.

    Every mixture holds a repeated detuning and a detuning of weight zero,
    in random places.
    """
    sched, params, _ = draw(coarse_runs())
    deltas = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4))
    deltas += [deltas[0], draw(st.floats(-8.0, 8.0))]
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(deltas) - 1,
                        max_size=len(deltas) - 1))
    weights = np.array(raw + [0.0]) / sum(raw)
    order = list(draw(st.permutations(range(len(deltas)))))
    return sched, params, np.array(deltas)[order], weights[order]


class TestDetuningMixture:
    @settings(max_examples=40, deadline=None)
    @given(run=mixtures())
    def test_average_matches_per_detuning_runs(self, run):
        sched, params, deltas, weights = run
        grid = default_omega_grid()
        aliased = grid[-1] > np.pi / params.dt  # dt = 0.1 or 0.25: pi/dt < 40
        with (pytest.warns(UserWarning, match="past the Nyquist frequency") if aliased
              else contextlib.nullcontext()):
            avg = detuning_average(sched, params, deltas, weights, grid)
            wants = per_detuning_average(sched, params, deltas, weights, grid)
        for got, want in zip((avg.emission, avg.direct_absorption), wants):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_weights_are_not_computed(self, monkeypatch):
        seen = []

        def counting(schedule, params, deltas):
            seen.append(list(deltas))
            return dynamics.grid_state(schedule, params, deltas)

        monkeypatch.setattr(correlations, "grid_state", counting)
        sched = uhrig_schedule(4, 1.0)
        params = SimParams(t_end=1.0, dt=1e-2)
        kern = accumulate_kernel(sched, params, [1.0, 2.0, 3.0, 2.0], [0.5, 0.0, 0.5, 0.0])
        assert seen == [[1.0, 3.0]]
        assert kern.params is params

    @pytest.mark.parametrize("n_deltas", [1, 2, 9])
    def test_grid_state_runs_once_per_kernel(self, monkeypatch, n_deltas):
        calls = []

        def counting(*args):
            calls.append(args)
            return dynamics.grid_state(*args)

        monkeypatch.setattr(correlations, "grid_state", counting)
        sched = uhrig_schedule(4, 1.0)
        params = SimParams(t_end=1.0, dt=1e-2)
        deltas = np.linspace(-2.0, 2.0, n_deltas)
        accumulate_kernel(sched, params, deltas, np.full(n_deltas, 1.0 / n_deltas))
        assert len(calls) == 1

    @pytest.mark.parametrize("n_deltas", [1, 2, 9])
    def test_grid_state_matches_the_interval_loop(self, n_deltas):
        # pxpy-240 at paper resolution; Y and off-grid Z trains; and the
        # dense run: a Z run on one column, two pulses in one grid interval,
        # pulses within TIME_SNAP of a grid point and one at T; and a pulse past t_N
        runs = [(periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.01, 240),
                 SimParams(t_end=2.4, dt=1e-3)),
                (periodic_schedule([PulseAxis.Y], 0.0537, 20),
                 SimParams(t_end=1.074, dt=1e-3)),
                (PulseSchedule(tuple(PulseEvent(0.013 + 0.0973 * k, PulseAxis.Z)
                                     for k in range(1, 11)), window_end=1.0),
                 SimParams(t_end=1.0, dt=1e-2)),
                TestKernelAgainstOracles.dense_run()[:2],
                TestKernelAgainstOracles.pulse_past_the_last_grid_point(1e-3)[::2]]
        deltas = np.linspace(-3.0, 6.0, n_deltas)
        for sched, params in runs:
            got = dynamics.grid_state(sched, params, deltas)
            want = interval_loop_grid_state(sched, params, deltas)
            assert np.array_equal(got.starts, want.starts)
            assert np.array_equal(got.columns, want.columns)
            assert got.decay == want.decay
            for name in ("ee", "gg", "coef", "rate", "phase"):
                assert np.max(np.abs(getattr(got, name) - getattr(want, name))) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(run=mixtures())
    def test_grid_state_rows_are_the_single_detuning_states(self, run):
        sched, params, deltas, _ = run
        many = dynamics.grid_state(sched, params, deltas)
        for d, delta in enumerate(deltas):
            one = dynamics.grid_state(sched, params, [delta])
            assert np.array_equal(many.ee, one.ee) and np.array_equal(many.gg, one.gg)
            assert np.array_equal(many.starts, one.starts)
            assert np.array_equal(many.columns, one.columns)
            assert np.array_equal(many.coef[:, d], one.coef[:, 0])  # bit for bit
            for got, want in zip((many.rate, many.phase), (one.rate, one.phase)):
                assert np.array_equal(got[d], want[0])


class TestRandomScheduleInvariants:
    @settings(max_examples=40, deadline=None)
    @given(run=coarse_runs())
    def test_trajectory_matches_interval_stepping(self, run):
        # oracle: evolve_operator from ee = 1, one grid interval at a time
        sched, params, delta = run
        traj = density_trajectory(sched, params)
        assert (traj.ee[0], traj.gg[0]) == (1.0, 0.0)
        rho = op(ee=1.0)
        for k in range(1, params.n_steps + 1):
            rho = evolve_operator(rho, traj.t_grid[k - 1], traj.t_grid[k], sched,
                                  params, delta)
            assert rho[0, 1] == rho[1, 0] == 0
            assert abs(rho[0, 0] - traj.ee[k]) < 1e-12
            assert abs(rho[1, 1] - traj.gg[k]) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(run=coarse_runs())
    def test_populations_conserve_trace_and_stay_in_range(self, run):
        sched, params, _ = run
        traj = density_trajectory(sched, params)
        assert np.max(np.abs(traj.ee + traj.gg - 1.0)) < 1e-12
        for pop in (traj.ee, traj.gg):
            assert np.all((pop >= -1e-12) & (pop <= 1 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(run=coarse_runs())
    def test_g_zero_sum_is_the_window(self, run):
        # G1(0) + G2(0) integrates rho_ee + rho_gg = 1 over [0, T]
        sched, params, delta = run
        kern = accumulate_kernel(sched, params, [delta], [1.0])
        assert abs(kern.g1[0] + kern.g2[0] - params.t_end) < 1e-12 * params.t_end
