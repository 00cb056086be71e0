"""Spectra: Fourier quadrature, sum rule, detuning averaging, peak tools."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsespec import (
    CorrelationKernel,
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    accumulate_kernel,
    default_omega_grid,
    detuning_average,
    dominant_peaks,
    emission_sum_rule,
    full_width_half_max,
    local_maxima,
    no_drive_schedule,
    periodic_schedule,
    spectrum_from_kernel,
    uhrig_schedule,
)
from pulsespec import spectra
from pulsespec.spectra import fft_length, smooth3

from oracles import per_detuning_average, row_loop_kernel

#: the default detector grid, [-40, 40] with step 0.025
GRID = default_omega_grid()

def dense_transform(kern, omega):
    """Oracle: the trapezoidal sum, one row of exponentials per frequency.

    Returns P and P' stacked as rows, and each row's scale sum |w G|.
    """
    theta = kern.theta_grid
    w = np.full(theta.size, theta[1] - theta[0])
    w[0] = w[-1] = w[0] / 2
    f = w * np.stack([kern.g1, kern.g2])
    rows = [2.0 * (f @ np.exp(-1j * o * theta)).real for o in omega]
    return np.array(rows).T, np.abs(f).sum(axis=1)


def assert_matches_dense(kern, omega):
    spec = spectrum_from_kernel(kern, omega)
    dense, scale = dense_transform(kern, spec.omega)
    for got, want, tol in zip((spec.emission, spec.direct_absorption),
                              dense, 1e-12 * scale):
        assert np.max(np.abs(got - want)) <= tol


PAPER_SCHEDULES = {
    "none": no_drive_schedule(2.4),
    "px": periodic_schedule([PulseAxis.X], 0.2, 12),
    "pxpy": periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.2, 12),
    "pz": periodic_schedule([PulseAxis.Z], 0.2, 12),
    "uhrig": uhrig_schedule(12, 2.4),
}


@pytest.fixture(scope="module")
def free_decay():
    params = SimParams(gamma=2.0, t_end=6.0, dt=1e-3)
    kern = accumulate_kernel(no_drive_schedule(6.0), params, [0.0], [1.0])
    return params, kern, spectrum_from_kernel(kern, GRID)


class TestSpectrumFromKernel:
    def test_lorentzian_height_ratio(self, free_decay):
        _, _, spec = free_decay
        p0 = spec.emission[np.argmin(np.abs(spec.omega))]
        p1 = spec.emission[np.argmin(np.abs(spec.omega - 1.0))]
        assert p0 / p1 == pytest.approx(2.0, rel=0.03)

    def test_detuned_line_position(self):
        params = SimParams(gamma=2.0, t_end=6.0, dt=1e-3)
        kern = accumulate_kernel(no_drive_schedule(6.0), params, [3.0], [1.0])
        spec = spectrum_from_kernel(kern, GRID)
        assert spec.omega[np.argmax(spec.emission)] == pytest.approx(3.0, abs=0.026)

    def test_zero_kernel_gives_zero_spectrum(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=0.1)
        n = params.n_steps + 1
        kern = CorrelationKernel(g1=np.zeros(n, complex), g2=np.zeros(n, complex),
                                 params=params, schedule_digest="zero")
        spec = spectrum_from_kernel(kern, GRID)
        assert np.all(spec.emission == 0.0)
        assert np.all(spec.net_absorption == 0.0)

    def test_net_absorption_identity(self, free_decay):
        _, _, spec = free_decay
        assert np.array_equal(spec.net_absorption,
                              spec.direct_absorption - spec.emission)

    def test_emission_nonnegative_up_to_ripple(self):
        sched = periodic_schedule([PulseAxis.Z], 0.2, 6)
        params = SimParams(gamma=2.0, t_end=1.2, dt=1e-3)
        spec = spectrum_from_kernel(accumulate_kernel(sched, params, [3.0], [1.0]), GRID)
        assert spec.emission.min() > -1e-6 * spec.emission.max()

    def test_rejects_bad_omega_grid(self, free_decay):
        _, kern, _ = free_decay
        with pytest.raises(ValueError):
            spectrum_from_kernel(kern, [])
        with pytest.raises(ValueError):
            spectrum_from_kernel(kern, [0.0, 1.0, 0.5])
        for bad in ([0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                spectrum_from_kernel(kern, bad)
        for bad in ([0.0, 1.0, 3.0], np.geomspace(1.0, 40.0, 101)):
            with pytest.raises(ValueError, match="omega_grid must be uniform"):
                spectrum_from_kernel(kern, bad)
        for good in (np.linspace(-40.0, 40.0, 3201), default_omega_grid(),
                     default_omega_grid(960.0, 1040.0, 1e-3),
                     [0.0, 0.1, 0.2, 0.3]):
            spectrum_from_kernel(kern, good)

    @pytest.mark.parametrize("delta", [0.0, 3.0, 8.0])
    @pytest.mark.parametrize("protocol", sorted(PAPER_SCHEDULES))
    def test_matches_dense_sum_on_paper_protocols(self, protocol, delta):
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-2)
        kern = accumulate_kernel(PAPER_SCHEDULES[protocol], params, [delta], [1.0])
        assert_matches_dense(kern, GRID)

    @pytest.mark.parametrize("lo, hi, step", [(-10.0, 10.0, 0.05),
                                              (960.0, 1040.0, 0.2)])
    def test_matches_dense_sum_on_a_long_free_decay(self, lo, hi, step):
        # N = 20001; on [960, 1040] only the far tail is seen (peak ~1e-6),
        # so the bound is set by sum |w G|, not by the column peak
        params = SimParams(gamma=2.0, t_end=20.0, dt=1e-3)
        kern = accumulate_kernel(no_drive_schedule(20.0), params, [0.0], [1.0])
        assert_matches_dense(kern, default_omega_grid(lo, hi, step))

    @pytest.mark.parametrize("omega", [[3.0], [-1.0, 2.5],
                                       default_omega_grid(-1.0, 1.0, 1e-3)])
    def test_matches_dense_sum_on_short_and_fine_grids(self, omega):
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-2)
        kern = accumulate_kernel(PAPER_SCHEDULES["pxpy"], params, [3.0], [1.0])
        assert_matches_dense(kern, omega)

    @pytest.mark.parametrize("n_steps, m", [(50, 31), (40, 35), (44, 36)])
    def test_matches_dense_sum_without_padding_slack(self, n_steps, m):
        # N + 1 theta and M omega points with N + M a 5-smooth number: the
        # convolution length is exactly the FFT length. For (50, 31) the
        # length 80, one short, is 5-smooth too, and would wrap
        assert fft_length(n_steps + m) == n_steps + m
        params = SimParams(gamma=2.0, t_end=n_steps * 0.05, dt=0.05)
        kern = accumulate_kernel(uhrig_schedule(5, params.t_end), params, [3.0], [1.0])
        assert_matches_dense(kern, -7.0 + 0.4 * np.arange(m))

    @settings(max_examples=60, deadline=None)
    @given(start=st.floats(-200.0, 200.0), step=st.floats(1e-3, 5.0),
           size=st.integers(1, 300))
    def test_matches_dense_sum_on_random_grids(self, start, step, size):
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-2)
        kern = accumulate_kernel(PAPER_SCHEDULES["uhrig"], params, [3.0], [1.0])
        assert_matches_dense(kern, start + np.arange(size) * step)

    def test_mirror_symmetry_under_detuning_flip_z_train(self):
        # P at detuning d equals P at -d reflected in omega
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        grid = default_omega_grid(-30, 30, 0.05)
        params = SimParams(t_end=0.6, dt=1e-3)
        spec_p = spectrum_from_kernel(accumulate_kernel(sched, params, [2.0], [1.0]), grid)
        spec_m = spectrum_from_kernel(accumulate_kernel(sched, params, [-2.0], [1.0]), grid)
        assert np.max(np.abs(spec_p.emission - spec_m.emission[::-1])) < 1e-9
        assert np.max(np.abs(spec_p.net_absorption
                             - spec_m.net_absorption[::-1])) < 1e-9


class TestFftLength:
    def test_is_the_next_5_smooth_number(self):
        limit = 20000
        smooth = np.array(sorted(2 ** a * 3 ** b * 5 ** c for a in range(16)
                                 for b in range(10) for c in range(7)))
        n = np.arange(1, limit + 1)
        want = smooth[np.searchsorted(smooth, n)]  # first 5-smooth >= n
        assert want[-1] <= 2 ** 15  # the list holds every 5-smooth number up to 2^15
        assert [fft_length(int(k)) for k in n] == want.tolist()

    @pytest.mark.parametrize("n", [22, 37, 40])
    def test_kernel_without_padding_slack(self, n):
        # an even number of X/Y pulses ends on the ge column, so lag n pairs
        # the last row with the first; 2n + 1 is 5-smooth, the length at which
        # an FFT cross-correlation of the rows has no spare zeros to keep a
        # wrap-around off that pair
        assert fft_length(2 * n + 1) == 2 * n + 1
        dt = 0.05
        events = (PulseEvent(3 * dt, PulseAxis.X), PulseEvent(7.4 * dt, PulseAxis.Z),
                  PulseEvent(7.7 * dt, PulseAxis.Y), PulseEvent((n - 3) * dt, PulseAxis.Z))
        sched = PulseSchedule(events=events, window_end=n * dt)
        params = SimParams(gamma=2.0, t_end=n * dt, dt=dt)
        kern = accumulate_kernel(sched, params, [2.5], [1.0])
        g1, g2 = row_loop_kernel(sched, params, 2.5)
        assert np.max(np.abs(kern.g1 - g1)) < 1e-12
        assert np.max(np.abs(kern.g2 - g2)) < 1e-12


class TestSumRule:
    def test_free_decay_near_half(self):
        params = SimParams(gamma=2.0, t_end=10.0, dt=2e-3)
        kern = accumulate_kernel(no_drive_schedule(10.0), params, [0.0], [1.0])
        spec = spectrum_from_kernel(kern, GRID)
        lhs, rhs = emission_sum_rule(spec)
        assert rhs == pytest.approx((1 - np.exp(-20.0)) / 2, abs=1e-5)
        assert lhs / rhs == pytest.approx(1.0, abs=0.02)

    def test_zero_kernel(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=0.1)
        n = params.n_steps + 1
        kern = CorrelationKernel(g1=np.zeros(n, complex), g2=np.zeros(n, complex),
                                 params=params, schedule_digest="zero")
        spec = spectrum_from_kernel(kern, GRID)
        assert emission_sum_rule(spec) == (0.0, 0.0)

    def test_rejects_narrow_grid(self, free_decay):
        _, kern, _ = free_decay
        spec = spectrum_from_kernel(kern, default_omega_grid(-10, 10, 0.025))
        with pytest.raises(ValueError, match="spanning"):
            emission_sum_rule(spec)

    def test_warns_when_edges_carry_weight(self):
        # pulsed kernels have slow spectral tails well beyond +-40
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        params = SimParams(gamma=2.0, t_end=0.6, dt=1e-3)
        kern = accumulate_kernel(sched, params, [3.0], [1.0])
        spec = spectrum_from_kernel(kern, GRID)
        with pytest.warns(UserWarning, match="widen"):
            emission_sum_rule(spec)


class TestDetuningAverage:
    def test_single_delta_matches_direct_run(self):
        sched = uhrig_schedule(3, 0.6)
        params = SimParams(gamma=2.0, t_end=0.6, dt=1e-3)
        avg = detuning_average(sched, params, np.array([3.0]), np.array([1.0]), GRID)
        direct = spectrum_from_kernel(accumulate_kernel(sched, params, [3.0], [1.0]), GRID)
        assert np.max(np.abs(avg.emission - direct.emission)) < 1e-15
        assert np.max(np.abs(avg.net_absorption - direct.net_absorption)) < 1e-15

    def test_equals_weighted_mix_of_members(self):
        sched = no_drive_schedule(2.0)
        params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)
        deltas = np.array([1.0, 4.0])
        weights = np.array([0.25, 0.75])
        avg = detuning_average(sched, params, deltas, weights, GRID)
        parts = [
            spectrum_from_kernel(accumulate_kernel(sched, params, [d], [1.0]), GRID)
            for d in deltas
        ]
        mix = weights[0] * parts[0].emission + weights[1] * parts[1].emission
        assert np.max(np.abs(avg.emission - mix)) < 1e-15

    def test_free_decay_average_is_lorentzian_mixture(self):
        # each detuning contributes its own shifted line
        sched = no_drive_schedule(6.0)
        params = SimParams(gamma=2.0, t_end=6.0, dt=1e-3)
        deltas = np.array([3.0, 4.0, 5.0, 6.0])
        weights = np.full(4, 0.25)
        avg = detuning_average(sched, params, deltas, weights, GRID)
        om = avg.omega
        mixture = 0.25 * sum(1.0 / (1.0 + (om - d) ** 2) for d in deltas)
        scale = avg.emission.max() / mixture.max()
        mask = np.abs(om) <= 20
        assert np.max(np.abs(avg.emission[mask] - scale * mixture[mask])) \
            < 0.02 * avg.emission.max()

    def test_uhrig_average_concentrates_at_carrier(self):
        sched = uhrig_schedule(12, 2.0)
        params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)
        avg = detuning_average(sched, params, np.array([3.0, 4.0, 5.0, 6.0]),
                               np.full(4, 0.25), GRID)
        om = avg.omega
        central = avg.emission[np.abs(om) < 1.0].max()
        outside = [h for p, h in dominant_peaks(om, avg.emission, 0.0)
                   if abs(p) > 1.0]
        assert central > max(outside)

    @pytest.mark.parametrize("protocol", sorted(PAPER_SCHEDULES))
    def test_matches_per_detuning_runs_on_paper_protocols(self, protocol):
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-3)
        deltas = 3.0 + np.linspace(-2.0, 2.0, 9)
        weights = np.array([1, 2, 3, 4, 5, 4, 3, 2, 1]) / 25
        avg = detuning_average(PAPER_SCHEDULES[protocol], params, deltas, weights, GRID)
        loop = per_detuning_average(PAPER_SCHEDULES[protocol], params, deltas, weights,
                                    GRID)
        for got, want in zip((avg.emission, avg.direct_absorption), loop):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(avg.net_absorption, avg.direct_absorption - avg.emission)

    def test_transforms_once(self, monkeypatch):
        calls = []

        def counting(kernel, omega_grid):
            calls.append(kernel)
            return spectrum_from_kernel(kernel, omega_grid)

        monkeypatch.setattr(spectra, "spectrum_from_kernel", counting)
        params = SimParams(t_end=1.2, dt=1e-2)
        detuning_average(periodic_schedule([PulseAxis.Z], 0.2, 6), params,
                         np.arange(5.0), np.full(5, 0.2), GRID)
        assert len(calls) == 1
        assert calls[0].params is params

    def test_weight_validation(self):
        sched = no_drive_schedule(1.0)
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError, match="sum to 1"):
            detuning_average(sched, params, np.array([1.0, 2.0]),
                             np.array([0.6, 0.6]), GRID)
        with pytest.raises(ValueError, match="nonnegative"):
            detuning_average(sched, params, np.array([1.0, 2.0]),
                             np.array([1.5, -0.5]), GRID)
        with pytest.raises(ValueError, match="equal length"):
            detuning_average(sched, params, np.array([1.0]), np.array([0.5, 0.5]), GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["delta", "weight"])
    def test_rejects_non_finite_mixtures(self, where, bad):
        # a NaN weight fails every comparison, so only a finiteness check
        # keeps it from dropping out of the mixture unseen
        sched = no_drive_schedule(1.0)
        params = SimParams(t_end=1.0, dt=1e-2)
        deltas, weights = np.array([0.0, 2.0]), np.array([0.5, 0.5])
        if where == "delta":
            deltas[0] = bad
        else:
            weights = np.array([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            accumulate_kernel(sched, params, deltas, weights)
        with pytest.raises(ValueError, match="finite"):
            detuning_average(sched, params, deltas, weights, GRID)


class TestPeakTools:
    def test_smooth3_interior_average(self):
        v = np.array([0.0, 3.0, 6.0, 3.0, 0.0])
        s = smooth3(v)
        assert s[2] == pytest.approx(4.0)
        assert s[0] == 0.0 and s[-1] == 0.0

    def test_smooth3_reversal_is_bit_exact(self):
        v = np.random.default_rng(3).random(200)
        assert np.array_equal(smooth3(v[::-1]), smooth3(v)[::-1])

    def test_local_maxima_simple(self):
        om = np.arange(9.0)
        v = np.array([0, 1, 2, 1, 0, 0, 3, 0, 0], dtype=float)
        idx = local_maxima(om, v)
        assert list(idx) == [2, 6]

    def test_plateau_resolves_to_lower_omega(self):
        om = np.arange(8.0)
        v = np.array([0, 1, 2, 2, 2, 1, 0, 0], dtype=float)
        idx = local_maxima(om, v)
        assert list(idx) == [3]  # a raw plateau of three smooths to a strict peak at its centre

    def test_raw_tie_in_flat_run_resolves_to_lower_omega(self):
        # smooths to [0, 1, 2, 2, 1, 0, 0]: a flat run 2..3 with equal raw values
        om = np.arange(7.0)
        v = np.array([0, 0, 3, 3, 0, 0, 0], dtype=float)
        assert list(local_maxima(om, v)) == [2]

    @pytest.mark.parametrize("background", [0.0, 0.1, 0.3, 0.7])
    @pytest.mark.parametrize("height", [0.4, 1.0, 3.0])
    def test_lone_spike_reported_at_its_own_index(self, background, height):
        om = np.arange(9.0)
        for k in range(1, 8):
            v = np.full(9, background)
            v[k] += height
            assert list(local_maxima(om, v)) == [k], k

    @pytest.mark.parametrize("level", [0.0, 0.1, 0.3, 0.7, -2.5])
    def test_constant_array_has_no_maxima(self, level):
        assert list(local_maxima(np.arange(9.0), np.full(9, level))) == []

    def test_small_peak_in_tail_survives(self):
        # far below eps of the large peak, but alone on an exact zero background
        v = np.zeros(15)
        v[2] = 1.0
        v[10] = 1e-20
        assert list(local_maxima(np.arange(15.0), v)) == [2, 10]

    def test_reversed_input_mirrors_indices(self):
        rng = np.random.default_rng(7)
        om = np.arange(40.0)
        for trial in range(100):
            if trial % 2:
                v = 0.3 + rng.random(40)  # continuous draws: strict peaks
            else:
                # sparse spikes of distinct heights: flat smoothed runs whose
                # largest raw value is unique
                v = np.full(40, 0.1)
                at = rng.choice(np.arange(1, 39), size=6, replace=False)
                v[at] += 0.25 * rng.permutation(6) + 0.5
            fwd = local_maxima(om, v)
            rev = local_maxima(om, v[::-1])
            assert fwd.size > 0
            assert sorted(39 - rev) == list(fwd)

    def test_shelf_is_not_a_maximum(self):
        # smooths to [0, 1, 1, 1, 2, 4, 6, 4, 2, 0]: the run 1..3 is followed
        # by a further rise, so only the line at 6 is reported
        om = np.arange(10.0)
        v = np.array([0, 0, 3, 0, 0, 6, 6, 6, 0, 0], dtype=float)
        assert list(local_maxima(om, v)) == [6]

    def test_endpoints_never_qualify(self):
        om = np.arange(5.0)
        v = np.array([5, 1, 0, 1, 5], dtype=float)
        assert list(local_maxima(om, v)) == []
        # a flat run that reaches the last point is not bounded by a fall
        assert list(local_maxima(om, np.array([0, 0, 3, 3, 3], dtype=float))) == []

    def test_dominant_peaks_threshold(self):
        om = np.linspace(-1, 1, 201)
        v = np.exp(-((om - 0.5) / 0.05) ** 2) + 0.2 * np.exp(-((om + 0.5) / 0.05) ** 2)
        peaks = dominant_peaks(om, v, rel_height=0.5)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(0.5, abs=0.02)
        both = dominant_peaks(om, v, rel_height=0.1)
        assert len(both) == 2

    @pytest.mark.parametrize("shift", [-2.0, 5.0])
    def test_dominant_peaks_ignore_a_constant_shift(self, shift):
        # net absorption can put every line below zero; the cut is measured
        # from the smoothed minimum, so a shift moves nothing
        om = np.linspace(-1, 1, 201)
        v = np.exp(-((om - 0.5) / 0.05) ** 2) + 0.2 * np.exp(-((om + 0.5) / 0.05) ** 2)
        for rel in (0.5, 0.1):
            expect = [p for p, _ in dominant_peaks(om, v, rel)]
            assert [p for p, _ in dominant_peaks(om, v + shift, rel)] == expect

    def test_fwhm_of_lorentzian(self):
        om = np.linspace(-20, 20, 4001)
        v = 1.0 / (1.0 + om ** 2)
        assert full_width_half_max(om, v) == pytest.approx(2.0, abs=1e-3)

    def test_fwhm_needs_crossings(self):
        om = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            full_width_half_max(om, np.ones(11))
