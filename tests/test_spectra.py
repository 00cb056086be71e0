"""Spectra: Fourier quadrature, its plan, sum rule, detuning averaging, peak tools."""

import ast
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
    emission_sum_rule,
    no_drive_schedule,
    periodic_schedule,
    spectrum_from_kernel,
    uhrig_schedule,
)
from pulsespec import cli, spectra
from pulsespec.spectra import fft_length

from bench import workloads
from oracles import per_detuning_average, row_loop_kernel
from peaks import dominant_peaks, full_width_half_max, local_maxima, smooth3

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
        # dt = 0.1: the grid reaches past pi/dt = 31.4
        with pytest.warns(UserWarning, match="past the Nyquist frequency"):
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
        omega = start + np.arange(size) * step
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert_matches_dense(kern, omega)
        # the transform warns exactly when the grid reaches past pi/dt
        assert all("past the Nyquist frequency" in str(w.message) for w in seen)
        assert len(seen) == (max(-omega[0], omega[-1]) > np.pi / params.dt)

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


def uhrig_kernel(n_steps, dt=0.05):
    """A kernel of n_steps + 1 lags, off-grid pulses, a coarse step."""
    params = SimParams(gamma=2.0, t_end=n_steps * dt, dt=dt)
    return accumulate_kernel(uhrig_schedule(5, params.t_end), params, [3.0], [1.0])


def plan_blocks(n, m):
    """(block count, block length, FFT length) of the plan for n lags and m frequencies."""
    nb, size = spectra._plan(n, m, 0.0, 1.0, 1.0)[1].shape
    return nb, -(-n // nb), size


class TestBlockedTransform:
    """The lags in several blocks, each with its own window, against the dense sum."""

    def test_several_blocks_with_a_zero_padded_last_block(self):
        kern, m = uhrig_kernel(250), 12
        nb, blen, size = plan_blocks(251, m)
        assert nb > 1 and nb * blen > 251 and size > blen + m - 1
        assert_matches_dense(kern, -7.0 + 0.4 * np.arange(m))

    @pytest.mark.parametrize("n_steps, m", [(200, 10), (139, 12)])
    def test_several_blocks_without_padding_slack(self, n_steps, m):
        # block length + M - 1 is 5-smooth, so the FFT length leaves no spare
        # zeros; for (139, 12) it is 81, and 80, one short, would wrap
        nb, blen, size = plan_blocks(n_steps + 1, m)
        assert nb > 1 and size == blen + m - 1
        assert_matches_dense(uhrig_kernel(n_steps), -7.0 + 0.4 * np.arange(m))

    def test_one_frequency(self):
        nb, blen, size = plan_blocks(51, 1)
        assert nb > 1 and size == blen
        assert_matches_dense(uhrig_kernel(50), [3.0])

    @pytest.mark.parametrize("lags", [39, 40, 41, 79, 80, 81])
    def test_block_count_around_4m_and_8m(self, lags):
        # nb = 1 below 8M lags, 2 from there
        assert plan_blocks(lags, 10)[0] == (2 if lags >= 80 else 1)
        assert_matches_dense(uhrig_kernel(lags - 1), -7.0 + 0.4 * np.arange(10))


class TestPlan:
    def test_a_kept_plan_gives_the_fresh_result(self):
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-2)
        kernels = [accumulate_kernel(PAPER_SCHEDULES[p], params, [3.0], [1.0])
                   for p in ("pz", "uhrig")]
        fresh = []
        for kern in kernels:
            spectra._plan.cache_clear()
            fresh.append(spectrum_from_kernel(kern, GRID))
        spectra._plan.cache_clear()
        for kern, want in zip(kernels, fresh):
            got = spectrum_from_kernel(kern, GRID)
            assert np.array_equal(got.emission, want.emission)
            assert np.array_equal(got.direct_absorption, want.direct_absorption)
        assert spectra._plan.cache_info().hits >= 1

    def test_a_grid_between_two_uses_of_another(self):
        kern = uhrig_kernel(200)
        grids = [GRID, default_omega_grid(-10.0, 10.0, 0.05), GRID]
        first, other, again = (spectrum_from_kernel(kern, g) for g in grids)
        spectra._plan.cache_clear()
        fresh = spectrum_from_kernel(kern, grids[1])
        assert np.array_equal(first.emission, again.emission)
        assert np.array_equal(first.direct_absorption, again.direct_absorption)
        assert np.array_equal(other.emission, fresh.emission)
        assert spectra._plan.cache_info().currsize == 1

    def test_plan_arrays_are_read_only(self):
        for a in spectra._plan(201, 10, -1.0, 0.5, 0.05):
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    @pytest.mark.parametrize("n, m, omega0, dw, dtheta", [
        (2401, 3201, -40.0, 0.025, 1e-3),   # paper
        (16001, 401, -10.0, 0.05, 1e-3),    # long-window: 9 blocks
        (241, 161, -40.0, 0.5, 0.01),       # paper and detuning-avg, smoke
        (1601, 41, -10.0, 0.5, 0.01),       # long-window, smoke
        (200_000, 10, -7.0, 0.4, 0.05),     # 5000 blocks
    ])
    def test_plan_is_one_exp_per_point(self, n, m, omega0, dw, dtheta):
        # against long-double exponentials of the same phases, within a few
        # eps of 1 + |phase|: one rounding of a float times an exact integer
        pre, _, post = spectra._plan(n, m, omega0, dw, dtheta)
        eps = np.finfo(float).eps
        ld = np.longdouble
        j = np.arange(max(n, m)).astype(ld)
        chirp = ld(0.5) * ld(dw) * ld(dtheta) * j * j
        assert post.shape == (m,)
        assert np.all(np.abs(post - np.exp(-1j * chirp[:m])) <= 4 * eps * (1 + chirp[:m]))
        demod = ld(omega0) * ld(dtheta) * j[:n]
        weight = np.full(n, dtheta)
        weight[0] = weight[-1] = 0.5 * dtheta
        want = weight * np.exp(-1j * (demod + chirp[:n]))
        assert pre.shape == (n,)
        assert np.all(np.abs(pre - want) <= 4 * eps * (1 + np.abs(demod) + chirp[:n]) * weight)

    def test_the_paper_runs_share_one_plan(self, tmp_path, capsys):
        # protocol, detuning and mixture leave the plan key as it is: px's
        # T = 12 * 0.2 = 2.4000000000000004 and uhrig's T = 2.4 give one n
        paper = [workloads.smoke_case(c) for c in workloads.workload_cases("paper")]
        average = workloads.smoke_case(workloads.workload_cases("detuning-avg")[0])
        runs = [case.argv for case in paper] + [average.argv]
        assert len(runs) == 5 * len(workloads.PAPER_DELTAS) + 1
        out = ["--output", str(tmp_path / "x.csv")]
        spectra._plan.cache_clear()
        assert [cli.main([*argv, *out]) for argv in runs] == [0] * len(runs)
        capsys.readouterr()
        assert spectra._plan.cache_info().misses == 1


class TestWorkingSet:
    """Peak traced allocations at long-window size, in arrays of N + 1 complex."""

    PARAMS = SimParams(gamma=2.0, t_end=16.0, dt=1e-3)
    SCHEDULE = uhrig_schedule(24, 16.0)
    OMEGA = default_omega_grid(-10.0, 10.0, 0.05)

    def peak(self, call, params=PARAMS):
        tracemalloc.start()
        try:
            call()
            unit = (params.n_steps + 1) * np.dtype(complex).itemsize
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    def test_kernel(self):
        assert self.peak(lambda: accumulate_kernel(self.SCHEDULE, self.PARAMS,
                                                   [2.0], [1.0])) <= 7

    def test_kernel_of_a_dense_train(self):
        # px-1600: 1601 stretches, about 2.6 million pairs binned in chunks
        sched = periodic_schedule([PulseAxis.X], 0.01, 1600)
        assert self.peak(lambda: accumulate_kernel(sched, self.PARAMS, [2.0], [1.0])) <= 23

    def test_kernel_does_not_grow_with_the_detunings(self):
        # a 33-node Gauss-Hermite mixture on uhrig-12 at N = 2400; a (D, N + 1)
        # array per lag pass would take 33 arrays each
        params = SimParams(gamma=2.0, t_end=2.4, dt=1e-3)
        x, w = np.polynomial.hermite.hermgauss(33)
        assert self.peak(lambda: accumulate_kernel(uhrig_schedule(12, 2.4), params,
                                                   3.0 + np.sqrt(2) * x, w / np.sqrt(np.pi)),
                         params) <= 35

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy < 2 copies an FFT's input to pad it")
    def test_warm_transform(self):
        kern = accumulate_kernel(self.SCHEDULE, self.PARAMS, [2.0], [1.0])
        spectrum_from_kernel(kern, self.OMEGA)
        assert self.peak(lambda: spectrum_from_kernel(kern, self.OMEGA)) <= 6


def test_importing_the_cli_builds_no_plan():
    code = "import pulsespec.cli, pulsespec.spectra as s; print(s._plan.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(spectra.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_spectra_imports_nothing_the_cli_does_not():
    tree = ast.parse(Path(spectra.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert imported <= {"__future__", "functools", "math", "warnings", "numpy"}


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
        # dt = 0.1: the grid reaches past pi/dt = 31.4
        with pytest.warns(UserWarning, match="past the Nyquist frequency"):
            spec = spectrum_from_kernel(kern, GRID)
        assert emission_sum_rule(spec) == (0.0, 0.0)

    @pytest.mark.parametrize("grid", [(-10.0, 10.0, 0.025), (-40.0, 40.0, 0.5)],
                             ids=["narrow", "coarse"])
    def test_sums_but_does_not_judge_a_narrow_or_coarse_grid(self, grid):
        # the Z train warns twice on the default grid (see below); here the
        # pair is still the trapezoid over the grid and G1(0), and nothing warns
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        kern = accumulate_kernel(sched, SimParams(t_end=0.6), [3.0], [1.0])
        spec = spectrum_from_kernel(kern, default_omega_grid(*grid))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            lhs, rhs = emission_sum_rule(spec)
        assert seen == []
        p = spec.emission
        assert lhs == pytest.approx((p.sum() - (p[0] + p[-1]) / 2) * grid[2] / (2 * np.pi),
                                    rel=1e-12)
        assert rhs == kern.g1[0].real
        assert abs(lhs / rhs - 1.0) > 0.10

    def test_warns_when_edges_carry_weight(self):
        # pulsed kernels have slow spectral tails well beyond +-40
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        params = SimParams(gamma=2.0, t_end=0.6, dt=1e-3)
        kern = accumulate_kernel(sched, params, [3.0], [1.0])
        spec = spectrum_from_kernel(kern, GRID)
        with (pytest.warns(UserWarning, match="widen"),
              pytest.warns(UserWarning, match=r"emission sum rule off by 15\.4%")):
            emission_sum_rule(spec)

    def test_notes_a_miss_above_ten_percent_after_the_edge_warning(self, free_decay):
        sched = periodic_schedule([PulseAxis.Z], 0.2, 3)
        kern = accumulate_kernel(sched, SimParams(t_end=0.6), [3.0], [1.0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            lhs, rhs = emission_sum_rule(spectrum_from_kernel(kern, GRID))
            emission_sum_rule(free_decay[2])
        assert abs(lhs / rhs - 1.0) > 0.10
        assert [str(w.message) for w in seen] == [
            "emission at the omega-grid edge is not negligible; "
            "widen the grid for a reliable sum rule",
            f"emission sum rule off by {abs(lhs / rhs - 1.0):.1%} "
            f"(lhs={lhs:.6g}, rhs={rhs:.6g})",
        ]


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
