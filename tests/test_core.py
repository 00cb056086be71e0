"""Core types: schedules and parameters; the oracles' density check and seeds."""

import dataclasses
import warnings

import numpy as np
import pytest

from pulsespec import (
    CorrelationKernel,
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    SpectrumResult,
    default_omega_grid,
    periodic_schedule,
)
from pulsespec.core import check_mixture, check_omega_grid

from oracles import (
    SIGMA_PLUS,
    left_mul_sigma_minus,
    op,
    right_mul_sigma_minus,
    validate_density,
)


def random_physical_rho(rng):
    p = rng.uniform(0.0, 1.0)
    # coherence bounded by sqrt(p(1-p)) keeps the state positive
    r = rng.uniform(0.0, np.sqrt(p * (1 - p)))
    phi = rng.uniform(0, 2 * np.pi)
    c = r * np.exp(1j * phi)
    return op(ee=p, eg=c, ge=np.conj(c), gg=1 - p)


class TestValidateDensity:
    def test_excited_state(self):
        assert validate_density(op(ee=1, gg=0), tol=1e-12)

    def test_hermitian_half_half(self):
        rho = op(ee=0.5, gg=0.5, eg=0.1 + 0.2j, ge=0.1 - 0.2j)
        assert validate_density(rho, tol=1e-12)

    def test_trace_violation(self):
        assert not validate_density(op(ee=0.7, gg=0.5), tol=1e-12)

    def test_non_hermitian(self):
        assert not validate_density(op(ee=0.5, gg=0.5, eg=0.1, ge=0.2), tol=1e-12)

    def test_population_out_of_range(self):
        assert not validate_density(op(ee=1.2, gg=-0.2), tol=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            validate_density(op(ee=1), tol=0.0)


class TestRegressionSeeds:
    def test_left_mul_excited(self):
        assert np.array_equal(left_mul_sigma_minus(op(ee=1)), op(ge=1))

    def test_left_mul_ground_annihilates(self):
        assert np.array_equal(left_mul_sigma_minus(op(gg=1)), op())

    def test_left_mul_coherence(self):
        rho = op(ee=0.4, eg=0.3j, ge=-0.3j, gg=0.6)
        assert np.array_equal(left_mul_sigma_minus(rho), op(ge=0.4, gg=0.3j))

    def test_right_mul_ground(self):
        assert np.array_equal(right_mul_sigma_minus(op(gg=1)), op(ge=1))

    def test_right_mul_excited_annihilates(self):
        assert np.array_equal(right_mul_sigma_minus(op(ee=1)), op())

    def test_right_mul_coherence(self):
        rho = op(ee=0.5, eg=0.5, ge=0.5, gg=0.5)
        assert np.array_equal(right_mul_sigma_minus(rho), op(ee=0.5, ge=0.5))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_product(self, seed):
        # sigma_- moves the top row of m to the bottom, or its right column
        # to the left
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        (ee, eg), (ge, gg) = m
        assert np.array_equal(left_mul_sigma_minus(m), op(ge=ee, gg=eg))
        assert np.array_equal(right_mul_sigma_minus(m), op(ee=eg, ge=gg))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identities(self, seed):
        # Tr[sigma_+ (sigma_- rho)] = rho_ee and (rho sigma_-).ge = rho_gg
        rng = np.random.default_rng(100 + seed)
        rho = random_physical_rho(rng)
        left = left_mul_sigma_minus(rho)
        assert np.trace(SIGMA_PLUS @ left) == pytest.approx(rho[0, 0])
        assert left[1, 0] == rho[0, 0]
        assert right_mul_sigma_minus(rho)[1, 0] == rho[1, 1]


class TestPulseSchedule:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PulseSchedule(events=(PulseEvent(0.4, PulseAxis.X),
                                  PulseEvent(0.2, PulseAxis.X)), window_end=1.0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),
                                  PulseEvent(0.2, PulseAxis.Y)), window_end=1.0)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            PulseSchedule(events=(PulseEvent(0.0, PulseAxis.X),), window_end=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PulseSchedule(events=(PulseEvent(bad, PulseAxis.X),), window_end=1.0)
        with pytest.raises(ValueError, match="finite"):
            PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),
                                  PulseEvent(bad, PulseAxis.X)), window_end=1.0)
        with pytest.raises(ValueError, match="finite"):
            PulseSchedule(events=(), window_end=bad)

    def test_time_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside the window"):
            PulseSchedule(events=(PulseEvent(1.5, PulseAxis.X),), window_end=1.0)

    @pytest.mark.parametrize("bad", ["x", None, 0])
    def test_axis_that_is_not_a_pulse_axis_rejected(self, bad):
        # caught with the times, not later by digest() or the pulse maps
        with pytest.raises(ValueError, match=r"pulse at t=0\.5 has axis .*not a PulseAxis"):
            PulseSchedule(events=(PulseEvent(0.5, bad),), window_end=1.0)
        with pytest.raises(ValueError, match=r"pulse at t=0\.4 has axis 'x'"):
            periodic_schedule([PulseAxis.Y, "x"], 0.2, 3)

    def test_pulse_at_window_end_allowed(self):
        s = PulseSchedule(events=(PulseEvent(1.0, PulseAxis.Z),), window_end=1.0)
        assert s.events[-1].time == 1.0

    def test_min_gap(self):
        s = PulseSchedule(events=(PulseEvent(0.3, PulseAxis.X),
                                  PulseEvent(0.5, PulseAxis.X)), window_end=1.0)
        assert s.min_gap() == pytest.approx(0.2)
        assert PulseSchedule(events=(), window_end=1.0).min_gap() == np.inf

    def test_digest_deterministic_and_distinct(self):
        a = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),), window_end=1.0)
        b = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),), window_end=1.0)
        c = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.Y),), window_end=1.0)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestSimParams:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            SimParams(gamma=-1.0)
        with pytest.raises(ValueError):
            SimParams(t_end=0.0)
        with pytest.raises(ValueError):
            SimParams(dt=-1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gamma", "t_end", "dt"])
    def test_rejects_non_finite_scalars(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            SimParams(**{name: bad})

    def test_is_a_value(self):
        a, b = SimParams(), SimParams()
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SimParams(gamma=1.0)}) == 2
        assert a != SimParams(dt=2e-3)

    def test_holds_only_the_detuning_independent_facts_by_keyword(self):
        # the detuning lives in the mixture; a positional call cannot shift onto gamma
        assert [f.name for f in dataclasses.fields(SimParams)] == ["gamma", "t_end", "dt"]
        with pytest.raises(TypeError):
            SimParams(0.0, 2.0)
        with pytest.raises(TypeError):
            SimParams(delta=0.0)

    # the detector grid is no SimParams field: these check its own check
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_omega(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_omega_grid([0.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            default_omega_grid(-1.0, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            default_omega_grid(-1.0, 1.0, bad)

    def test_rejects_non_divisible_window(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SimParams(t_end=1.0005, dt=1e-3 * 3)

    def test_rejects_unsorted_omega(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_omega_grid([0.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            # steps below the resolution of doubles near 1e16
            default_omega_grid(1e16, 1e16 + 2.0, 0.5)

    def test_time_grid(self):
        p = SimParams(t_end=0.01, dt=1e-3)
        g = np.zeros(p.n_steps + 1, complex)
        grid = CorrelationKernel(g, g, p, "x").theta_grid
        assert len(grid) == 11
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.01, abs=1e-15)

    def test_check_schedule_window_mismatch(self):
        p = SimParams(t_end=2.0)
        s = PulseSchedule(events=(), window_end=1.0)
        with pytest.raises(ValueError, match="window"):
            p.check_schedule(s)

    def test_check_schedule_coarse_dt_warns(self):
        p = SimParams(t_end=0.4, dt=0.1)
        s = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),), window_end=0.4)
        with pytest.warns(UserWarning, match="fewer than 10 steps"):
            p.check_schedule(s)

    @pytest.mark.parametrize("tau, dt, warns", [
        (0.01, 1e-3, False),  # the gaps round to 0.009999999999999787: ten steps
        (0.2, 0.02, False),
        (0.009, 1e-3, True),
        (0.0099, 1e-3, True),
    ])
    def test_check_schedule_ten_steps_per_gap_are_enough(self, tau, dt, warns):
        s = periodic_schedule([PulseAxis.X], tau, 240)
        p = SimParams(t_end=s.window_end, dt=dt)
        # pyproject.toml ignores this warning for the whole suite
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            p.check_schedule(s)
        assert any("fewer than 10 steps" in str(w.message) for w in seen) == warns


class TestMixture:
    def test_keeps_the_members_of_positive_weight_in_order(self):
        deltas, weights = check_mixture([4.0, 1.0, -2.0, 1.0], [0.0, 0.25, 0.75, 0.0])
        assert deltas.tolist() == [1.0, -2.0] and weights.tolist() == [0.25, 0.75]

    def test_a_single_detuning_is_the_one_point_mixture(self):
        deltas, weights = check_mixture([-0.0], [1.0])
        assert deltas.tolist() == [-0.0] and weights.tolist() == [1.0]
        assert np.signbit(deltas[0])


class TestResultTypes:
    def test_kernel_copies_the_callers_arrays(self):
        params = SimParams(t_end=0.01, dt=1e-3)
        g = np.ones(params.n_steps + 1, complex)
        kern = CorrelationKernel(g, g.copy(), params, "x")
        g[0] = 2.0  # the caller's arrays stay writable
        assert kern.g1[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            kern.g1[0] = 0.0

    def test_kernel_lives_on_the_run_time_grid(self):
        params = SimParams(t_end=0.01, dt=1e-3)
        g = np.ones(params.n_steps + 1, complex)
        kern = CorrelationKernel(g, g.copy(), params, "x")
        assert np.array_equal(kern.theta_grid, np.arange(params.n_steps + 1) * params.dt)
        with pytest.raises(AttributeError):
            kern.theta_grid = np.arange(params.n_steps + 1) * params.dt
        for n in (0, 1, params.n_steps, params.n_steps + 2):
            with pytest.raises(ValueError, match="n_steps"):
                CorrelationKernel(g[:1].repeat(n), g, params, "x")
            with pytest.raises(ValueError, match="n_steps"):
                CorrelationKernel(g, g[:1].repeat(n), params, "x")
        with pytest.raises(ValueError, match="n_steps"):
            CorrelationKernel(np.ones((2, g.size)), g, params, "x")

    def test_spectrum_copies_the_callers_arrays(self):
        omega, p = np.linspace(-1.0, 1.0, 5), np.ones(5)
        kernel = CorrelationKernel(np.zeros(2), np.zeros(2), SimParams(t_end=1.0, dt=1.0), "x")
        spec = SpectrumResult(omega, p, p.copy(), np.zeros(5), kernel)
        omega[0], p[0] = 9.0, 2.0
        assert (spec.omega[0], spec.emission[0]) == (-1.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            spec.emission[0] = 0.0
