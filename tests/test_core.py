"""Core types: density validation, regression seeds, schedules, parameters."""

import numpy as np
import pytest

from pulsespec import (
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    default_omega_grid,
)
from pulsespec.core import (
    TwoLevelOperator,
    left_mul_sigma_minus,
    right_mul_sigma_minus,
    validate_density,
)

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)


def random_physical_rho(rng):
    p = rng.uniform(0.0, 1.0)
    # coherence bounded by sqrt(p(1-p)) keeps the state positive
    r = rng.uniform(0.0, np.sqrt(p * (1 - p)))
    phi = rng.uniform(0, 2 * np.pi)
    c = r * np.exp(1j * phi)
    return TwoLevelOperator(ee=p, eg=c, ge=np.conj(c), gg=1 - p)


class TestValidateDensity:
    def test_excited_state(self):
        op = TwoLevelOperator(ee=1, gg=0)
        assert validate_density(op, tol=1e-12)

    def test_hermitian_half_half(self):
        op = TwoLevelOperator(ee=0.5, gg=0.5, eg=0.1 + 0.2j, ge=0.1 - 0.2j)
        assert validate_density(op, tol=1e-12)

    def test_trace_violation(self):
        op = TwoLevelOperator(ee=0.7, gg=0.5)
        assert not validate_density(op, tol=1e-12)

    def test_non_hermitian(self):
        op = TwoLevelOperator(ee=0.5, gg=0.5, eg=0.1, ge=0.2)
        assert not validate_density(op, tol=1e-12)

    def test_population_out_of_range(self):
        op = TwoLevelOperator(ee=1.2, gg=-0.2)
        assert not validate_density(op, tol=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            validate_density(TwoLevelOperator(ee=1), tol=0.0)


class TestRegressionSeeds:
    def test_left_mul_excited(self):
        out = left_mul_sigma_minus(TwoLevelOperator(ee=1))
        assert (out.ge, out.ee, out.eg, out.gg) == (1, 0, 0, 0)

    def test_left_mul_ground_annihilates(self):
        out = left_mul_sigma_minus(TwoLevelOperator(gg=1))
        assert out == TwoLevelOperator()

    def test_left_mul_coherence(self):
        rho = TwoLevelOperator(ee=0.4, eg=0.3j, ge=-0.3j, gg=0.6)
        out = left_mul_sigma_minus(rho)
        assert out.gg == 0.3j and out.ge == 0.4 and out.ee == 0 and out.eg == 0

    def test_right_mul_ground(self):
        out = right_mul_sigma_minus(TwoLevelOperator(gg=1))
        assert (out.ge, out.ee, out.eg, out.gg) == (1, 0, 0, 0)

    def test_right_mul_excited_annihilates(self):
        out = right_mul_sigma_minus(TwoLevelOperator(ee=1))
        assert out == TwoLevelOperator()

    def test_right_mul_coherence(self):
        rho = TwoLevelOperator(ee=0.5, eg=0.5, ge=0.5, gg=0.5)
        out = right_mul_sigma_minus(rho)
        assert out.ee == 0.5 and out.ge == 0.5 and out.eg == 0 and out.gg == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = TwoLevelOperator.from_matrix(m)
        left = left_mul_sigma_minus(rho).as_matrix()
        right = right_mul_sigma_minus(rho).as_matrix()
        assert np.allclose(left, SIGMA_MINUS @ m, atol=0)
        assert np.allclose(right, m @ SIGMA_MINUS, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identities(self, seed):
        # Tr[sigma_+ (sigma_- rho)] = rho_ee and (rho sigma_-).ge = rho_gg
        rng = np.random.default_rng(100 + seed)
        rho = random_physical_rho(rng)
        left = left_mul_sigma_minus(rho)
        assert np.trace(SIGMA_PLUS @ left.as_matrix()) == pytest.approx(rho.ee)
        assert left.ge == rho.ee
        assert right_mul_sigma_minus(rho).ge == rho.gg


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
            SimParams(delta=0, gamma=-1.0)
        with pytest.raises(ValueError):
            SimParams(delta=0, t_end=0.0)
        with pytest.raises(ValueError):
            SimParams(delta=0, dt=-1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["delta", "gamma", "t_end", "dt"])
    def test_rejects_non_finite_scalars(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            SimParams(**{"delta": 0.0, name: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_omega(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SimParams(delta=0, omega_grid=[0.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            default_omega_grid(-1.0, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            default_omega_grid(-1.0, 1.0, bad)

    def test_rejects_non_divisible_window(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SimParams(delta=0, t_end=1.0005, dt=1e-3 * 3)

    def test_rejects_unsorted_omega(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SimParams(delta=0, omega_grid=[0.0, 1.0, 0.5])

    def test_time_grid(self):
        p = SimParams(delta=0, t_end=0.01, dt=1e-3)
        grid = p.time_grid()
        assert len(grid) == 11
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.01, abs=1e-15)

    def test_check_schedule_window_mismatch(self):
        p = SimParams(delta=0, t_end=2.0)
        s = PulseSchedule(events=(), window_end=1.0)
        with pytest.raises(ValueError, match="window"):
            p.check_schedule(s)

    def test_check_schedule_coarse_dt_warns(self):
        p = SimParams(delta=0, t_end=0.4, dt=0.1)
        s = PulseSchedule(events=(PulseEvent(0.2, PulseAxis.X),), window_end=0.4)
        with pytest.warns(UserWarning, match="fewer than 10 steps"):
            p.check_schedule(s)
