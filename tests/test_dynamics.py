"""Free evolution, pulse maps, and the piecewise integrator."""

import cmath
import math

import numpy as np
import pytest

from pulsespec import (
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    accumulate_kernel,
    density_trajectory,
    no_drive_schedule,
    periodic_schedule,
    uhrig_schedule,
)
from pulsespec.dynamics import apply_pulse, stable_step, step_multipliers

from oracles import (
    PAULI,
    _free_step,
    evolve_operator,
    lindblad_rhs,
    op,
    rk4_oracle,
    validate_density,
)


def state(m):
    """The pipeline state (ee, gg, ge, eg) of a 2x2 matrix."""
    return m[0, 0], m[1, 1], m[1, 0], m[0, 1]


def matrix(s):
    """The 2x2 matrix of a pipeline state (ee, gg, ge, eg)."""
    ee, gg, ge, eg = s
    return op(ee=ee, eg=eg, ge=ge, gg=gg)


def random_operator(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def exact_oracle(rho, h, delta, gamma):
    """Closed-form solution of ``lindblad_rhs`` after a time h."""
    decay = math.exp(-gamma * h)
    coh = cmath.exp((1j * delta - 0.5 * gamma) * h)
    (ee, eg), (ge, gg) = rho
    return np.array([[ee * decay, eg * coh.conjugate()],
                     [ge * coh, gg + ee * (1 - decay)]])


def free_step(m, h, delta, gamma):
    """``_free_step`` on a matrix."""
    return matrix(_free_step(state(m), h, delta, gamma))


def assert_matches_oracle(m, h, delta, gamma, tol=1e-15):
    out = free_step(m, h, delta, gamma)
    ref = rk4_oracle(m, h, delta, gamma)
    assert np.max(np.abs(out - ref)) < tol


class TestFreeDerivative:
    """The generator of ``_free_step`` is the Lindblad right-hand side."""

    def test_population_decay(self):
        d = lindblad_rhs(op(ee=1), 0.0, 2.0)
        assert np.array_equal(d, [[-2.0, 0], [0, 2.0]])
        assert_matches_oracle(op(ee=1), 1e-3, 0.0, 2.0)

    def test_coherence_rotation(self):
        # convention: d(ge)/dt = (i*delta - gamma/2)*ge
        d = lindblad_rhs(op(ge=1), 3.0, 2.0)
        assert d[1, 0] == pytest.approx(3j - 1)
        assert d[0, 1] == d[0, 0] == d[1, 1] == 0
        assert_matches_oracle(op(ge=1), 1e-3, 3.0, 2.0)
        out = free_step(op(ge=1), 1e-3, 3.0, 2.0)
        assert np.angle(out[1, 0]) == pytest.approx(3e-3)
        assert out[0, 1] == 0

    def test_conjugate_coherence(self):
        d = lindblad_rhs(op(eg=1), 3.0, 2.0)
        assert d[0, 1] == pytest.approx(-3j - 1)
        assert_matches_oracle(op(eg=1), 1e-3, 3.0, 2.0)
        out = free_step(op(eg=1), 1e-3, 3.0, 2.0)
        assert np.angle(out[0, 1]) == pytest.approx(-3e-3)

    def test_zero_operator(self):
        assert np.array_equal(free_step(op(), 1e-3, 1.0, 2.0), op())

    def test_rejects_nonpositive_gamma(self):
        # on the pipeline path the rates reach _free_step from SimParams
        for gamma in (0.0, -2.0):
            with pytest.raises(ValueError, match="gamma"):
                SimParams(gamma=gamma)


class TestRK4:
    def test_matches_exponential_decay(self):
        out = free_step(op(ee=1), 1e-3, 0.0, 2.0)
        assert abs(out[0, 0] - math.exp(-2e-3)) < 1e-12

    def test_zero_operator(self):
        assert np.array_equal(free_step(op(), 1e-3, 1.0, 2.0), op())

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(7)
        m = random_operator(rng)
        assert np.array_equal(free_step(m, 0.0, 2.5, 2.0), m)

    def test_trace_preserved(self):
        out = free_step(op(ee=0.3, gg=0.7), 0.8, 1.0, 2.0)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-15)

    def test_fourth_order_convergence(self):
        # halving dt must shrink the error vs the closed form ~16x
        m0 = op(ee=0.6, eg=0.2 + 0.1j, ge=0.2 - 0.1j, gg=0.4)
        t_end, errs = 0.5, []
        for dt in (4e-3, 2e-3, 1e-3):
            a, b = m0, m0
            for _ in range(round(t_end / dt)):
                a = free_step(a, dt, 6.0, 2.0)
                b = exact_oracle(b, dt, 6.0, 2.0)
            errs.append(np.max(np.abs(a - b)))
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert order >= 3.9

    def test_step_multipliers_reproduce_rk4(self):
        rng = np.random.default_rng(11)
        m = random_operator(rng)
        (ee, eg), (ge, gg) = m
        h, delta, gamma = 7e-4, 4.2, 2.0
        decay, phase = step_multipliers(h, delta, gamma)
        ref = rk4_oracle(m, h, delta, gamma)
        assert abs(ee * decay - ref[0, 0]) < 1e-15
        assert abs(gg + (1 - decay) * ee - ref[1, 1]) < 1e-15
        assert abs(ge * phase - ref[1, 0]) < 1e-15
        assert abs(eg * phase.conjugate() - ref[0, 1]) < 1e-15
        assert_matches_oracle(m, h, delta, gamma)


class TestStableStep:
    def test_returns_the_step_multipliers(self):
        deltas = np.array([0.0, 2.5, -800.0])
        for gamma in (2.0, 2700.0):
            decay, phase = stable_step(1e-3, deltas, gamma)
            want = step_multipliers(1e-3, deltas, gamma)
            assert decay == want[0] and np.array_equal(phase, want[1])

    @pytest.mark.parametrize("deltas, gamma, named", [
        ([0.0, 3000.0], 2.0, "|delta|=3000"),
        ([1e300], 2.0, "|delta|=1e+300"),
        ([0.0], 5000.0, "gamma=5000,"),
        ([0.0], 2800.0, "gamma=2800,"),  # decay 1.02; at gamma*dt = 2.7 it is 0.88
    ])
    def test_rejects_steps_that_do_not_contract(self, deltas, gamma, named):
        with pytest.raises(ValueError, match="outside the RK4 stability region") as info:
            stable_step(1e-3, deltas, gamma)
        assert named in str(info.value)

    @pytest.mark.parametrize("deltas, gamma, rounded", [
        ([], 1e-14, True),  # the decay rounds to 1
        ([0.0, 1500.0], 1e-14, True),  # |w| = 1.5 > 1, but that phase contracts
        ([0.0], 1e-13, True),  # the decay is below 1, |phase| rounds to 1
        ([1e300], 1e-14, False),  # a phase outside the region is named first
    ])
    def test_names_a_factor_rounded_to_one(self, deltas, gamma, rounded):
        with pytest.raises(ValueError) as info:
            stable_step(1e-3, deltas, gamma)
        assert ("rounds an RK4 step factor to 1" in str(info.value)) == rounded
        assert ("outside the RK4 stability region" in str(info.value)) != rounded

    def test_guards_the_pipeline(self):
        params = SimParams(t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError, match=r"\|delta\|=3000"):
            accumulate_kernel(no_drive_schedule(1.0), params, [3000.0], [1.0])
        with pytest.raises(ValueError, match=r"gamma=2800,"):
            density_trajectory(no_drive_schedule(1.0), SimParams(gamma=2800.0, t_end=1.0))


class TestApplyPulse:
    def test_x_inverts_populations(self):
        ee, gg, _, _ = apply_pulse(state(op(ee=1)), PulseAxis.X)
        assert (ee, gg) == (0, 1)

    def test_z_flips_coherences_only(self):
        out = apply_pulse(state(op(ee=0.3, gg=0.7, eg=0.5, ge=0.5)), PulseAxis.Z)
        assert out == (0.3, 0.7, -0.5, -0.5)

    def test_y_example(self):
        m = op(ee=0.3, gg=0.7, eg=0.2j, ge=-0.2j)
        ee, gg, ge, eg = apply_pulse(state(m), PulseAxis.Y)
        assert (ee, gg) == (0.7, 0.3)
        assert eg == 0.2j and ge == -0.2j

    @pytest.mark.parametrize("axis", list(PulseAxis))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pauli_conjugation(self, axis, seed):
        rng = np.random.default_rng(1000 * seed + 1)
        m = random_operator(rng)
        expect = PAULI[axis] @ m @ PAULI[axis]
        assert np.allclose(matrix(apply_pulse(state(m), axis)), expect, atol=1e-15)

    @pytest.mark.parametrize("axis", list(PulseAxis))
    def test_involution(self, axis):
        rng = np.random.default_rng(42)
        s = state(random_operator(rng))
        assert apply_pulse(apply_pulse(s, axis), axis) == s

    @pytest.mark.parametrize("axis", list(PulseAxis))
    def test_preserves_trace_and_hermiticity(self, axis):
        m = op(ee=0.4, gg=0.6, eg=0.2 + 0.1j, ge=0.2 - 0.1j)
        out = matrix(apply_pulse(state(m), axis))
        assert np.trace(out) == np.trace(m)
        assert validate_density(out, tol=1e-12)


class TestEvolveOperator:
    """The oracle's own integrator: pulses split the lattice intervals."""

    def setup_method(self):
        self.params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)

    def test_free_decay(self):
        sched = no_drive_schedule(2.0)
        out = evolve_operator(op(ee=1), 0.0, 2.0, sched, self.params, 0.0)
        assert out[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-10)

    def test_single_x_pulse_matches_exact_composition(self):
        # oracle: exact propagator, pulse map, exact propagator
        sched = PulseSchedule(events=(PulseEvent(1.0, PulseAxis.X),),
                              window_end=2.0)
        out = evolve_operator(op(ee=1), 0.0, 2.0, sched, self.params, 0.0)
        x = PAULI[PulseAxis.X]
        half = exact_oracle(op(ee=1), 1.0, 0.0, 2.0)
        ref = exact_oracle(x @ half @ x, 1.0, 0.0, 2.0)
        assert out[0, 0] == pytest.approx(ref[0, 0], abs=1e-10)
        assert out[0, 0] == pytest.approx((1 - math.exp(-2.0)) * math.exp(-2.0),
                                          abs=1e-9)

    def test_chained_halves_match_single_run(self):
        sched = uhrig_schedule(4, 2.0)
        params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)
        full = evolve_operator(op(ee=1), 0.0, 2.0, sched, params, 2.0)
        half = evolve_operator(op(ee=1), 0.0, 1.0, sched, params, 2.0)
        again = evolve_operator(half, 1.0, 2.0, sched, params, 2.0)
        assert np.max(np.abs(full - again)) < 1e-12

    def test_boundary_convention(self):
        # a pulse exactly at the split point acts in the first leg only
        sched = PulseSchedule(events=(PulseEvent(1.0, PulseAxis.X),),
                              window_end=2.0)
        first = evolve_operator(op(ee=1), 0.0, 1.0, sched, self.params, 0.0)
        assert first[0, 0] == pytest.approx(1 - math.exp(-2.0), rel=1e-9)  # post-pulse
        second = evolve_operator(first, 1.0, 2.0, sched, self.params, 0.0)
        full = evolve_operator(op(ee=1), 0.0, 2.0, sched, self.params, 0.0)
        assert abs(second[0, 0] - full[0, 0]) < 1e-14

    def test_rejects_reversed_interval(self):
        sched = no_drive_schedule(2.0)
        with pytest.raises(ValueError, match="t_from"):
            evolve_operator(op(ee=1), 1.5, 1.0, sched, self.params, 0.0)

    def test_linearity(self):
        sched = periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.25, 4)
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        rng = np.random.default_rng(3)
        a, b = random_operator(rng), random_operator(rng)
        al, be = 0.7, -1.3 + 0.4j
        ea = evolve_operator(a, 0.0, 1.0, sched, params, 1.5)
        eb = evolve_operator(b, 0.0, 1.0, sched, params, 1.5)
        ec = evolve_operator(al * a + be * b, 0.0, 1.0, sched, params, 1.5)
        assert np.max(np.abs(ec - (al * ea + be * eb))) < 1e-12


class TestDensityTrajectory:
    def test_free_decay_grid_values(self):
        params = SimParams(gamma=2.0, t_end=2.0, dt=1e-3)
        traj = density_trajectory(no_drive_schedule(2.0), params)
        assert np.max(np.abs(traj.ee - np.exp(-2.0 * traj.t_grid))) < 1e-9

    def test_x_train_populations_swap(self):
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        traj = density_trajectory(periodic_schedule([PulseAxis.X], 0.5, 2), params)
        k = round(0.5 / params.dt)
        # the stored value at k is post-pulse
        assert traj.ee[k] == pytest.approx(traj.gg[k - 1], abs=5e-3)
        assert traj.ee[k] == pytest.approx(1 - math.exp(-1.0), abs=1e-3)

    def test_z_train_leaves_populations_free(self):
        params = SimParams(gamma=2.0, t_end=1.2, dt=1e-3)
        with_z = density_trajectory(periodic_schedule([PulseAxis.Z], 0.2, 6), params)
        free = density_trajectory(no_drive_schedule(1.2), params)
        # pulse times split the step walk, so only ulp-level differences remain
        assert np.max(np.abs(with_z.ee - free.ee)) < 1e-14

    @pytest.mark.parametrize("make", [
        lambda: no_drive_schedule(1.0),
        lambda: periodic_schedule([PulseAxis.X], 0.2, 5),
        lambda: periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.2, 5),
        lambda: periodic_schedule([PulseAxis.Z], 0.2, 5),
        lambda: uhrig_schedule(5, 1.0),
    ])
    def test_states_stay_physical(self, make):
        sched = make()
        params = SimParams(gamma=2.0, t_end=1.0, dt=1e-3)
        traj = density_trajectory(sched, params)
        for ee, gg in zip(traj.ee[::50], traj.gg[::50]):
            assert validate_density(op(ee=ee, gg=gg), tol=1e-9)
            assert -1e-12 <= ee <= 1 + 1e-12
