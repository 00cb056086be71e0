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
    density_trajectory,
    no_drive_schedule,
    periodic_schedule,
    uhrig_schedule,
)
from pulsespec.core import TwoLevelOperator, validate_density
from pulsespec.dynamics import (
    _free_step,
    apply_pulse,
    evolve_operator,
    step_multipliers,
)

PAULI = {
    PulseAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PulseAxis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PulseAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|, basis (e, g)
STEPPERS = ("rk4", "exact")


def random_operator(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return TwoLevelOperator.from_matrix(m)


def lindblad_rhs(rho, delta, gamma):
    """-i[H, rho] + gamma D[sigma_-] rho with H = diag(+delta/2, -delta/2)."""
    h = np.diag([0.5 * delta, -0.5 * delta])
    s, sd = SIGMA_MINUS, SIGMA_MINUS.conj().T
    return (-1j * (h @ rho - rho @ h)
            + gamma * (s @ rho @ sd - 0.5 * (sd @ s @ rho + rho @ sd @ s)))


def rk4_oracle(rho, h, delta, gamma):
    """One generic classical Runge-Kutta step of ``lindblad_rhs``."""
    k1 = lindblad_rhs(rho, delta, gamma)
    k2 = lindblad_rhs(rho + 0.5 * h * k1, delta, gamma)
    k3 = lindblad_rhs(rho + 0.5 * h * k2, delta, gamma)
    k4 = lindblad_rhs(rho + h * k3, delta, gamma)
    return rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def exact_oracle(rho, h, delta, gamma):
    """Closed-form solution of ``lindblad_rhs`` after a time h."""
    decay = math.exp(-gamma * h)
    coh = cmath.exp((1j * delta - 0.5 * gamma) * h)
    (ee, eg), (ge, gg) = rho
    return np.array([[ee * decay, eg * coh.conjugate()],
                     [ge * coh, gg + ee * (1 - decay)]])


ORACLES = {"rk4": rk4_oracle, "exact": exact_oracle}


def free_step(op, h, delta, gamma, stepper):
    """``_free_step`` with the rates given directly."""
    params = SimParams(delta=delta, gamma=gamma, t_end=1.0, dt=0.5)
    return _free_step(op, h, params, stepper)


def assert_matches_oracle(op, h, delta, gamma, stepper, tol=1e-15):
    out = free_step(op, h, delta, gamma, stepper).as_matrix()
    ref = ORACLES[stepper](op.as_matrix(), h, delta, gamma)
    assert np.max(np.abs(out - ref)) < tol


class TestFreeDerivative:
    """The generator of ``_free_step`` is the Lindblad right-hand side."""

    def test_population_decay(self):
        d = lindblad_rhs(TwoLevelOperator(ee=1).as_matrix(), 0.0, 2.0)
        assert np.array_equal(d, [[-2.0, 0], [0, 2.0]])
        for stepper in STEPPERS:
            assert_matches_oracle(TwoLevelOperator(ee=1), 1e-3, 0.0, 2.0, stepper)

    def test_coherence_rotation(self):
        # convention: d(ge)/dt = (i*delta - gamma/2)*ge
        d = lindblad_rhs(TwoLevelOperator(ge=1).as_matrix(), 3.0, 2.0)
        assert d[1, 0] == pytest.approx(3j - 1)
        assert d[0, 1] == d[0, 0] == d[1, 1] == 0
        for stepper in STEPPERS:
            assert_matches_oracle(TwoLevelOperator(ge=1), 1e-3, 3.0, 2.0, stepper)
            out = free_step(TwoLevelOperator(ge=1), 1e-3, 3.0, 2.0, stepper)
            assert np.angle(out.ge) == pytest.approx(3e-3)
            assert out.eg == 0

    def test_conjugate_coherence(self):
        d = lindblad_rhs(TwoLevelOperator(eg=1).as_matrix(), 3.0, 2.0)
        assert d[0, 1] == pytest.approx(-3j - 1)
        for stepper in STEPPERS:
            assert_matches_oracle(TwoLevelOperator(eg=1), 1e-3, 3.0, 2.0, stepper)
            out = free_step(TwoLevelOperator(eg=1), 1e-3, 3.0, 2.0, stepper)
            assert np.angle(out.eg) == pytest.approx(-3e-3)

    def test_zero_operator(self):
        for stepper in STEPPERS:
            assert free_step(TwoLevelOperator(), 1e-3, 1.0, 2.0,
                             stepper) == TwoLevelOperator()

    def test_rejects_nonpositive_gamma(self):
        # the rates reach _free_step only through SimParams
        for gamma in (0.0, -2.0):
            with pytest.raises(ValueError, match="gamma"):
                SimParams(delta=0.0, gamma=gamma)


class TestExactPropagator:
    def test_population_decay(self):
        out = free_step(TwoLevelOperator(ee=1), 1.0, 0.0, 2.0, "exact")
        assert out.ee == pytest.approx(math.exp(-2.0))
        assert out.gg == pytest.approx(1 - math.exp(-2.0))
        assert_matches_oracle(TwoLevelOperator(ee=1), 1.0, 0.0, 2.0, "exact")

    def test_coherence_phase_and_damping(self):
        out = free_step(TwoLevelOperator(ge=1), 0.5, 3.0, 2.0, "exact")
        assert abs(out.ge) == pytest.approx(math.exp(-0.5))
        assert np.angle(out.ge) == pytest.approx(1.5)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng)
        for stepper in STEPPERS:
            assert free_step(op, 0.0, 2.5, 2.0, stepper) == op

    def test_trace_preserved(self):
        op = TwoLevelOperator(ee=0.3, gg=0.7)
        for stepper in STEPPERS:
            out = free_step(op, 0.8, 1.0, 2.0, stepper)
            assert out.trace == pytest.approx(1.0, abs=1e-15)


class TestRK4:
    def test_matches_exponential_decay(self):
        out = free_step(TwoLevelOperator(ee=1), 1e-3, 0.0, 2.0, "rk4")
        assert abs(out.ee - math.exp(-2e-3)) < 1e-12

    def test_zero_operator(self):
        assert free_step(TwoLevelOperator(), 1e-3, 1.0, 2.0,
                         "rk4") == TwoLevelOperator()

    def test_fourth_order_convergence(self):
        # halving dt must shrink the error vs the closed form ~16x
        op0 = TwoLevelOperator(ee=0.6, eg=0.2 + 0.1j, ge=0.2 - 0.1j, gg=0.4)
        t_end, errs = 0.5, []
        for dt in (4e-3, 2e-3, 1e-3):
            a, b = op0, op0.as_matrix()
            for _ in range(round(t_end / dt)):
                a = free_step(a, dt, 6.0, 2.0, "rk4")
                b = exact_oracle(b, dt, 6.0, 2.0)
            errs.append(np.max(np.abs(a.as_matrix() - b)))
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert order >= 3.9

    @pytest.mark.parametrize("stepper", STEPPERS)
    def test_step_multipliers_reproduce_steppers(self, stepper):
        rng = np.random.default_rng(11)
        op = random_operator(rng)
        h, delta, gamma = 7e-4, 4.2, 2.0
        decay, phase = step_multipliers(h, delta, gamma, stepper)
        ref = ORACLES[stepper](op.as_matrix(), h, delta, gamma)
        assert abs(op.ee * decay - ref[0, 0]) < 1e-15
        assert abs(op.gg + (1 - decay) * op.ee - ref[1, 1]) < 1e-15
        assert abs(op.ge * phase - ref[1, 0]) < 1e-15
        assert abs(op.eg * phase.conjugate() - ref[0, 1]) < 1e-15
        assert_matches_oracle(op, h, delta, gamma, stepper)


class TestApplyPulse:
    def test_x_inverts_populations(self):
        out = apply_pulse(TwoLevelOperator(ee=1), PulseAxis.X)
        assert (out.ee, out.gg) == (0, 1)

    def test_z_flips_coherences_only(self):
        op = TwoLevelOperator(ee=0.3, gg=0.7, eg=0.5, ge=0.5)
        out = apply_pulse(op, PulseAxis.Z)
        assert (out.eg, out.ge) == (-0.5, -0.5)
        assert (out.ee, out.gg) == (0.3, 0.7)

    def test_y_example(self):
        op = TwoLevelOperator(ee=0.3, gg=0.7, eg=0.2j, ge=-0.2j)
        out = apply_pulse(op, PulseAxis.Y)
        assert (out.ee, out.gg) == (0.7, 0.3)
        assert out.eg == 0.2j and out.ge == -0.2j

    @pytest.mark.parametrize("axis", list(PulseAxis))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pauli_conjugation(self, axis, seed):
        rng = np.random.default_rng(1000 * seed + 1)
        op = random_operator(rng)
        expect = PAULI[axis] @ op.as_matrix() @ PAULI[axis]
        assert np.allclose(apply_pulse(op, axis).as_matrix(), expect, atol=1e-15)

    @pytest.mark.parametrize("axis", list(PulseAxis))
    def test_involution(self, axis):
        rng = np.random.default_rng(42)
        op = random_operator(rng)
        assert apply_pulse(apply_pulse(op, axis), axis) == op

    @pytest.mark.parametrize("axis", list(PulseAxis))
    def test_preserves_trace_and_hermiticity(self, axis):
        op = TwoLevelOperator(ee=0.4, gg=0.6, eg=0.2 + 0.1j, ge=0.2 - 0.1j)
        out = apply_pulse(op, axis)
        assert out.trace == op.trace
        assert validate_density(out, tol=1e-12)


class TestEvolveOperator:
    def setup_method(self):
        self.params = SimParams(delta=0.0, gamma=2.0, t_end=2.0, dt=1e-3)

    def test_free_decay(self):
        sched = no_drive_schedule(2.0)
        out = evolve_operator(TwoLevelOperator(ee=1), 0.0, 2.0, sched, self.params)
        assert out.ee == pytest.approx(math.exp(-4.0), rel=1e-10)

    def test_single_x_pulse_matches_exact_composition(self):
        # oracle: exact propagator, pulse map, exact propagator
        sched = PulseSchedule(events=(PulseEvent(1.0, PulseAxis.X),),
                              window_end=2.0)
        out = evolve_operator(TwoLevelOperator(ee=1), 0.0, 2.0, sched, self.params)
        x = PAULI[PulseAxis.X]
        half = exact_oracle(TwoLevelOperator(ee=1).as_matrix(), 1.0, 0.0, 2.0)
        ref = TwoLevelOperator.from_matrix(exact_oracle(x @ half @ x, 1.0, 0.0, 2.0))
        assert out.ee == pytest.approx(ref.ee, abs=1e-10)
        assert out.ee == pytest.approx((1 - math.exp(-2.0)) * math.exp(-2.0),
                                       abs=1e-9)

    def test_chained_halves_match_single_run(self):
        sched = uhrig_schedule(4, 2.0)
        params = SimParams(delta=2.0, gamma=2.0, t_end=2.0, dt=1e-3)
        full = evolve_operator(TwoLevelOperator(ee=1), 0.0, 2.0, sched, params)
        half = evolve_operator(TwoLevelOperator(ee=1), 0.0, 1.0, sched, params)
        again = evolve_operator(half, 1.0, 2.0, sched, params)
        for name in ("ee", "eg", "ge", "gg"):
            assert abs(getattr(full, name) - getattr(again, name)) < 1e-12

    def test_boundary_convention(self):
        # a pulse exactly at the split point acts in the first leg only
        sched = PulseSchedule(events=(PulseEvent(1.0, PulseAxis.X),),
                              window_end=2.0)
        first = evolve_operator(TwoLevelOperator(ee=1), 0.0, 1.0, sched, self.params)
        assert first.ee == pytest.approx(1 - math.exp(-2.0), rel=1e-9)  # post-pulse
        second = evolve_operator(first, 1.0, 2.0, sched, self.params)
        full = evolve_operator(TwoLevelOperator(ee=1), 0.0, 2.0, sched, self.params)
        assert abs(second.ee - full.ee) < 1e-14

    def test_rejects_reversed_interval(self):
        sched = no_drive_schedule(2.0)
        with pytest.raises(ValueError, match="t_from"):
            evolve_operator(TwoLevelOperator(ee=1), 1.5, 1.0, sched, self.params)

    def test_linearity(self):
        sched = periodic_schedule([PulseAxis.X, PulseAxis.Y], 0.25, 4)
        params = SimParams(delta=1.5, gamma=2.0, t_end=1.0, dt=1e-3)
        rng = np.random.default_rng(3)
        a, b = random_operator(rng), random_operator(rng)
        al, be = 0.7, -1.3 + 0.4j
        combo = TwoLevelOperator(
            ee=al * a.ee + be * b.ee, eg=al * a.eg + be * b.eg,
            ge=al * a.ge + be * b.ge, gg=al * a.gg + be * b.gg)
        ea = evolve_operator(a, 0.0, 1.0, sched, params)
        eb = evolve_operator(b, 0.0, 1.0, sched, params)
        ec = evolve_operator(combo, 0.0, 1.0, sched, params)
        for name in ("ee", "eg", "ge", "gg"):
            want = al * getattr(ea, name) + be * getattr(eb, name)
            assert abs(getattr(ec, name) - want) < 1e-12


class TestDensityTrajectory:
    def test_free_decay_grid_values(self):
        params = SimParams(delta=0.0, gamma=2.0, t_end=2.0, dt=1e-3)
        traj = density_trajectory(no_drive_schedule(2.0), params)
        assert np.max(np.abs(traj.ee - np.exp(-2.0 * traj.t_grid))) < 1e-9

    def test_x_train_populations_swap(self):
        params = SimParams(delta=0.0, gamma=2.0, t_end=1.0, dt=1e-3)
        traj = density_trajectory(periodic_schedule([PulseAxis.X], 0.5, 2), params)
        k = round(0.5 / params.dt)
        # the stored value at k is post-pulse
        assert traj.ee[k] == pytest.approx(traj.gg[k - 1], abs=5e-3)
        assert traj.ee[k] == pytest.approx(1 - math.exp(-1.0), abs=1e-3)

    def test_z_train_leaves_populations_free(self):
        params = SimParams(delta=1.0, gamma=2.0, t_end=1.2, dt=1e-3)
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
        params = SimParams(delta=3.0, gamma=2.0, t_end=1.0, dt=1e-3)
        traj = density_trajectory(sched, params)
        for ee, gg in zip(traj.ee[::50], traj.gg[::50]):
            assert validate_density(TwoLevelOperator(ee=ee, gg=gg), tol=1e-9)
            assert -1e-12 <= ee <= 1 + 1e-12

    def test_exact_stepper_agrees_with_rk4(self):
        params = SimParams(delta=6.0, gamma=2.0, t_end=2.0, dt=1e-3)
        sched = uhrig_schedule(6, 2.0)
        t1 = density_trajectory(sched, params, stepper="rk4")
        t2 = density_trajectory(sched, params, stepper="exact")
        worst = max(np.max(np.abs(t1.ee - t2.ee)), np.max(np.abs(t1.gg - t2.gg)))
        assert worst < 1e-10
