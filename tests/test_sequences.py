"""Schedule generators: periodic trains, Uhrig timing, free decay."""

import math

import numpy as np
import pytest

from pulsespec import (
    PulseAxis,
    no_drive_schedule,
    periodic_schedule,
    uhrig_schedule,
)


class TestPeriodic:
    def test_single_axis_times(self):
        s = periodic_schedule([PulseAxis.X], tau=0.2, n_pulses=3)
        assert [ev.axis for ev in s.events] == [PulseAxis.X] * 3
        assert np.allclose([ev.time for ev in s.events], [0.2, 0.4, 0.6])
        assert s.window_end == pytest.approx(0.6)

    def test_alternating_pattern(self):
        s = periodic_schedule([PulseAxis.X, PulseAxis.Y], tau=0.2, n_pulses=4)
        assert [ev.axis for ev in s.events] == [
            PulseAxis.X, PulseAxis.Y, PulseAxis.X, PulseAxis.Y]
        assert np.allclose([ev.time for ev in s.events], [0.2, 0.4, 0.6, 0.8])
        assert s.window_end == pytest.approx(0.8)

    def test_alternation_parity(self):
        s = periodic_schedule([PulseAxis.X, PulseAxis.Y], tau=0.1, n_pulses=9)
        for i, ev in enumerate(s.events, start=1):
            assert ev.axis is (PulseAxis.X if i % 2 == 1 else PulseAxis.Y)

    def test_z_train(self):
        s = periodic_schedule([PulseAxis.Z], tau=0.1, n_pulses=24)
        assert len(s.events) == 24
        assert all(ev.axis is PulseAxis.Z for ev in s.events)
        assert s.window_end == pytest.approx(2.4)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            periodic_schedule([PulseAxis.X], tau=0.0, n_pulses=3)
        with pytest.raises(ValueError):
            periodic_schedule([PulseAxis.X], tau=0.2, n_pulses=0)
        with pytest.raises(ValueError):
            periodic_schedule([], tau=0.2, n_pulses=3)


class TestUhrig:
    def test_two_pulse_times(self):
        s = uhrig_schedule(2, 1.0)
        times = [ev.time for ev in s.events]
        assert times == pytest.approx([0.25, 0.75])

    def test_single_pulse_at_midpoint(self):
        s = uhrig_schedule(1, 2.0)
        assert [ev.time for ev in s.events] == pytest.approx([1.0])

    def test_twelve_pulses_cluster_near_ends(self):
        s = uhrig_schedule(12, 2.0)
        t = np.array([ev.time for ev in s.events])
        assert len(t) == 12
        assert np.all(np.diff(t) > 0)
        gaps = np.diff(np.concatenate(([0.0], t, [2.0])))
        # sine-squared spacing: sparse in the middle, dense at both ends
        assert gaps[0] < gaps[len(gaps) // 2]
        assert gaps[-1] < gaps[len(gaps) // 2]
        assert all(ev.axis is PulseAxis.X for ev in s.events)

    @pytest.mark.parametrize("n,t_end", [(3, 1.0), (8, 2.0), (12, 2.0)])
    def test_symmetric_about_midpoint(self, n, t_end):
        times = [ev.time for ev in uhrig_schedule(n, t_end).events]
        for j in range(n):
            assert times[j] + times[n - 1 - j] == pytest.approx(t_end)

    def test_matches_sine_squared_formula(self):
        n, t_end = 7, 3.0
        times = [ev.time for ev in uhrig_schedule(n, t_end).events]
        for j, t in enumerate(times, start=1):
            assert t == pytest.approx(t_end * math.sin(j * math.pi / (2 * (n + 1))) ** 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            uhrig_schedule(0, 1.0)
        with pytest.raises(ValueError):
            uhrig_schedule(4, 0.0)


class TestNoDrive:
    def test_empty_events(self):
        s = no_drive_schedule(10.0)
        assert s.events == ()
        assert s.window_end == 10.0

    def test_short_window(self):
        assert no_drive_schedule(2.4).window_end == pytest.approx(2.4)

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            no_drive_schedule(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_builders_reject_non_finite_times(bad):
    with pytest.raises(ValueError, match="finite"):
        periodic_schedule([PulseAxis.X], tau=bad, n_pulses=3)
    with pytest.raises(ValueError, match="finite"):
        uhrig_schedule(4, bad)
    with pytest.raises(ValueError, match="finite"):
        no_drive_schedule(bad)
