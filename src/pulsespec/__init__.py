"""Emission and net-absorption spectra of a pulse-driven two-level emitter.

The pipeline: build a pulse schedule, evolve the density matrix over the
observation window, reduce the two-time correlators to theta kernels via
the regression recipe, and Fourier-transform onto a detector grid, which
only the transform takes.

>>> from pulsespec import *
>>> sched = periodic_schedule([PulseAxis.Z], tau=0.2, n_pulses=12)
>>> params = SimParams(t_end=2.4)
>>> grid = default_omega_grid()
>>> spec = spectrum_from_kernel(accumulate_kernel(sched, params, [3.0], [1.0]), grid)
>>> lhs, rhs = emission_sum_rule(spec)
>>> spec.kernel.params  # the run's facts ride on its kernel
SimParams(gamma=2.0, t_end=2.4, dt=0.001)
>>> avg = detuning_average(sched, params, [2.0, 4.0], [0.5, 0.5], grid)
"""

from .core import (
    CorrelationKernel,
    PulseAxis,
    PulseEvent,
    PulseSchedule,
    SimParams,
    SpectrumResult,
    default_omega_grid,
)
from .correlations import accumulate_kernel
from .dynamics import density_trajectory
from .sequences import no_drive_schedule, periodic_schedule, uhrig_schedule
from .spectra import (
    detuning_average,
    emission_sum_rule,
    spectrum_from_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationKernel",
    "PulseAxis",
    "PulseEvent",
    "PulseSchedule",
    "SimParams",
    "SpectrumResult",
    "accumulate_kernel",
    "default_omega_grid",
    "density_trajectory",
    "detuning_average",
    "emission_sum_rule",
    "no_drive_schedule",
    "periodic_schedule",
    "spectrum_from_kernel",
    "uhrig_schedule",
]
