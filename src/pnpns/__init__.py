"""Pseudo-spectral solver for coupled ion electrodiffusion and
incompressible flow on the doubly periodic square, with a decoupled
first-order time splitting that conserves both ion masses, keeps the
concentrations strictly positive, and dissipates a modified discrete
energy for any time step.
"""

from . import errors
from .integrator import RunRecord, advance, initialize, run
from .mms import ConvergenceRow, MMSCase, convergence_study, l2_error, make_case
from .ns import VelocityResult, ion_forcing, project_velocity, solve_velocity, velocity_step
from .pnp import Step1Result, compute_psi, functional_value, solve_step1
from .snapshot import read_snapshot, read_snapshot_meta, write_snapshot
from .spectral import Grid, ScalarField, VectorField, make_grid
from .state import (
    EnergyBreakdown,
    PhysParams,
    SchemeConfig,
    SimState,
    StepDiagnostics,
    mass,
    total_energy,
)

__version__ = "0.1.0"
