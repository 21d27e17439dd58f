"""Kinetic-level nudging data assimilation for 1D hyperbolic conservation laws.

Solvers for Burgers' equation and the Saint-Venant system built on kinetic
(BGK-type) representations, with Luenberger/nudging observers, synthetic
observation generation, error metrics and twin-experiment drivers.
"""
from .assimilation import (
    BurgersObserverMode,
    DecayFit,
    GainSchedule,
    RunConfig,
    RunResult,
    SolverError,
    SweepPoint,
    TemporalMode,
    decay_study,
    run_twin,
    sweep_lambda,
)
from .burgers import (
    KineticField,
    burgers_cfl,
    engquist_osher_flux,
    step_collapse_macroscopic,
    step_kinetic_burgers,
    step_kinetic_linear,
    step_macroscopic_burgers,
)
from .grid import BoundaryKind, Grid1D, XiGrid
from .kinetic import (
    GRAVITY,
    ChiProfile,
    chi_cube_integral,
    chi_indicator,
)
from .metrics import (
    ErrorSeries,
    l1_absolute,
    l1_relative,
    l2_absolute,
    sobolev_seminorm,
    sweep_minimum,
)
from .observation import (
    Mollifier,
    NoiseSpec,
    ObservabilityResult,
    ObservationSeries,
    interpolate_in_time,
    mollified_gain,
    noise_field,
    observability_check,
    sample_observations,
)
from .shallow_water import (
    EnergyBudget,
    InterfaceReconstruction,
    SWState,
    cell_energy,
    dam_break_state,
    energy_budget,
    hydrostatic_reconstruct,
    lake_at_rest_state,
    parabolic_bowl_bathymetry,
    sv_cfl,
    sv_forward_step,
    sv_interface_flux,
    sv_observer_step,
    thacker_setup,
    total_energy,
)

__version__ = "0.1.0"
