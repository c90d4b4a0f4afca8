"""Vacuum entanglement harvesting by two Gaussian-smeared two-level
detectors with rectangular switching, computed to second order, including
the degradation of the harvestable correlation term under relative
space-time positioning uncertainty.
"""
from .detectors import (
    CausalClass,
    DetectorParams,
    Disjoint,
    Overlapping,
    Scenario,
    SwitchingWindow,
    TimingRegime,
    classify_causal,
    classify_timing,
    light_contact_interval,
)
from .core import (
    HarvestReport,
    SecondOrderIntegrals,
    bell_fractions,
    evaluate_scenario,
    evaluate_scenarios,
    negativity_closed,
)
from .quadrature import (
    ConvergenceFailure,
    IntegrandSpec,
    QuadratureSettings,
    QuadResult,
    integrate_radial,
)
from .specfun import ediff, faddeeva_w
from .config import RunConfig, load_config, loads_config, save_config
from .sweep import figure_preset, run_sweep

__version__ = "0.1.0"
