"""Optimal mix among PAYGO, EET, and individual savings.

Closed-form lifecycle consumption/investment solutions, age-dependent
preference orderings with critical ages, the government's optimal
contribution-rate mix under two welfare weightings, and an independent
Monte Carlo verification oracle.
"""
from . import demography, government, lifecycle, montecarlo, preference
from .errors import (
    ConfigError,
    DegenerateDrift,
    DomainError,
    EmptyRegion,
    InsolventCohort,
    OrderingViolation,
    ParseError,
    PenmixError,
    SchemaError,
    UtilityExplosion,
)
from .scenario import (
    BabyBoomParams,
    DemographyParams,
    DerivedConstants,
    MarketParams,
    PolicyParams,
    PreferenceParams,
    Scenario,
    delta_for_entry,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
    with_params,
)

__all__ = [
    "BabyBoomParams", "ConfigError", "DegenerateDrift", "DemographyParams",
    "DerivedConstants", "DomainError", "EmptyRegion", "InsolventCohort",
    "MarketParams", "OrderingViolation", "ParseError", "PenmixError",
    "PolicyParams", "PreferenceParams", "Scenario", "SchemaError",
    "UtilityExplosion", "delta_for_entry", "demography", "government",
    "lifecycle", "load_scenario", "montecarlo", "preference",
    "save_scenario", "scenario_from_dict", "scenario_to_dict", "validate",
    "with_params",
]

__version__ = "0.1.0"
