"""Deterministic simulator and calibration toolkit for professional-services
markets in which provider firms displace labor off/near-shore.

Everything is pure and side-effect free past construction: parameter
records, curves, and grids are immutable, so all entry points are safe to
call concurrently.
"""

from .calibration import (
    AnchorConditions,
    CalibrationSeries,
    SizeBucket,
    YearRecord,
    anchor_normalizations,
    anchored_params,
    derive_v,
    estimate_rates,
    fit_zipf,
    load_series,
    load_size_histogram,
)
from .curves import DemandSide, SupplySide, evolve_density
from .equilibrium import (
    EquilibriumResult,
    RegimeLabel,
    classify_regime,
    entry_rate,
    exit_rate,
    price_slope,
    solve_equilibrium,
)
from .errors import (
    BelowCostFloorError,
    ConsultMarketError,
    DataError,
    DomainError,
    NoBracketError,
    NumericError,
    RegimeError,
)
from .model import (
    ModelParams,
    ProviderBounds,
    engagement_cost,
    min_viable_size,
    offshore_fraction,
    profitability_threshold_size,
    required_offshore_share,
)
from .numerics import Bracket, DensityGrid, find_root, integrate_tail, step_path
from .scenarios import (
    ScenarioConfig,
    german_transport_anchors,
    german_transport_params,
    german_transport_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorConditions",
    "BelowCostFloorError",
    "Bracket",
    "CalibrationSeries",
    "ConsultMarketError",
    "DataError",
    "DemandSide",
    "DensityGrid",
    "DomainError",
    "EquilibriumResult",
    "ModelParams",
    "NoBracketError",
    "NumericError",
    "ProviderBounds",
    "RegimeError",
    "RegimeLabel",
    "ScenarioConfig",
    "SizeBucket",
    "SupplySide",
    "Trajectory",
    "TrajectoryPoint",
    "TrajectorySummary",
    "YearRecord",
    "anchor_normalizations",
    "anchored_params",
    "classify_regime",
    "derive_v",
    "engagement_cost",
    "entry_rate",
    "estimate_rates",
    "evolve_density",
    "exit_rate",
    "find_root",
    "fit_zipf",
    "german_transport_anchors",
    "german_transport_params",
    "german_transport_scenario",
    "integrate_tail",
    "load_series",
    "load_size_histogram",
    "min_viable_size",
    "offshore_fraction",
    "price_slope",
    "profitability_threshold_size",
    "required_offshore_share",
    "simulate",
    "solve_equilibrium",
    "step_path",
    "summarize",
    "sweep",
]


def __getattr__(name: str):
    # dynamics loads numpy, so its names resolve on each use; never stored here,
    # so a function replaced in dynamics (by a tracer, say) is what this returns
    if name in ("Trajectory", "TrajectoryPoint", "TrajectorySummary", "simulate", "summarize", "sweep"):
        from . import dynamics
        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
