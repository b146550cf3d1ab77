"""Built-in calibrated scenario: consulting for the German transportation sector.

Point estimates behind the constants (OECD-derived sector records and
public salary data): client firms grow revenue at about 3.6%/year with a
7.3%/year birth rate and entrants near 1.3M EUR revenue; a consulting
engagement needs one worker at about 50k EUR/year locally, half of that
saved per fully displaced worker; displaceable work scales with provider
size at 0.02% per employee; the engagement is worth about 2.5% of client
revenue (general costs near 25% of revenue, cut by 10%).

The provider workforce growth rate is only bounded by the data (sector
employment has grown at 7%+ while the regime threshold sits at
alpha - psi = 3.7%), so it is exposed as an argument; 0.05 is the working
default and the sweep facility covers the plausible range.

Anchors: the 7500 largest client firms served at a 37k EUR price, which
pins f0 and g0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import AnchorConditions, anchored_params
from .equilibrium import SLOPE_MODES
from .errors import DomainError
from .model import ModelParams

__all__ = [
    "ScenarioConfig",
    "german_transport_anchors",
    "german_transport_params",
    "german_transport_scenario",
]

# Most steps a path may sample.  ``simulate`` holds ten float64 columns of
# steps + 1 samples (80 MB at this bound) and the CLI writes each sample as
# a CSV row, so a finer path would outgrow memory before it showed more.
MAX_STEPS = 10**6

_GERMAN_CONSTANTS = dict(
    v=0.025,
    n=1.0,
    c=50_000.0,
    delta_c=25_000.0,
    beta=0.0002,
    psi=0.036,
    alpha=0.073,
    r_m=1.3e6,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs.

    When ``anchors`` is set, ``resolved_params()`` replaces the
    normalizations the anchors pin with the anchor solve, so swept
    parameters re-anchor consistently; every run reads those params.
    """

    params: ModelParams
    mode: str = "capacity"
    horizon: float = 10.0
    dt: float = 0.01
    anchors: AnchorConditions | None = None

    def __post_init__(self) -> None:
        if self.mode not in SLOPE_MODES:
            raise DomainError(f"mode must be one of {SLOPE_MODES}, got {self.mode!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if not 0 < self.dt <= self.horizon:
            raise DomainError(f"dt must be in (0, horizon], got {self.dt!r}")
        # the path must end at the horizon: horizon/dt has to be a whole
        # number of steps up to rounding in the division
        steps = self.horizon / self.dt
        if not steps <= MAX_STEPS:  # inf too, when the division overflows
            raise DomainError(f"horizon/dt = {steps!r} steps, more than {MAX_STEPS}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise DomainError(
                f"horizon {self.horizon!r} is not a whole number of steps dt={self.dt!r}"
            )

    def resolved_params(self) -> ModelParams:
        return self.params if self.anchors is None else anchored_params(self.params, self.anchors)


def german_transport_anchors() -> AnchorConditions:
    return AnchorConditions(served0=7500.0, price0=37_000.0)


def german_transport_params(mu: float = 0.05) -> ModelParams:
    """Calibrated parameters with (f0, g0) already anchored."""
    provisional = ModelParams(mu=mu, f0=1.0, g0=1.0, **_GERMAN_CONSTANTS)
    return anchored_params(provisional, german_transport_anchors())


def german_transport_scenario(
    mu: float = 0.05,
    mode: str = "capacity",
    horizon: float = 10.0,
    dt: float = 0.01,
) -> ScenarioConfig:
    return ScenarioConfig(
        params=german_transport_params(mu),
        mode=mode,
        horizon=horizon,
        dt=dt,
        anchors=german_transport_anchors(),
    )
