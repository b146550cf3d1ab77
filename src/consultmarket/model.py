"""Market constants, the cost algebra of provider firms, and every closed form.

A provider with ``e`` employees can displace a fraction ``min(beta*e, 1)``
of its delivery work to a lower-cost location, which prices one client
engagement (``n`` workers) at ``n*(c - phi(e)*delta_c)``.  Everything here
is a pure function of its arguments.

The closed forms of the paper (curve densities and tails, marginal size,
required share, reduced decline slope and its exact path, flows, profit
frontier) are each written once, at the end.  They take the params, a
growth factor such as exp(alpha*t) computed by the caller, and a price,
size or time, each a float or a numpy array (clamps: ``min``/``max`` on
floats, ``ndarray.clip`` on arrays).  They check no domain; the scalar
entry points do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import BelowCostFloorError, DomainError, RegimeError

__all__ = [
    "ModelParams",
    "ProviderBounds",
    "offshore_fraction",
    "engagement_cost",
    "min_viable_size",
    "required_offshore_share",
    "profitability_threshold_size",
]


@dataclass(frozen=True)
class ModelParams:
    """All market constants in one validated record.

    v:        benefit factor, fraction of client revenue
    n:        workers per client engagement
    c:        local unit labor cost, currency/worker/year
    delta_c:  savings per fully displaced worker, currency/worker/year
    beta:     displaceable activity fraction per employee of provider size, 1/employee
    psi:      client revenue growth rate, 1/year
    mu:       provider workforce growth rate, 1/year
    alpha:    client birth rate, 1/year (must exceed psi for the demand
              tail integral to converge)
    r_m:      entrant client revenue, currency/year
    f0:       demand density normalization, firms
    g0:       supply (Zipf) normalization, firms

    entry_price, computed once at construction, is the cost of the smallest
    viable provider, n*(c - phi(n)*delta_c).
    """

    v: float
    n: float
    c: float
    delta_c: float
    beta: float
    psi: float
    mu: float
    alpha: float
    r_m: float
    f0: float
    g0: float

    def __post_init__(self) -> None:
        non_finite = [name for name in self.field_names() if not math.isfinite(getattr(self, name))]
        checks = [
            (not non_finite, f"{', '.join(non_finite)} must be finite"),
            (self.v > 0, "v must be > 0"),
            (self.n >= 1, "n must be >= 1"),
            (self.c > 0, "c must be > 0"),
            (0 < self.delta_c <= self.c, "delta_c must be in (0, c]"),
            (self.beta > 0, "beta must be > 0"),
            (self.beta * self.n <= 1, "beta*n must be <= 1"),
            (self.psi > 0, "psi must be > 0"),
            (self.mu >= 0, "mu must be >= 0"),
            (self.alpha > self.psi, "alpha must exceed psi (demand tail diverges otherwise)"),
            (self.r_m > 0, "r_m must be > 0"),
            (self.f0 > 0, "f0 must be > 0"),
            (self.g0 > 0, "g0 must be > 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise DomainError(msg)
        # an attribute, not a field, so equality, hash and replace ignore it;
        # set eagerly: caching it on first read (functools.cached_property)
        # materializes the instance __dict__, and every later attribute read
        # of the instance then takes about 2.5x as long on CPython 3.11
        object.__setattr__(self, "entry_price", engagement_cost(self.n, self))

    @property
    def cost_floor(self) -> float:
        """n*(c - delta_c): engagement cost under full displacement."""
        return self.n * (self.c - self.delta_c)

    @property
    def full_local_cost(self) -> float:
        """n*c: engagement cost with no displacement at all."""
        return self.n * self.c

    @property
    def bounds(self) -> "ProviderBounds":
        return ProviderBounds(e_min_domain=self.n, e_max_domain=1.0 / self.beta)

    def replace(self, **changes: float) -> "ModelParams":
        return replace(self, **changes)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class ProviderBounds:
    """Provider size domain [n, 1/beta].

    The upper edge is where displacement saturates at 100%; beyond it extra
    size buys no further cost advantage, and the Zipf-weighted supply
    integral only stays finite with this truncation.
    """

    e_min_domain: float
    e_max_domain: float

    def __post_init__(self) -> None:
        if self.e_min_domain > self.e_max_domain:
            raise DomainError("provider size domain is empty (n > 1/beta)")


def offshore_fraction(e: float, params: ModelParams) -> float:
    """Fraction of delivery work a provider of size ``e`` can displace.

    Proportional to size and capped at full displacement: min(beta*e, 1).
    """
    if e < 0:
        raise DomainError(f"provider size must be >= 0, got {e!r}")
    return min(params.beta * e, 1.0)


def engagement_cost(e: float, params: ModelParams) -> float:
    """Yearly cost of one engagement for a provider of size ``e``.

    n*(c - phi(e)*delta_c); non-increasing in e, floored at n*(c - delta_c).
    """
    return params.n * (params.c - offshore_fraction(e, params) * params.delta_c)


def min_viable_size(p: float, params: ModelParams) -> float:
    """Smallest provider size able to break even at price ``p``.

    Inverts the engagement cost: (n*c - p)/(n*beta*delta_c), clamped below
    at n because smaller practices cannot exist.
    """
    if p <= params.cost_floor:
        raise BelowCostFloorError(
            f"price {p!r} is at or below the cost floor {params.cost_floor!r};"
            " no provider is viable"
        )
    return marginal_size(params, p)


def required_offshore_share(p: float, params: ModelParams) -> float:
    """Displacement share the marginal provider needs to break even at ``p``.

    (n*c - p)/(n*delta_c), affine in p; 0 at full local cost, 1 at the floor.
    """
    if not params.cost_floor <= p <= params.full_local_cost:
        raise DomainError(
            f"price {p!r} outside [{params.cost_floor!r}, {params.full_local_cost!r}]"
        )
    return required_share(params, p)


def profitability_threshold_size(price_slope: float, params: ModelParams) -> float:
    """Provider size above which displacement gains outpace a price decline.

    A provider growing at rate mu adds displacement savings worth
    beta*mu*e*n*delta_c per year; sizes above |price_slope| divided by that
    coefficient see their per-engagement margin improve.  Returns 0 when
    prices are flat or rising.
    """
    if not math.isfinite(price_slope):
        raise DomainError(f"price slope must be finite, got {price_slope!r}")
    if price_slope >= 0:
        return 0.0
    if params.mu == 0:
        raise RegimeError(
            "no provider outruns the price decline: provider growth rate mu is zero"
        )
    return profit_frontier(params, price_slope)


def _at_least(x, lo: float):
    return max(x, lo) if isinstance(x, (int, float)) else x.clip(lo)


def _at_most(x, hi: float):
    return min(x, hi) if isinstance(x, (int, float)) else x.clip(None, hi)


def _exp(x):
    return math.exp(x) if isinstance(x, (int, float)) else x.__array_namespace__().exp(x)


def demand_density(params: ModelParams, growth, r):
    """f(t, r) = alpha * f0 * exp(alpha*t) * (r/r_m)^(-alpha/psi)."""
    p = params
    return p.alpha * p.f0 * growth * (r / p.r_m) ** (-p.alpha / p.psi)


def demand_curve(params: ModelParams, growth, price):
    """D(t, p): the tail of f(t, .) from r = p/v; every client at or below v*r_m."""
    p = params
    r_cut = price / p.v
    population = p.alpha * p.f0 * growth * p.r_m * p.psi / (p.alpha - p.psi)
    if isinstance(r_cut, (int, float)) and r_cut <= p.r_m:
        return population
    tail = p.alpha * p.f0 * growth * (p.psi / (p.alpha - p.psi)) * p.r_m * (r_cut / p.r_m) ** (1.0 - p.alpha / p.psi)
    if isinstance(r_cut, (int, float)):
        return tail
    # numpy's where, reached through the array so that model imports no numpy
    return r_cut.__array_namespace__().where(r_cut <= p.r_m, population, tail)


def inflow_flux(params: ModelParams, growth, price: float):
    """psi * r * f(t, r): clients crossing the cut r = max(p/v, r_m) per year.

    Below v*r_m every client is served and only entrants cross.
    """
    cut = _at_least(price / params.v, params.r_m)
    return params.psi * cut * demand_density(params, growth, cut)


def supply_density(params: ModelParams, growth, e):
    """g(t, e) = g0 * exp(mu*t) / e."""
    return params.g0 * growth / e


def supply_curve(params: ModelParams, growth, price):
    """S(t, p): 0 at the cost floor, affine in p, flat once size-n providers are viable."""
    p = params
    # the share term saturates once the marginal size clamps at n
    share_term = _at_most(1.0 + (price - p.full_local_cost) / (p.n * p.delta_c), 1.0 - p.beta * p.n)
    return growth * p.g0 / (p.n * p.beta) * share_term


def marginal_size(params: ModelParams, price):
    """(n*c - p)/(n*beta*delta_c), clamped below at n: the break-even provider size."""
    p = params
    return _at_least((p.n * p.c - price) / (p.n * p.beta * p.delta_c), p.n)


def required_share(params: ModelParams, price):
    """(n*c - p)/(n*delta_c): the displacement share the marginal provider needs."""
    p = params
    return (p.n * p.c - price) / (p.n * p.delta_c)


def decline_slope(params: ModelParams, price, literal: bool):
    """dP/dt = (alpha - psi - mu) * min(P - floor, n*delta_c*(1 - beta*n)) * w(P)
    in a mature market; w = 1 (capacity) or marginal_size(P)/n (literal)."""
    p = params
    cap = p.n * p.delta_c * (1.0 - p.beta * p.n)
    slope = (p.alpha - p.psi - p.mu) * _at_most(price - p.cost_floor, cap)
    return slope * (marginal_size(p, price) / p.n) if literal else slope


def decline_gap(params: ModelParams, gap0: float, t, literal: bool):
    """g(t) = P(t) - floor on the exact solution of decline_slope from g(0) = gap0 > 0.

    With K = n*delta_c, cap = K*(1 - beta*n) and rate = alpha - psi - mu:
    linear, gap0 + rate*cap*t, while g >= cap (w = 1 there), then from
    g_s = min(gap0, cap), tau after the path meets cap, g_s*exp(rate*tau)
    (capacity) or the logistic K*g_s*e^{R tau}/(K - g_s + g_s*e^{R tau})
    with R = rate/(n*beta) (literal).
    """
    p = params
    rate = p.alpha - p.psi - p.mu
    k = p.n * p.delta_c
    cap = k * (1.0 - p.beta * p.n)
    drop = rate * cap
    if gap0 <= cap:
        g_s, t_cap = gap0, 0.0
    else:  # linear down to cap, never reached when rate*cap is 0 (beta*n = 1)
        g_s, t_cap = cap, (cap - gap0) / drop if drop else math.inf
    tau = _at_least(t - t_cap, 0.0)
    if literal:
        e = _exp(rate * tau / (p.n * p.beta))
        tail = g_s * e / (1.0 + g_s / k * (e - 1.0))  # exactly g_s at tau = 0
    else:
        tail = g_s * _exp(rate * tau)
    if gap0 <= cap:
        return tail
    linear = gap0 + drop * t
    if isinstance(t, (int, float)):
        return linear if t < t_cap else tail
    return t.__array_namespace__().where(t < t_cap, linear, tail)


def exit_flow(params: ModelParams, density, slope):
    """g(t, e_min) * |dP/dt| / (n*beta*delta_c), given the marginal density."""
    return density * abs(slope) / (params.n * params.beta * params.delta_c)


def profit_frontier(params: ModelParams, slope):
    """|dP/dt|/(beta*mu*n*delta_c): the size above which displacement gains outpace the decline."""
    p = params
    return abs(slope) / (p.beta * p.mu * p.n * p.delta_c)
