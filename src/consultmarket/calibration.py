"""Turning raw market records into validated model parameters.

Inputs are a yearly series of client-sector records (counts, revenue,
births, entrant revenue) and optionally a provider size histogram.  Rates
are aggregated as geometric means over consecutive year pairs because
growth compounds; arithmetic means would bias upward.

The two free curve normalizations (f0, g0) are not estimated from data but
pinned by anchor conditions: an observed (served clients, price) pair at
t = 0.  Inverting both closed forms at the anchor guarantees the cleared
price reproduces the anchor exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import DataError, DomainError
from .model import ModelParams, demand_curve, supply_curve

__all__ = [
    "YearRecord",
    "SizeBucket",
    "CalibrationSeries",
    "AnchorConditions",
    "RateEstimates",
    "ZipfFit",
    "estimate_rates",
    "fit_zipf",
    "anchor_normalizations",
    "anchored_params",
    "derive_v",
    "load_series",
    "load_size_histogram",
]

SERIES_COLUMNS = ("year", "firm_count", "total_revenue", "births", "entrant_revenue_mean")
HISTOGRAM_COLUMNS = ("size", "provider_count")


@dataclass(frozen=True)
class YearRecord:
    year: int
    firm_count: float
    total_revenue: float
    births: float
    entrant_revenue_mean: float

    def __post_init__(self) -> None:
        if self.firm_count <= 0:
            raise DataError(f"year {self.year}: firm_count must be positive")
        if self.total_revenue <= 0:
            raise DataError(f"year {self.year}: total_revenue must be positive")
        if self.births < 0:
            raise DataError(f"year {self.year}: births must be non-negative")
        if self.entrant_revenue_mean <= 0:
            raise DataError(f"year {self.year}: entrant_revenue_mean must be positive")


@dataclass(frozen=True)
class SizeBucket:
    size: float
    provider_count: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise DataError(f"size bucket {self.size!r} must be positive")
        if self.provider_count <= 0:
            raise DataError(f"bucket {self.size!r}: provider_count must be positive")


@dataclass(frozen=True)
class CalibrationSeries:
    """Yearly market records plus an optional provider size histogram."""

    records: tuple[YearRecord, ...]
    histogram: tuple[SizeBucket, ...] | None = None

    def __post_init__(self) -> None:
        records = tuple(self.records)
        if len(records) < 3:
            raise DataError(
                f"insufficient records: need at least 3 yearly rows, got {len(records)}"
            )
        years = [r.year for r in records]
        for prev, cur in zip(years, years[1:]):
            if cur != prev + 1:
                raise DataError(f"years must be consecutive; {prev} is followed by {cur}")
        object.__setattr__(self, "records", records)
        if self.histogram is not None:
            object.__setattr__(self, "histogram", tuple(self.histogram))


NORMALIZATIONS = ("f0", "g0")


@dataclass(frozen=True)
class AnchorConditions:
    """Observed (served clients, price) pair at t = 0, and the
    normalizations (``pins``) that the anchor solve sets."""

    served0: float
    price0: float
    pins: tuple[str, ...] = NORMALIZATIONS

    def __post_init__(self) -> None:
        for name in ("served0", "price0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")
        if not set(self.pins) <= set(NORMALIZATIONS):
            raise DomainError(f"anchors pin only {NORMALIZATIONS}, got {self.pins!r}")


class RateEstimates(NamedTuple):
    psi: float
    alpha: float
    r_m: float


class ZipfFit(NamedTuple):
    g0: float
    residual: float


def estimate_rates(series: CalibrationSeries) -> RateEstimates:
    """Estimate (psi, alpha, r_m) from the yearly records.

    alpha: birth rate, births over the prior-year firm count.
    psi:   incumbent per-firm revenue growth, the growth of
           (total_revenue - births * entrant_revenue_mean) relative to the
           prior-year total revenue.
    r_m:   mean entrant revenue across years.

    Rates come from geometric means of the per-pair growth factors.
    """
    records = series.records
    log_alpha_factors = []
    log_psi_factors = []
    for prev, cur in zip(records, records[1:]):
        incumbent_revenue = cur.total_revenue - cur.births * cur.entrant_revenue_mean
        if incumbent_revenue <= 0:
            raise DataError(
                f"year {cur.year}: incumbent revenue (total minus entrant"
                f" contribution) is non-positive ({incumbent_revenue!r})"
            )
        log_alpha_factors.append(math.log1p(cur.births / prev.firm_count))
        log_psi_factors.append(math.log(incumbent_revenue / prev.total_revenue))
    alpha = math.expm1(sum(log_alpha_factors) / len(log_alpha_factors))
    psi = math.expm1(sum(log_psi_factors) / len(log_psi_factors))
    r_m = sum(r.entrant_revenue_mean for r in records) / len(records)
    return RateEstimates(psi=psi, alpha=alpha, r_m=r_m)


def fit_zipf(histogram: Sequence[SizeBucket]) -> ZipfFit:
    """Fit counts to g0/size by least squares on log(count) = log(g0) - log(size).

    The slope is fixed at -1, so the estimate is the geometric mean of
    count * size; the residual is the RMS log deviation from the fit.
    """
    buckets = tuple(histogram)
    if len(buckets) < 4:
        raise DataError(f"Zipf fit needs at least 4 buckets, got {len(buckets)}")
    logs = [math.log(b.provider_count * b.size) for b in buckets]
    mean_log = sum(logs) / len(logs)
    residual = math.sqrt(sum((x - mean_log) ** 2 for x in logs) / len(logs))
    return ZipfFit(g0=math.exp(mean_log), residual=residual)


def anchor_normalizations(params: ModelParams, anchors: AnchorConditions) -> tuple[float, float]:
    """Invert both closed forms at t = 0 to pin (f0, g0) from the anchors.

    D is linear in f0 and S in g0, so f0 = served0 / D(f0=1, t=0, price0)
    and g0 = served0 / S(g0=1, t=0, price0).  Both curves then pass through
    the anchor point, so the cleared price reproduces price0 exactly.
    Raises DomainError unless both come out finite and positive.
    """
    p = params
    if not p.cost_floor < anchors.price0 <= p.full_local_cost:
        raise DomainError(
            f"anchor price {anchors.price0!r} must lie in ({p.cost_floor!r},"
            f" {p.full_local_cost!r}]"
        )
    unit = replace(p, f0=1.0, g0=1.0)
    demand, supply = demand_curve(unit, 1.0, anchors.price0), supply_curve(unit, 1.0, anchors.price0)
    f0 = anchors.served0 / demand if demand > 0 else math.inf
    g0 = anchors.served0 / supply if supply > 0 else math.inf
    if not (math.isfinite(f0) and math.isfinite(g0)):
        raise DomainError(f"anchor solve gives no finite normalization: f0={f0!r}, g0={g0!r}")
    return f0, g0


def anchored_params(params: ModelParams, anchors: AnchorConditions) -> ModelParams:
    """Return ``params`` with the normalizations ``anchors.pins`` names
    replaced by the anchor solve."""
    solved = dict(zip(NORMALIZATIONS, anchor_normalizations(params, anchors)))
    return replace(params, **{name: solved[name] for name in anchors.pins})


def derive_v(sga_share: float, savings_rate: float) -> float:
    """Client benefit factor: addressable cost share times the cut achieved.

    E.g. general costs worth 25% of revenue reduced by 10% yield v = 2.5%.
    """
    if not 0 < sga_share < 1:
        raise DomainError(f"sga_share must be in (0, 1), got {sga_share!r}")
    if not 0 <= savings_rate < 1:
        raise DomainError(f"savings_rate must be in [0, 1), got {savings_rate!r}")
    return sga_share * savings_rate


def _read_rows(path: str | Path, required: tuple[str, ...]) -> list[tuple[int, dict]]:
    path = Path(path)
    if not path.exists():
        raise DataError("file not found", path=str(path))
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError("empty file, expected a header row", path=str(path))
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise DataError(f"missing required columns: {', '.join(missing)}", path=str(path))
        rows = []
        for row in reader:
            rows.append((reader.line_num, row))
    return rows


def _parse_field(raw: str | None, column: str, path: str, line: int, cast=float):
    if raw is None or raw.strip() == "":
        raise DataError(f"missing value for {column!r}", path=path, line=line)
    try:
        return cast(raw)
    except ValueError:
        raise DataError(f"cannot parse {column!r} value {raw!r}", path=path, line=line) from None


def load_series(path: str | Path) -> CalibrationSeries:
    """Load and validate the yearly series CSV.

    Schema: UTF-8, comma-separated, header row, columns
    ``year,firm_count,total_revenue,births,entrant_revenue_mean``.
    Errors carry the offending line number.
    """
    rows = _read_rows(path, SERIES_COLUMNS)
    records = []
    for line, row in rows:
        year = _parse_field(row.get("year"), "year", str(path), line, cast=int)
        values = {
            col: _parse_field(row.get(col), col, str(path), line)
            for col in SERIES_COLUMNS[1:]
        }
        try:
            records.append(YearRecord(year=year, **values))
        except DataError as exc:
            raise DataError(str(exc), path=str(path), line=line) from None
    if len(records) < 3:
        raise DataError(
            f"insufficient records: need at least 3 yearly rows, got {len(records)}",
            path=str(path),
        )
    return CalibrationSeries(records=tuple(records))


def load_size_histogram(path: str | Path) -> tuple[SizeBucket, ...]:
    """Load the optional provider size histogram CSV (``size,provider_count``)."""
    rows = _read_rows(path, HISTOGRAM_COLUMNS)
    buckets = []
    for line, row in rows:
        size = _parse_field(row.get("size"), "size", str(path), line)
        count = _parse_field(row.get("provider_count"), "provider_count", str(path), line)
        try:
            buckets.append(SizeBucket(size=size, provider_count=count))
        except DataError as exc:
            raise DataError(str(exc), path=str(path), line=line) from None
    return tuple(buckets)
