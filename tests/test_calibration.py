"""Rate estimation, Zipf fitting, anchor solve, CSV ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consultmarket import (
    AnchorConditions,
    CalibrationSeries,
    DataError,
    DemandSide,
    DomainError,
    ModelParams,
    SizeBucket,
    SupplySide,
    YearRecord,
    anchor_normalizations,
    anchored_params,
    derive_v,
    estimate_rates,
    fit_zipf,
    load_series,
    load_size_histogram,
    solve_equilibrium,
)


def make_series(psi, alpha, r_m, years=10, count0=1000.0, revenue0=2.0e9, start=2010):
    """Noiseless generator matching the estimator's conventions: births are
    a fixed fraction of the prior-year stock, incumbents grow revenue by a
    fixed factor, entrants add r_m each."""
    records = [YearRecord(start, count0, revenue0, 0.0, r_m)]
    count, revenue = count0, revenue0
    for k in range(1, years):
        births = alpha * count
        revenue = (1.0 + psi) * revenue + births * r_m
        count = count + births
        records.append(YearRecord(start + k, count, revenue, births, r_m))
    return CalibrationSeries(records=tuple(records))


class TestEstimateRates:
    def test_recovers_generating_rates(self):
        series = make_series(psi=0.036, alpha=0.073, r_m=1.3e6)
        psi, alpha, r_m = estimate_rates(series)
        assert psi == pytest.approx(0.036, abs=1e-9)
        assert alpha == pytest.approx(0.073, abs=1e-9)
        assert r_m == pytest.approx(1.3e6, rel=1e-12)

    @given(
        psi=st.floats(min_value=0.005, max_value=0.08),
        spread=st.floats(min_value=0.005, max_value=0.06),
        r_m=st.floats(min_value=1e5, max_value=5e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovery_property(self, psi, spread, r_m):
        alpha = psi + spread
        got = estimate_rates(make_series(psi=psi, alpha=alpha, r_m=r_m))
        assert got.psi == pytest.approx(psi, abs=1e-9)
        assert got.alpha == pytest.approx(alpha, abs=1e-9)

    def test_constant_series_yields_degenerate_rates(self):
        records = tuple(
            YearRecord(2010 + k, 500.0, 1.0e9, 0.0, 1.3e6) for k in range(5)
        )
        psi, alpha, r_m = estimate_rates(CalibrationSeries(records=records))
        assert psi == 0.0
        assert alpha == 0.0
        assert r_m == 1.3e6
        with pytest.raises(DomainError):
            ModelParams(
                v=0.025, n=1, c=50_000, delta_c=25_000, beta=0.0002,
                psi=psi, mu=0.05, alpha=alpha, r_m=r_m, f0=1.0, g0=1.0,
            )

    def test_two_year_series_rejected(self):
        records = (
            YearRecord(2010, 100.0, 1e8, 5.0, 1e6),
            YearRecord(2011, 105.0, 1.1e8, 5.0, 1e6),
        )
        with pytest.raises(DataError, match="insufficient"):
            CalibrationSeries(records=records)

    def test_entrants_swamping_revenue_flagged_by_year(self):
        records = (
            YearRecord(2010, 100.0, 1e8, 1.0, 1e6),
            YearRecord(2011, 200.0, 1e8, 100.0, 2e6),  # entrant share exceeds total
            YearRecord(2012, 210.0, 1.2e8, 10.0, 1e6),
        )
        with pytest.raises(DataError, match="2011"):
            estimate_rates(CalibrationSeries(records=records))


class TestFitZipf:
    def test_exact_counts(self):
        buckets = [SizeBucket(size=s, provider_count=5.0 / s) for s in (1, 2, 4, 8, 16)]
        fit = fit_zipf(buckets)
        assert fit.g0 == pytest.approx(5.0, rel=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_scale_equivariance(self):
        buckets = [SizeBucket(size=s, provider_count=2 * 5.0 / s) for s in (1, 2, 4, 8, 16)]
        assert fit_zipf(buckets).g0 == pytest.approx(10.0, rel=1e-12)

    def test_reorder_invariance(self):
        buckets = [SizeBucket(size=s, provider_count=7.0 / s) for s in (8, 1, 16, 2, 4)]
        assert fit_zipf(buckets).g0 == pytest.approx(7.0, rel=1e-12)

    def test_multiplicative_noise_bias(self):
        # refit under +/-1% multiplicative noise across 100 seeds
        sizes = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noise = rng.uniform(0.99, 1.01, size=sizes.size)
            buckets = [
                SizeBucket(size=s, provider_count=(5.0 / s) * w)
                for s, w in zip(sizes, noise)
            ]
            assert fit_zipf(buckets).g0 == pytest.approx(5.0, rel=0.02)

    def test_too_few_buckets_rejected(self):
        buckets = [SizeBucket(size=s, provider_count=1.0) for s in (1, 2, 4)]
        with pytest.raises(DataError):
            fit_zipf(buckets)

    def test_non_positive_counts_rejected(self):
        with pytest.raises(DataError):
            SizeBucket(size=2.0, provider_count=0.0)


class TestAnchorNormalizations:
    def test_calibrated_anchors(self, german_anchors):
        provisional = ModelParams(
            v=0.025, n=1, c=50_000, delta_c=25_000, beta=0.0002,
            psi=0.036, mu=0.05, alpha=0.073, r_m=1.3e6, f0=1.0, g0=1.0,
        )
        f0, g0 = anchor_normalizations(provisional, german_anchors)
        assert g0 == pytest.approx(3.125, rel=1e-12)
        assert f0 == pytest.approx(0.09280620976863879, rel=1e-12)
        # cross-check: both numeric-mode curves pass through the anchor
        anchored = provisional.replace(f0=f0, g0=g0)
        demand = DemandSide.with_grid(anchored, cap_factor=1e10, points=2**16 + 1)
        supply = SupplySide.with_grid(anchored)
        assert demand.at(0.0, 37_000.0) == pytest.approx(7500.0, rel=1e-6)
        assert supply.at(0.0, 37_000.0) == pytest.approx(7500.0, rel=1e-9)

    def test_homogeneous_in_served_count(self, german_params, german_anchors):
        doubled = AnchorConditions(served0=2 * german_anchors.served0, price0=german_anchors.price0)
        f0_a, g0_a = anchor_normalizations(german_params, german_anchors)
        f0_b, g0_b = anchor_normalizations(german_params, doubled)
        assert f0_b == pytest.approx(2 * f0_a, rel=1e-12)
        assert g0_b == pytest.approx(2 * g0_a, rel=1e-12)

    def test_full_local_cost_boundary(self, german_params):
        anchors = AnchorConditions(served0=7500.0, price0=german_params.full_local_cost)
        _, g0 = anchor_normalizations(german_params, anchors)
        # supply is saturated there: S = g0/(n*beta) * (1 - beta*n)
        p = german_params
        assert g0 == pytest.approx(7500.0 * p.n * p.beta / (1.0 - p.beta * p.n), rel=1e-12)

    @pytest.mark.parametrize("price0", [49_997.0, 50_000.0])
    def test_anchor_above_entry_price_clears_there(self, german_params, price0):
        # supply is flat above the entry price 49995; the anchor solve inverts
        # the saturated supply, so the market clears at price0
        assert german_params.entry_price < price0 <= german_params.full_local_cost
        params = anchored_params(german_params, AnchorConditions(served0=7500.0, price0=price0))
        eq = solve_equilibrium(DemandSide.closed_form(params), SupplySide.closed_form(params), 0.0)
        assert abs(eq.price - price0) <= 1e-6
        assert eq.served == pytest.approx(7500.0, rel=1e-10)

    @pytest.mark.parametrize("change, served0", [(dict(alpha=1e300), 7500.0), (dict(v=1e-300), 1e300)])
    def test_degenerate_normalizations_rejected(self, german_params, change, served0):
        # the unit demand at the anchor underflows to 0, or f0 overflows
        with pytest.raises(DomainError):
            anchor_normalizations(german_params.replace(**change), AnchorConditions(served0, 37_000.0))

    @pytest.mark.parametrize("served0, price0", [(float("inf"), 37_000.0), (7500.0, float("nan"))])
    def test_non_finite_anchors_rejected(self, served0, price0):
        with pytest.raises(DomainError):
            AnchorConditions(served0=served0, price0=price0)

    def test_out_of_domain_anchor_rejected(self, german_params):
        with pytest.raises(DomainError):
            anchor_normalizations(german_params, AnchorConditions(7500.0, 20_000.0))
        with pytest.raises(DomainError):
            anchor_normalizations(german_params, AnchorConditions(7500.0, 60_000.0))

    @given(
        served=st.floats(min_value=10.0, max_value=1e5),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_anchor_solve_round_trip(self, served, frac):
        base = ModelParams(
            v=0.025, n=1, c=50_000, delta_c=25_000, beta=0.0002,
            psi=0.036, mu=0.05, alpha=0.073, r_m=1.3e6, f0=1.0, g0=1.0,
        )
        price0 = base.cost_floor + frac * (base.entry_price - base.cost_floor)
        params = anchored_params(base, AnchorConditions(served0=served, price0=price0))
        eq = solve_equilibrium(DemandSide.closed_form(params), SupplySide.closed_form(params), 0.0)
        assert abs(eq.price - price0) <= 1e-6


class TestDeriveV:
    def test_calibrated(self):
        assert derive_v(0.25, 0.10) == pytest.approx(0.025, rel=1e-12)

    def test_zero_savings(self):
        assert derive_v(0.3, 0.0) == 0.0

    def test_upper_cost_share(self):
        assert derive_v(0.30, 0.10) == pytest.approx(0.030, rel=1e-12)

    def test_out_of_range_rejected(self):
        for args in ((0.0, 0.1), (1.0, 0.1), (0.25, 1.0), (0.25, -0.1)):
            with pytest.raises(DomainError):
                derive_v(*args)


SERIES_HEADER = "year,firm_count,total_revenue,births,entrant_revenue_mean\n"


class TestLoadSeries:
    def test_well_formed(self, tmp_path):
        rows = [
            f"{2010 + k},{1000 * 1.07 ** k:.6f},{2e9 * 1.05 ** k:.6f},{70 * 1.07 ** k:.6f},1300000\n"
            for k in range(10)
        ]
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + "".join(rows), encoding="utf-8")
        series = load_series(path)
        assert len(series.records) == 10
        assert series.records[0].year == 2010

    def test_negative_count_names_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            SERIES_HEADER
            + "2010,100,1e8,5,1e6\n"
            + "2011,105,1.1e8,5,1e6\n"
            + "2012,-3,1.2e8,5,1e6\n"
            + "2013,115,1.3e8,5,1e6\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="line 4"):
            load_series(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER, encoding="utf-8")
        with pytest.raises(DataError, match="insufficient records"):
            load_series(path)

    def test_missing_column_fails_fast(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("year,firm_count\n2010,100\n", encoding="utf-8")
        with pytest.raises(DataError, match="births"):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_series(tmp_path / "absent.csv")

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            SERIES_HEADER
            + "2010,100,1e8,5,1e6\n"
            + "2011,abc,1.1e8,5,1e6\n"
            + "2012,110,1.2e8,5,1e6\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="line 3"):
            load_series(path)

    def test_non_consecutive_years_rejected(self):
        records = (
            YearRecord(2010, 100.0, 1e8, 5.0, 1e6),
            YearRecord(2012, 105.0, 1.1e8, 5.0, 1e6),
            YearRecord(2013, 110.0, 1.2e8, 5.0, 1e6),
        )
        with pytest.raises(DataError, match="consecutive"):
            CalibrationSeries(records=records)

    def test_histogram_loader(self, tmp_path):
        path = tmp_path / "sizes.csv"
        path.write_text(
            "size,provider_count\n1,16\n2,8\n4,4\n8,2\n16,1\n", encoding="utf-8"
        )
        buckets = load_size_histogram(path)
        assert len(buckets) == 5
        assert fit_zipf(buckets).g0 == pytest.approx(16.0, rel=1e-12)
