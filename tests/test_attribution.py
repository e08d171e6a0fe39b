import functools
import math
import operator
import random

import pytest

from cubecrawl import (
    AttributionResult,
    EntityMetrics,
    RegionAmbientModel,
    SegmentedMetrics,
    attribute_density,
    churn_decompose,
    density_model,
    density_ras,
    density_ras_degenerate,
    numeric_path_ras,
    summable_model,
    summable_ras,
)
from cubecrawl import attribution
from cubecrawl.attribution import attribution_signals
from cubecrawl.errors import (
    ConsistencyError,
    DegenerateMetricsError,
    DomainError,
    NumericError,
)

# T1 fixture populations: Revenue 60 -> 65, Clicks 30 -> 30 (degenerate)
POP = dict(w_p_c=60, w_p_t=65, s_p_c=30, s_p_t=30)
# modified fixture: (Pixel, Chrome) test Clicks raised to 6 -> s_p_t = 31
POP_MOD = dict(w_p_c=60, w_p_t=65, s_p_c=30, s_p_t=31)

T1_REGIONS = {
    ("Pixel", "Chrome"): dict(w_r_c=10, w_r_t=15, s_r_c=5, s_r_t=5),
    ("Pixel", "Safari"): dict(w_r_c=20, w_r_t=25, s_r_c=10, s_r_t=10),
    ("iPhone", "Safari"): dict(w_r_c=30, w_r_t=25, s_r_c=15, s_r_t=15),
}

T1_MOD_REGIONS = {
    ("Pixel", "Chrome"): dict(w_r_c=10, w_r_t=15, s_r_c=5, s_r_t=6),
    ("Pixel", "Safari"): dict(w_r_c=20, w_r_t=25, s_r_c=10, s_r_t=10),
    ("iPhone", "Safari"): dict(w_r_c=30, w_r_t=25, s_r_c=15, s_r_t=15),
}

# frozen from an independent scipy.integrate.quad run over each coordinate's
# path integrand (epsabs=epsrel=1e-14)
QUAD_ORACLE = {
    ("Pixel", "Chrome"): (0.16394911411495436, -0.067174920566567251, 0.096774193548387108),
    ("Pixel", "Safari"): (0.16394911411495436, 0.0, 0.16394911411495436),
    ("iPhone", "Safari"): (-0.16394911411495436, 0.0, -0.16394911411495436),
}


def random_density_metrics(rng, degenerate=False, k_hint=None):
    """A random population split into disjoint region blocks."""
    s_p_c = rng.uniform(0.5, 20.0)
    s_p_t = s_p_c if degenerate else s_p_c * rng.uniform(1.05, 2.0)
    w_p_c = rng.uniform(-50.0, 50.0)
    w_p_t = rng.uniform(-50.0, 50.0)
    k = k_hint if k_hint is not None else rng.randint(2, 8)
    blocks = []
    remaining = dict(w_c=w_p_c, w_t=w_p_t, s_c=s_p_c, s_t=s_p_t)
    for i in range(k - 1):
        frac = rng.uniform(0.05, 0.5)
        block = {key: remaining[key] * frac for key in remaining}
        for key in remaining:
            remaining[key] -= block[key]
        blocks.append(block)
    blocks.append(dict(remaining))
    pop = dict(w_p_c=w_p_c, w_p_t=w_p_t, s_p_c=s_p_c, s_p_t=s_p_t)
    return [SegmentedMetrics(w_r_c=b["w_c"], w_r_t=b["w_t"], s_r_c=b["s_c"], s_r_t=b["s_t"],
                             **pop) for b in blocks], pop


class TestSummable:
    def test_pixel_chrome_delta(self):
        m = SegmentedMetrics(w_r_c=10, w_r_t=15, **POP)
        assert summable_ras(m).ras == 5.0

    def test_completeness_at_root(self):
        m = SegmentedMetrics(w_r_c=60, w_r_t=65, **POP)
        assert summable_ras(m).ras == m.population_delta() == 5.0

    def test_empty_region(self):
        assert summable_ras(SegmentedMetrics(**POP)).ras == 0.0


class TestKindTable:
    def test_of_fills_the_totals_left_out_with_zero(self):
        assert SegmentedMetrics.of((10, 15), (60, 65, 30, 30)) == SegmentedMetrics(
            w_r_c=10, w_r_t=15, **POP)
        assert SegmentedMetrics.of((), (60, 65)) == SegmentedMetrics(w_p_c=60, w_p_t=65)

    def test_a_scorer_is_looked_up_by_name_when_called(self, monkeypatch):
        # a wrapper put in the module's namespace (as the benchmark's tracer does) runs
        calls = []

        def wrapper(m):
            calls.append(m)
            return attribute_density(m)

        monkeypatch.setattr(attribution, "attribute_density", wrapper)
        m = SegmentedMetrics(w_r_c=10, w_r_t=15, s_r_c=5, s_r_t=5, **POP)
        assert attribution_signals(m, "density")["ras"] == attribute_density(m).ras
        churn_decompose(m, [EntityMetrics("e", w_c=10, w_t=15, s_c=5, s_t=5)])
        assert len(calls) == 4  # one region, then its CO, TC and TO parts


class TestDensityClosedForm:
    def test_region_equal_to_population_gives_density_change(self):
        m = SegmentedMetrics(w_r_c=60, w_r_t=65, s_r_c=30, s_r_t=31, **POP_MOD)
        result = density_ras(m)
        assert result.ras == pytest.approx(m.population_density_change(), abs=1e-15)

    def test_all_zero_region(self):
        assert density_ras(SegmentedMetrics(**POP_MOD)).ras == 0.0

    def test_components_sum_to_ras(self):
        rng = random.Random(1)
        for _ in range(200):
            (m, *_), _ = random_density_metrics(rng, k_hint=2)
            result = density_ras(m)
            num, den = result.components
            assert abs(result.ras - (num + den)) <= 1e-12

    def test_modified_fixture_against_frozen_quadrature_oracle(self):
        for key, fields in T1_MOD_REGIONS.items():
            m = SegmentedMetrics(**fields, **POP_MOD)
            closed = density_ras(m)
            num, den, ras = QUAD_ORACLE[key]
            assert closed.ras == pytest.approx(ras, rel=1e-9)
            assert closed.components[0] == pytest.approx(num, rel=1e-9)
            assert closed.components[1] == pytest.approx(den, rel=1e-9, abs=1e-12)
            numeric = numeric_path_ras(density_model(m), coords=(0, 1))
            assert numeric.ras == pytest.approx(closed.ras, rel=1e-9)

    def test_degenerate_routed_away(self):
        m = SegmentedMetrics(w_r_c=10, w_r_t=15, s_r_c=5, s_r_t=5, **POP)
        with pytest.raises(DegenerateMetricsError):
            density_ras(m)

    def test_nonpositive_denominator_rejected(self):
        m = SegmentedMetrics(w_p_c=1, w_p_t=2, s_p_c=-3, s_p_t=4)
        with pytest.raises(DomainError):
            density_ras(m)
        with pytest.raises(DomainError):
            density_ras_degenerate(SegmentedMetrics(w_p_c=1, w_p_t=2, s_p_c=0, s_p_t=0))


class TestDegenerateCase:
    def test_fixture_values(self):
        expected = {("Pixel", "Chrome"): 5 / 30, ("Pixel", "Safari"): 5 / 30,
                    ("iPhone", "Safari"): -5 / 30}
        total = 0.0
        for key, fields in T1_REGIONS.items():
            m = SegmentedMetrics(**fields, **POP)
            result = density_ras_degenerate(m)
            assert result.ras == pytest.approx(expected[key], abs=1e-15)
            total += result.ras
        # partition sums to the population density change
        c_rho = SegmentedMetrics(**POP).population_density_change()
        assert total == pytest.approx(c_rho, abs=1e-15) and c_rho == pytest.approx(5 / 30)

    def test_matches_quadrature(self):
        rng = random.Random(2)
        for _ in range(200):
            (m, *_), _ = random_density_metrics(rng, degenerate=True, k_hint=2)
            closed = density_ras_degenerate(m)
            numeric = numeric_path_ras(density_model(m), coords=(0, 1))
            assert numeric.ras == pytest.approx(closed.ras, rel=1e-9, abs=1e-12)

    def test_dispatch(self):
        m = SegmentedMetrics(w_r_c=10, w_r_t=15, s_r_c=5, s_r_t=5, **POP)
        assert attribute_density(m).ras == pytest.approx(5 / 30)
        m2 = SegmentedMetrics(**T1_MOD_REGIONS[("Pixel", "Chrome")], **POP_MOD)
        assert attribute_density(m2).ras == pytest.approx(density_ras(m2).ras)

    def test_degenerate_continuity(self):
        rng = random.Random(3)
        for _ in range(50):
            (m0, *_), pop = random_density_metrics(rng, degenerate=True, k_hint=2)
            base = density_ras_degenerate(m0).ras
            diffs = []
            for eps in (1e-4, 1e-6, 1e-8):
                m_eps = SegmentedMetrics(
                    w_r_c=m0.w_r_c, w_r_t=m0.w_r_t, s_r_c=m0.s_r_c, s_r_t=m0.s_r_t,
                    w_p_c=m0.w_p_c, w_p_t=m0.w_p_t,
                    s_p_c=m0.s_p_c, s_p_t=m0.s_p_c * (1 + eps),
                )
                diffs.append(abs(density_ras(m_eps).ras - base))
            assert diffs[0] >= diffs[1] >= diffs[2] - 1e-15
            if base != 0:
                assert diffs[2] <= 1e-3 * abs(base) + 1e-12


class TestNumericPath:
    def test_summable_model_is_exact(self):
        m = SegmentedMetrics(w_r_c=10, w_r_t=15, **POP)
        result = numeric_path_ras(summable_model(m), coords=(0,), nodes=2)
        assert result.ras == pytest.approx(5.0, abs=1e-12)

    def test_zero_length_path(self):
        m = SegmentedMetrics(w_r_c=7, w_r_t=7, s_r_c=3, s_r_t=3,
                             w_p_c=20, w_p_t=20, s_p_c=9, s_p_t=9)
        result = numeric_path_ras(density_model(m))
        assert result.ras == 0.0
        assert all(a == 0.0 for a in result.per_coordinate)

    def test_full_coordinate_sum_reproduces_endpoint_difference(self):
        rng = random.Random(4)
        for _ in range(100):
            (m, *_), _ = random_density_metrics(rng, k_hint=2)
            model = density_model(m)
            result = numeric_path_ras(model)
            expected = model.f(*model.p1) - model.f(*model.p0)
            assert result.ras == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_coordinates_add_left_to_right(self):
        # 1e16 + 1.0 rounds, so the total depends on its addition order; Python
        # 3.12+ ``sum`` would compensate and give about 1.0
        model = RegionAmbientModel(f=lambda a, b, c: a + b + c, p0=(0, 0, 0),
                                   p1=(1e16, 1.0, -1e16), partials=(lambda a, b, c: 1.0,) * 3)
        result = numeric_path_ras(model)
        assert result.ras == functools.reduce(operator.add, result.per_coordinate)
        assert math.fsum(result.per_coordinate) != result.ras

    def test_finite_difference_fallback(self):
        m = SegmentedMetrics(w_r_c=8, w_r_t=11, s_r_c=4, s_r_t=5,
                             w_p_c=40, w_p_t=45, s_p_c=20, s_p_t=24)
        exact = density_ras(m)
        no_partials = RegionAmbientModel(
            f=lambda w, s, wa, sa: (w + wa) / (s + sa),
            p0=density_model(m).p0, p1=density_model(m).p1,
        )
        numeric = numeric_path_ras(no_partials, coords=(0, 1))
        assert numeric.ras == pytest.approx(exact.ras, rel=1e-6)

    def test_non_finite_path_rejected(self):
        model = RegionAmbientModel(f=lambda x: 1.0 / x, p0=(-1.0,), p1=(1.0,))
        with pytest.raises(NumericError):
            numeric_path_ras(model, nodes=33)


    @pytest.mark.parametrize("nodes", [True, 2.5, "3", 0, -1])
    def test_nodes_must_be_an_integer_of_at_least_one(self, nodes):
        model = summable_model(SegmentedMetrics(w_r_c=10, w_r_t=15, **POP))
        with pytest.raises(DomainError, match="nodes"):
            numeric_path_ras(model, nodes=nodes)

    @pytest.mark.parametrize("coords", ["01", [0.5], [True], [2], [-1], ["0"], [0, 0]])
    def test_coords_must_be_integers_in_range(self, coords):
        model = summable_model(SegmentedMetrics(w_r_c=10, w_r_t=15, **POP))
        with pytest.raises(DomainError, match="coordinates"):
            numeric_path_ras(model, coords=coords)


class TestGaussLegendreRule:
    """The quadrature rule on [0, 1] that ``numeric_path_ras`` integrates with."""

    def test_closed_forms(self):
        half = math.sqrt(3.0 / 5.0) / 2.0
        expected = {
            1: ((0.5,), (1.0,)),
            2: ((0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)), (0.5, 0.5)),
            3: ((0.5 - half, 0.5, 0.5 + half), (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)),
        }
        for n, (nodes, weights) in expected.items():
            ts, ws = attribution._gauss_legendre_01(n)
            assert ts == pytest.approx(nodes, abs=2e-16)
            assert ws == pytest.approx(weights, abs=2e-16)

    def test_rule_integrates_polynomials_below_degree_2n_exactly(self):
        for n in range(1, 101):
            ts, ws = attribution._gauss_legendre_01(n)
            assert len(ts) == len(ws) == n
            assert all(w > 0.0 for w in ws)
            assert 0.0 < ts[0] and ts[-1] < 1.0
            assert all(a < b for a, b in zip(ts, ts[1:]))
            assert math.fsum(ws) == pytest.approx(1.0, abs=1e-14)
            for k in range(2 * n):
                integral = math.fsum(w * t ** k for t, w in zip(ts, ws))
                assert integral == pytest.approx(1.0 / (k + 1), rel=1e-13), (n, k)

    def test_rule_matches_numpy_leggauss(self):
        np = pytest.importorskip("numpy")
        for n in range(1, 201):
            x, w = np.polynomial.legendre.leggauss(n)
            ts, ws = attribution._gauss_legendre_01(n)
            assert max(abs(a - b) for a, b in zip(ts, (x + 1.0) / 2.0)) <= 2.3e-16, n
            assert max(abs(a - b) for a, b in zip(ws, w / 2.0)) <= 1e-14, n


class TestAdditivityAndCompleteness:
    def test_additivity_density(self):
        rng = random.Random(5)
        for _ in range(300):
            (beta, gamma, *_), _ = random_density_metrics(rng, k_hint=3)
            union = beta.union(gamma)
            lhs = attribute_density(union).ras
            rhs = attribute_density(beta).ras + attribute_density(gamma).ras
            assert abs(lhs - rhs) <= 1e-9

    def test_additivity_summable(self):
        rng = random.Random(6)
        for _ in range(300):
            (beta, gamma, *_), _ = random_density_metrics(rng, k_hint=3)
            assert abs(summable_ras(beta.union(gamma)).ras
                       - summable_ras(beta).ras - summable_ras(gamma).ras) <= 1e-12

    def test_global_completeness_density(self):
        rng = random.Random(7)
        for _ in range(200):
            blocks, pop = random_density_metrics(rng, degenerate=rng.random() < 0.5)
            total = sum(attribute_density(b).ras for b in blocks)
            c_rho = blocks[0].population_density_change()
            assert abs(total - c_rho) <= 1e-9

    def test_subpopulation_completeness(self):
        rng = random.Random(8)
        for _ in range(100):
            blocks, pop = random_density_metrics(rng, k_hint=6)
            # treat the union of the first three blocks as a sub-region
            sub = blocks[0].union(blocks[1]).union(blocks[2])
            parts = sum(attribute_density(b).ras for b in blocks[:3])
            assert abs(parts - attribute_density(sub).ras) <= 1e-9


class TestChurnDecomposition:
    POP4 = dict(w_p_c=100.0, w_p_t=110.0, s_p_c=50.0, s_p_t=55.0)

    def test_persistent_entities_only(self):
        entities = [EntityMetrics("e1", w_c=4, w_t=5, s_c=2, s_t=2),
                    EntityMetrics("e2", w_c=6, w_t=7, s_c=3, s_t=4)]
        region = SegmentedMetrics(w_r_c=10, w_r_t=12, s_r_c=5, s_r_t=6, **self.POP4)
        churn = churn_decompose(region, entities)
        assert churn.control_only.ras == 0.0
        assert churn.test_only.ras == 0.0
        assert churn.test_control.ras == pytest.approx(attribute_density(region).ras)

    def test_test_only_entity_carries_its_solo_score(self):
        solo = EntityMetrics("new", w_c=0, w_t=3, s_c=0, s_t=1)
        persistent = EntityMetrics("old", w_c=10, w_t=9, s_c=5, s_t=5)
        region = SegmentedMetrics(w_r_c=10, w_r_t=12, s_r_c=5, s_r_t=6, **self.POP4)
        churn = churn_decompose(region, [solo, persistent])
        solo_metrics = SegmentedMetrics(w_r_c=0, w_r_t=3, s_r_c=0, s_r_t=1, **self.POP4)
        assert churn.test_only.ras == pytest.approx(attribute_density(solo_metrics).ras)

    def test_three_way_sum_equals_region_score(self):
        rng = random.Random(9)
        for _ in range(100):
            pop = dict(w_p_c=rng.uniform(50, 150), w_p_t=rng.uniform(50, 150),
                       s_p_c=rng.uniform(20, 60), s_p_t=rng.uniform(20, 60))
            entities = []
            for i in range(rng.randint(1, 10)):
                kind = rng.random()
                w_c = rng.uniform(0.1, 5) if kind < 0.7 else 0.0
                s_c = rng.uniform(0.1, 2) if w_c else 0.0
                w_t = rng.uniform(0.1, 5) if kind > 0.3 else 0.0
                s_t = rng.uniform(0.1, 2) if w_t else 0.0
                entities.append(EntityMetrics(f"e{i}", w_c, w_t, s_c, s_t))
            region = SegmentedMetrics(
                w_r_c=sum(e.w_c for e in entities), w_r_t=sum(e.w_t for e in entities),
                s_r_c=sum(e.s_c for e in entities), s_r_t=sum(e.s_t for e in entities),
                **pop)
            churn = churn_decompose(region, entities)
            assert abs(churn.total() - attribute_density(region).ras) <= 1e-9

    def test_inconsistent_totals_rejected(self):
        region = SegmentedMetrics(w_r_c=10, w_r_t=12, s_r_c=5, s_r_t=6, **self.POP4)
        with pytest.raises(ConsistencyError):
            churn_decompose(region, [EntityMetrics("e", w_c=1, w_t=1, s_c=1, s_t=1)])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, "1", True, None])
    def test_tol_must_be_a_finite_number_of_at_least_zero(self, tol):
        # no entity accounts for w_r_c = 8: a NaN tol would switch the check off
        region = SegmentedMetrics(w_r_c=8, **self.POP4)
        with pytest.raises(ConsistencyError):
            churn_decompose(region, [])
        with pytest.raises(DomainError, match="tol"):
            churn_decompose(region, [], tol=tol)

    def test_an_unknown_kind_is_a_domain_error(self):
        region = SegmentedMetrics(w_r_c=10, w_r_t=12, s_r_c=5, s_r_t=6, **self.POP4)
        entities = [EntityMetrics("e", w_c=10, w_t=12, s_c=5, s_t=6)]
        with pytest.raises(DomainError, match="unknown attribution kind 'other'"):
            churn_decompose(region, entities, kind="other")

    def test_summable_kind(self):
        pop = dict(w_p_c=100.0, w_p_t=110.0)
        entities = [EntityMetrics("a", w_c=5, w_t=0), EntityMetrics("b", w_c=0, w_t=4),
                    EntityMetrics("c", w_c=3, w_t=6)]
        region = SegmentedMetrics(w_r_c=8, w_r_t=10, **pop)
        churn = churn_decompose(region, entities, kind="summable")
        assert churn.control_only.ras == -5.0
        assert churn.test_only.ras == 4.0
        assert churn.test_control.ras == 3.0
        assert churn.total() == pytest.approx(summable_ras(region).ras)
