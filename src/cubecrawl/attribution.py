"""Metric-change attribution along the straight control-to-test path.

A region-ambient model reconstructs the population metric from a region's
metrics and its complement's metrics.  Integrating each coordinate's partial
derivative along the straight path between the control point and the test
point yields per-region scores that are additive over disjoint regions and
sum to the population change.  Closed forms cover the summable and density
cases (including the equal-denominator degenerate case); fixed-order
Gauss-Legendre quadrature covers arbitrary smooth models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .core import finite_number, integer, sum_in_order
from .errors import ConsistencyError, DegenerateMetricsError, DomainError, NumericError

#: relative spread below which population denominators count as equal
DEGENERACY_RTOL = 1e-12

DEFAULT_QUAD_NODES = 64

#: relative step for central finite differences on user-supplied models
FD_STEP = 1e-6


@dataclass(frozen=True)
class SegmentedMetrics:
    """Region and population (w, s) totals for the control and test segments.

    ``w`` is the summable numerator, ``s`` the summable denominator (unused in
    summable-only attribution).  Population values are constants shared by all
    regions of one attribution run.
    """

    w_r_c: float = 0.0
    w_r_t: float = 0.0
    s_r_c: float = 0.0
    s_r_t: float = 0.0
    w_p_c: float = 0.0
    w_p_t: float = 0.0
    s_p_c: float = 0.0
    s_p_t: float = 0.0

    def population_delta(self) -> float:
        return self.w_p_t - self.w_p_c

    def population_density_change(self) -> float:
        if self.s_p_c <= 0 or self.s_p_t <= 0:
            raise DomainError("population denominators must be positive")
        return self.w_p_t / self.s_p_t - self.w_p_c / self.s_p_c

    def is_degenerate(self, rtol: float = DEGENERACY_RTOL) -> bool:
        return abs(self.s_p_t - self.s_p_c) <= rtol * max(abs(self.s_p_t), abs(self.s_p_c))

    @classmethod
    def of(cls, region: Sequence[float], population: Sequence[float]) -> "SegmentedMetrics":
        """Metrics from a region's and the population's (w_control, w_test[, s_control,
        s_test]) totals; the s totals left out are 0.0."""
        zeros = (0.0,) * 4
        return cls(*region, *zeros[len(region):], *population, *zeros[len(population):])

    def union(self, other: "SegmentedMetrics") -> "SegmentedMetrics":
        """Metrics of the union of two disjoint regions (population unchanged)."""
        if (self.w_p_c, self.w_p_t, self.s_p_c, self.s_p_t) != (
            other.w_p_c, other.w_p_t, other.s_p_c, other.s_p_t
        ):
            raise ConsistencyError("cannot union regions from different populations")
        return replace(self, w_r_c=self.w_r_c + other.w_r_c, w_r_t=self.w_r_t + other.w_r_t,
                       s_r_c=self.s_r_c + other.s_r_c, s_r_t=self.s_r_t + other.s_r_t)


@dataclass(frozen=True)
class AttributionResult:
    """A region's attribution score, optionally split into components.

    For density attribution ``components`` is (numerator_part,
    denominator_part) and their sum equals ``ras``.  ``per_coordinate`` is
    populated by the numeric path route.
    """

    ras: float
    components: tuple[float, float] | None = None
    per_coordinate: tuple[float, ...] | None = None


def summable_ras(m: SegmentedMetrics) -> AttributionResult:
    """Attribution of a summable metric: simply the region's test-control delta."""
    return AttributionResult(m.w_r_t - m.w_r_c)


def _check_positive_denominators(m: SegmentedMetrics) -> None:
    if m.s_p_c <= 0 or m.s_p_t <= 0:
        raise DomainError(
            f"population denominators must be positive, got control={m.s_p_c!r} test={m.s_p_t!r}"
        )


def density_ras(m: SegmentedMetrics) -> AttributionResult:
    """Closed-form density attribution for distinct population denominators.

    numerator_part  = dw_r * (ln s_p_t - ln s_p_c) / ds_p
    denominator_part = ds_r * [ C_rho / ds_p - dw_p * (ln s_p_t - ln s_p_c) / ds_p^2 ]
    """
    _check_positive_denominators(m)
    if m.is_degenerate():
        raise DegenerateMetricsError(
            "population denominators coincide; use the degenerate formula"
        )
    ds_p = m.s_p_t - m.s_p_c
    log_ratio = (math.log(m.s_p_t) - math.log(m.s_p_c)) / ds_p
    numerator_part = (m.w_r_t - m.w_r_c) * log_ratio
    c_rho = m.population_density_change()
    denominator_part = (m.s_r_t - m.s_r_c) * (
        c_rho / ds_p - (m.w_p_t - m.w_p_c) * log_ratio / ds_p
    )
    return AttributionResult(numerator_part + denominator_part, (numerator_part, denominator_part))


def density_ras_degenerate(m: SegmentedMetrics) -> AttributionResult:
    """Density attribution when both population denominators equal s_p.

    ras = dw_r / s_p - ds_r * (w_p_t + w_p_c) / (2 * s_p^2)
    """
    _check_positive_denominators(m)
    s_p = m.s_p_c
    numerator_part = (m.w_r_t - m.w_r_c) / s_p
    denominator_part = -(m.s_r_t - m.s_r_c) * (m.w_p_t + m.w_p_c) / (2.0 * s_p * s_p)
    return AttributionResult(numerator_part + denominator_part, (numerator_part, denominator_part))


def attribute_density(m: SegmentedMetrics) -> AttributionResult:
    """Density attribution with the degeneracy switch applied."""
    if m.is_degenerate():
        return density_ras_degenerate(m)
    return density_ras(m)


class AttributionKind(NamedTuple):
    """An attribution kind: the name of its scorer, its signals (``ras``, then the result's
    components), its population change, and how many of (w_control, w_test, s_control,
    s_test) it reads."""

    scorer: str
    signals: tuple[str, ...]
    population_change: Callable[[SegmentedMetrics], float]
    totals: int

    def score(self, m: SegmentedMetrics) -> AttributionResult:
        # by name when called: a scorer replaced in this namespace (bench/tracing.py) runs
        return globals()[self.scorer](m)


ATTRIBUTION_KINDS = {
    "density": AttributionKind("attribute_density", ("ras", "numerator_part", "denominator_part"),
                               SegmentedMetrics.population_density_change, 4),
    "summable": AttributionKind("summable_ras", ("ras",), SegmentedMetrics.population_delta, 2),
}


def attribution_signals(m: SegmentedMetrics, kind: str) -> dict[str, float]:
    """The signals of the attribution kind ``kind`` for ``m``."""
    entry = ATTRIBUTION_KINDS[kind]
    result = entry.score(m)
    return dict(zip(entry.signals, (result.ras, *(result.components or ()))))


@dataclass(frozen=True)
class RegionAmbientModel:
    """A differentiable population reconstruction F with its two path endpoints.

    ``p0`` holds the control-segment coordinates, ``p1`` the test-segment
    coordinates.  ``partials`` may supply analytic partial derivatives; when
    absent, central finite differences are used.
    """

    f: Callable[..., float]
    p0: tuple[float, ...]
    p1: tuple[float, ...]
    partials: tuple[Callable[..., float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "p0", tuple(float(v) for v in self.p0))
        object.__setattr__(self, "p1", tuple(float(v) for v in self.p1))
        if len(self.p0) != len(self.p1):
            raise DomainError("path endpoints have different arity")
        if self.partials is not None and len(self.partials) != len(self.p0):
            raise DomainError("one partial derivative per coordinate required")


def summable_model(m: SegmentedMetrics) -> RegionAmbientModel:
    """F(w, w') = w + w' with the region/ambient split of the numerator."""
    return RegionAmbientModel(
        f=lambda w, wa: w + wa,
        p0=(m.w_r_c, m.w_p_c - m.w_r_c),
        p1=(m.w_r_t, m.w_p_t - m.w_r_t),
        partials=(lambda w, wa: 1.0, lambda w, wa: 1.0),
    )


def density_model(m: SegmentedMetrics) -> RegionAmbientModel:
    """F(w, s, w', s') = (w + w') / (s + s') with region/ambient splits."""
    def f(w, s, wa, sa):
        return (w + wa) / (s + sa)

    def dw(w, s, wa, sa):
        return 1.0 / (s + sa)

    def ds(w, s, wa, sa):
        return -(w + wa) / (s + sa) ** 2

    return RegionAmbientModel(
        f=f,
        p0=(m.w_r_c, m.s_r_c, m.w_p_c - m.w_r_c, m.s_p_c - m.s_r_c),
        p1=(m.w_r_t, m.s_r_t, m.w_p_t - m.w_r_t, m.s_p_t - m.s_r_t),
        partials=(dw, ds, dw, ds),
    )


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for n >= 1 and |x| != 1."""
    p, prev = x, 1.0
    for k in range(2, n + 1):
        p, prev = ((2 * k - 1) * x * p - (k - 1) * prev) / k, p
    return p, n * (x * p - prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_legendre_01(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The ``nodes``-point Gauss-Legendre rule on [0, 1]: ascending nodes, and weights.

    Each root x of P_n is found by Newton's method from cos(pi (i - 1/4) / (n + 1/2));
    its weight on [-1, 1] is 2 / ((1 - x^2) P_n'(x)^2), halved for [0, 1].
    """
    ts, weights = [], []
    for i in range(nodes, 0, -1):
        x = math.cos(math.pi * (i - 0.25) / (nodes + 0.5))
        step = 1.0
        while abs(step) > 1e-15:
            p, dp = _legendre(nodes, x)
            step = p / dp
            x -= step
        dp = _legendre(nodes, x)[1]
        ts.append((x + 1.0) / 2.0)
        weights.append(1.0 / ((1.0 - x * x) * dp * dp))
    return tuple(ts), tuple(weights)


def _finite_partial(f, z, i, scale):
    h = FD_STEP * max(1.0, abs(scale))
    up = list(z)
    down = list(z)
    up[i] += h
    down[i] -= h
    return (f(*up) - f(*down)) / (2.0 * h)


def numeric_path_ras(
    model: RegionAmbientModel,
    coords: Sequence[int] | None = None,
    nodes: int = DEFAULT_QUAD_NODES,
) -> AttributionResult:
    """Per-coordinate path-integral attribution by Gauss-Legendre quadrature.

    attribution_i = integral_0^1 dF/dz_i(h(t)) * (p1_i - p0_i) dt, where h is
    the straight path between the endpoints.  ``ras`` sums the requested
    coordinates; summing over all coordinates reproduces F(p1) - F(p0) up to
    quadrature error.
    """
    if not integer(nodes) or nodes < 1:
        raise DomainError(f"quadrature needs an integer number of nodes >= 1, got {nodes!r}")
    arity = len(model.p0)
    if isinstance(coords, str):
        raise DomainError(f"coordinates must be a sequence of integers, not the string {coords!r}")
    coords = tuple(range(arity)) if coords is None else tuple(coords)
    if not all(integer(c) and 0 <= c < arity for c in coords) or len(set(coords)) < len(coords):
        raise DomainError(f"coordinates must be distinct integers in range for arity {arity}, "
                          f"got {coords!r}")
    deltas = [p1 - p0 for p0, p1 in zip(model.p0, model.p1)]
    ts, weights = _gauss_legendre_01(nodes)
    totals = {c: 0.0 for c in coords}
    for t, weight in zip(ts, weights):
        z = tuple(p0 + t * d for p0, d in zip(model.p0, deltas))
        try:
            value = model.f(*z)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise NumericError(f"model undefined at t={t!r}: {exc}") from None
        if not math.isfinite(value):
            raise NumericError(f"model value not finite at t={t!r}")
        for c in coords:
            if deltas[c] == 0.0:
                continue
            try:
                if model.partials is not None:
                    partial = model.partials[c](*z)
                else:
                    partial = _finite_partial(model.f, z, c, z[c])
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                raise NumericError(f"partial derivative {c} undefined at t={t!r}: {exc}") from None
            if not math.isfinite(partial):
                raise NumericError(f"partial derivative {c} not finite at t={t!r}")
            totals[c] += weight * partial * deltas[c]
    per_coordinate = tuple(totals[c] for c in coords)
    components = tuple(per_coordinate) if len(coords) == 2 else None
    return AttributionResult(sum_in_order(per_coordinate), components, per_coordinate)


@dataclass(frozen=True)
class EntityMetrics:
    """Per-entity segmented totals inside one region."""

    entity: object
    w_c: float = 0.0
    w_t: float = 0.0
    s_c: float = 0.0
    s_t: float = 0.0

    def in_control(self) -> bool:
        return self.w_c != 0 or self.s_c != 0

    def in_test(self) -> bool:
        return self.w_t != 0 or self.s_t != 0


@dataclass(frozen=True)
class ChurnDecomposition:
    """Attribution split across control-only, test-and-control, and test-only traffic."""

    control_only: AttributionResult
    test_control: AttributionResult
    test_only: AttributionResult

    def as_dict(self) -> dict[str, AttributionResult]:
        return {"CO": self.control_only, "TC": self.test_control, "TO": self.test_only}

    def total(self) -> float:
        return self.control_only.ras + self.test_control.ras + self.test_only.ras


def churn_decompose(
    region: SegmentedMetrics,
    entities: Sequence[EntityMetrics],
    kind: str = "density",
    tol: float = 1e-9,
) -> ChurnDecomposition:
    """Split a region's attribution by entity churn class.

    Entities present only in control (CO), in both segments (TC), or only in
    test (TO) form three disjoint sub-regions; each gets the active formula.
    Entity totals must reproduce the region totals within ``tol``.
    """
    if kind not in ATTRIBUTION_KINDS:
        raise DomainError(f"unknown attribution kind {kind!r}")
    if not finite_number(tol) or tol < 0:
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    sums = {"CO": [0.0] * 4, "TC": [0.0] * 4, "TO": [0.0] * 4}
    for e in entities:
        in_c, in_t = e.in_control(), e.in_test()
        if in_c and not in_t:
            bucket = "CO"
        elif in_t and not in_c:
            bucket = "TO"
        else:
            bucket = "TC"  # both segments, or an all-zero entity
        sums[bucket] = [a + v for a, v in zip(sums[bucket], (e.w_c, e.w_t, e.s_c, e.s_t))]
    totals = [sum_in_order(column) for column in zip(*sums.values())]
    expected = (region.w_r_c, region.w_r_t, region.s_r_c, region.s_r_t)
    for got, want, label in zip(totals, expected, ("w_c", "w_t", "s_c", "s_t")):
        if abs(got - want) > tol:
            raise ConsistencyError(
                f"entity {label} total {got!r} disagrees with region total {want!r}"
            )
    population = (region.w_p_c, region.w_p_t, region.s_p_c, region.s_p_t)
    score = ATTRIBUTION_KINDS[kind].score
    return ChurnDecomposition(*(score(SegmentedMetrics.of(sums[bucket], population))
                                for bucket in ("CO", "TC", "TO")))
