"""Region analysis models: declared feature requests plus pure signal evaluation.

A model declares which features it needs at the region (and optionally at the
population, i.e. the empty region), then maps an evaluation context to a flat
signal vector.  Signals flagged ``apriori`` are nonincreasing along region
refinement, which is what lets the crawler stop early.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .attribution import SegmentedMetrics, attribute_density, summable_ras
from .core import DimensionSchema, FeatureFrame, FeatureRequest, Region
from .errors import ContractError, DataError, ModelError, SchemaError, SpecError

PUSHDOWN_OPS = (">=", ">", "<=", "<")
#: comparators whose failure soundly prunes children (nonnegative SUM measures)
PRUNING_OPS = (">=", ">")


@dataclass(frozen=True)
class SignalSpec:
    name: str
    apriori: bool = False


@dataclass(frozen=True)
class PushdownTerm:
    """One conjunct of a pushdown predicate on a SUM measure."""

    measure: str
    op: str
    value: float

    def __post_init__(self):
        if self.op not in PUSHDOWN_OPS:
            raise SpecError(f"unknown pushdown comparator {self.op!r}")
        if not (isinstance(self.value, (int, float)) and abs(self.value) <= sys.float_info.max):
            raise SpecError(f"pushdown value {self.value!r} is not a finite number")

    def passes(self, measured: float) -> bool:
        if self.op == ">=":
            return measured >= self.value
        if self.op == ">":
            return measured > self.value
        if self.op == "<=":
            return measured <= self.value
        return measured < self.value


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a model sees for one region."""

    region: Region
    region_frame: FeatureFrame
    population_frame: FeatureFrame | None = None


class RegionAnalysisModel:
    """Base class carrying the declared requests, signals, gate flag, and pushdown."""

    def __init__(
        self,
        name: str,
        request: FeatureRequest,
        signals: Sequence[SignalSpec],
        population_request: FeatureRequest | None = None,
        gate: bool = False,
        pushdown: Sequence[PushdownTerm] = (),
    ):
        self.name = name
        self.request = request
        self.population_request = population_request
        self.signals = tuple(signals)
        self.gate = bool(gate)
        self.pushdown = tuple(pushdown)
        if len({s.name for s in self.signals}) != len(self.signals):
            raise SpecError(f"model {name!r} declares duplicate signal names")

    @property
    def signal_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.signals)

    def is_apriori(self, signal: str) -> bool:
        for s in self.signals:
            if s.name == signal:
                return s.apriori
        raise SpecError(f"model {self.name!r} does not declare signal {signal!r}")

    def validate_against(self, schema: DimensionSchema) -> None:
        self.request.validate(schema)
        if self.population_request is not None:
            self.population_request.validate(schema)
        for term in self.pushdown:
            if schema.measure(term.measure).agg != "sum":
                raise SpecError(f"pushdown predicate on non-SUM measure {term.measure!r}")

    def evaluate(self, ctx: EvaluationContext) -> dict[str, float]:
        raise NotImplementedError

    def run(self, ctx: EvaluationContext) -> dict[str, float]:
        """Evaluate with the full contract enforced: matching frames, exact finite signals."""
        self._check_frame(ctx.region_frame, self.request, "region")
        if self.population_request is not None:
            if ctx.population_frame is None:
                raise ContractError(f"model {self.name!r} requires a population frame")
            self._check_frame(ctx.population_frame, self.population_request, "population")
        elif ctx.population_frame is not None:
            raise ContractError(f"model {self.name!r} declared no population request")
        out = self.evaluate(ctx)
        if set(out) != set(self.signal_names):
            raise ModelError(
                f"model {self.name!r} returned signals {sorted(out)}, declared {sorted(self.signal_names)}"
            )
        clean = {}
        for k in self.signal_names:
            v = out[k]
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ModelError(f"model {self.name!r} signal {k!r} is not a finite number: {v!r}")
            clean[k] = float(v)
        return clean

    def _check_frame(self, frame: FeatureFrame, request: FeatureRequest, which: str) -> None:
        if (
            frame.attribute_names != request.attribute_features
            or frame.measure_names != request.metric_features
        ):
            raise ContractError(
                f"model {self.name!r}: {which} frame {frame.attribute_names}+{frame.measure_names} "
                f"does not match request {request.attribute_features}+{request.metric_features}"
            )

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


def _sum_column(frame: FeatureFrame, measure: str) -> float:
    col = frame.measure_column(measure)
    for v in col:
        if v is None:
            raise ModelError(f"measure {measure!r} carries an absent-side sentinel; "
                             "this model does not opt into joined-null handling")
    return sum(col)


def _segment_totals(frame: FeatureFrame, measure: str, test_value,
                    model: str) -> tuple[float, float]:
    """Sums of ``measure`` where the first attribute is ``test_value`` and elsewhere."""
    test = control = 0.0
    idx = frame.measure_names.index(measure)
    for attrs, measures in frame.iter_rows():
        v = measures[idx]
        if v is None:
            raise ModelError(f"{model} model does not handle absent-side sentinels")
        if attrs[0] == test_value:
            test += v
        else:
            control += v
    return test, control


class IdModel(RegionAnalysisModel):
    """Passes requested metric aggregates through as signals, one per measure.

    Apriori flags resolve lazily: COUNT_DISTINCT measures are always apriori,
    SUM measures only if declared so explicitly.
    """

    def __init__(self, metrics: Sequence[str], apriori: Mapping[str, bool] | None = None,
                 name: str = "id", gate: bool = False, pushdown: Sequence[PushdownTerm] = ()):
        metrics = tuple(metrics)
        self._explicit_apriori = dict(apriori or {})
        signals = tuple(SignalSpec(m, self._explicit_apriori.get(m, False)) for m in metrics)
        super().__init__(name, FeatureRequest((), metrics), signals,
                         gate=gate, pushdown=pushdown)

    def validate_against(self, schema):
        super().validate_against(schema)
        resolved = []
        for m in self.request.metric_features:
            flag = self._explicit_apriori.get(m)
            if flag is None:
                flag = schema.measure(m).agg == "count_distinct"
            resolved.append(SignalSpec(m, flag))
        self.signals = tuple(resolved)

    def evaluate(self, ctx):
        out = {}
        for m in self.request.metric_features:
            out[m] = float(_sum_column(ctx.region_frame, m))
        return out


class EntityWeightModel(RegionAnalysisModel):
    """Total of one nonnegative summable measure; its weight signal is apriori."""

    def __init__(self, metric: str, name: str = "entity_weight", gate: bool = False,
                 min_weight_pushdown: float | None = None):
        pushdown = ()
        if min_weight_pushdown is not None:
            pushdown = (PushdownTerm(metric, ">=", float(min_weight_pushdown)),)
        super().__init__(name, FeatureRequest((), (metric,)),
                         (SignalSpec("total_weight", apriori=True),),
                         gate=gate, pushdown=pushdown)
        self.metric = metric

    def validate_against(self, schema):
        super().validate_against(schema)
        if schema.measure(self.metric).agg != "sum":
            raise SpecError(f"entity weight needs a SUM measure, got {self.metric!r}")

    def evaluate(self, ctx):
        total = _sum_column(ctx.region_frame, self.metric)
        if total < 0:
            raise DataError(
                f"negative total {total!r} for {self.metric!r}: apriori weight needs nonnegative data"
            )
        return {"total_weight": float(total)}


class FrequentItemsetModel(RegionAnalysisModel):
    """Reads a COUNT_DISTINCT transaction-id measure as the itemset support signal."""

    def __init__(self, support_measure: str = "support", name: str = "frequent_itemset"):
        super().__init__(name, FeatureRequest((), (support_measure,)),
                         (SignalSpec("support", apriori=True),))
        self.support_measure = support_measure

    def validate_against(self, schema):
        super().validate_against(schema)
        if schema.measure(self.support_measure).agg != "count_distinct":
            raise SchemaError(
                f"support measure {self.support_measure!r} must be COUNT_DISTINCT over the transaction id"
            )

    def evaluate(self, ctx):
        return {"support": float(_sum_column(ctx.region_frame, self.support_measure))}


class DiffModel(RegionAnalysisModel):
    """Two-segment differencing statistics over a weight measure.

    support_ratio = region test weight / population test weight (apriori for
    nonnegative weights).  risk_ratio = support_ratio / the control analog.
    A zero control share is a model error unless epsilon smoothing is enabled.
    """

    def __init__(self, weight_measure: str, segment_dim: str = "is_test", test_value=True,
                 epsilon: float = 0.0, name: str = "diff", gate: bool = False):
        request = FeatureRequest((segment_dim,), (weight_measure,))
        super().__init__(name, request,
                         (SignalSpec("support_ratio", apriori=True), SignalSpec("risk_ratio")),
                         population_request=request, gate=gate)
        self.weight_measure = weight_measure
        self.segment_dim = segment_dim
        self.test_value = test_value
        self.epsilon = float(epsilon)
        if not 0 <= self.epsilon <= sys.float_info.max:
            raise SpecError(f"epsilon must be a finite number >= 0, got {epsilon!r}")

    def evaluate(self, ctx):
        measure, test_value = self.weight_measure, self.test_value
        r_t, r_c = _segment_totals(ctx.region_frame, measure, test_value, "diff")
        p_t, p_c = _segment_totals(ctx.population_frame, measure, test_value, "diff")
        if p_t <= 0 or p_c <= 0:
            raise ModelError("diff model needs positive population weight in both segments")
        test_share = r_t / p_t
        control_share = r_c / p_c
        if control_share == 0 and self.epsilon == 0:
            raise ModelError(
                f"zero control share in region {ctx.region!r}; enable epsilon smoothing to proceed"
            )
        if self.epsilon:
            risk = (test_share + self.epsilon) / (control_share + self.epsilon)
        else:
            risk = test_share / control_share
        return {"support_ratio": test_share, "risk_ratio": risk}


class EntityModel(RegionAnalysisModel):
    """Counts distinct entity tuples in the region frame (group-by on entity columns)."""

    def __init__(self, entity_columns: Sequence[str], name: str = "entity", gate: bool = False):
        super().__init__(name, FeatureRequest(tuple(entity_columns), ()),
                         (SignalSpec("entity_count", apriori=True),), gate=gate)

    def evaluate(self, ctx):
        return {"entity_count": float(ctx.region_frame.n_rows)}


class EntityMeasureModel(RegionAnalysisModel):
    """Entity counting via a constant-one SUM measure: rows are entities, measure is ignored."""

    def __init__(self, entity_columns: Sequence[str], entity_measure: str,
                 name: str = "entity_measure", gate: bool = False):
        super().__init__(name, FeatureRequest(tuple(entity_columns), (entity_measure,)),
                         (SignalSpec("entity_count", apriori=True),), gate=gate)

    def evaluate(self, ctx):
        return {"entity_count": float(ctx.region_frame.n_rows)}


class WindowOutlierModel(RegionAnalysisModel):
    """Last-point z-score against a trailing window, population-normalized.

    The region's per-date series is aligned to the population's dates (missing
    dates count as zero).  z_score compares the last point to the mean of the
    ``window`` points before it; a constant window with no deviation scores 0,
    while a jump off a flat window divides by a tiny floor instead of zero so
    the score stays finite.  hybrid_score = |z_score| * region_share.
    """

    STD_FLOOR = 1e-9

    def __init__(self, date_dim: str, metric: str, window: int,
                 name: str = "window_outlier", gate: bool = False):
        if window < 1:
            raise SpecError("window must be at least 1")
        request = FeatureRequest((date_dim,), (metric,))
        super().__init__(name, request,
                         (SignalSpec("z_score"), SignalSpec("region_share", apriori=True),
                          SignalSpec("hybrid_score")),
                         population_request=request, gate=gate)
        self.date_dim = date_dim
        self.metric = metric
        self.window = int(window)

    def evaluate(self, ctx):
        pop_dates = ctx.population_frame.attribute_column(self.date_dim)
        if len(pop_dates) < self.window + 1:
            raise ModelError(
                f"need at least {self.window + 1} dates, population has {len(pop_dates)}"
            )
        pop_total = _sum_column(ctx.population_frame, self.metric)
        by_date = {d: v for (d,), (v,) in ctx.region_frame.iter_rows()}
        series = [by_date.get(d, 0) for d in pop_dates]
        last = series[-1]
        window_vals = series[-1 - self.window:-1]
        mean = sum(window_vals) / self.window
        var = sum((v - mean) ** 2 for v in window_vals) / self.window
        std = math.sqrt(var)
        dev = last - mean
        z = 0.0 if dev == 0 else dev / max(std, self.STD_FLOOR)
        region_total = sum(series)
        share = region_total / pop_total if pop_total != 0 else 0.0
        return {"z_score": z, "region_share": share, "hybrid_score": abs(z) * share}


class AttributionModel(RegionAnalysisModel):
    """Per-region attribution of a population metric change between two segments.

    Summable mode (no denominator) emits the plain region delta.  Density mode
    emits the path-integral score plus its numerator/denominator components,
    switching to the degenerate closed form when the population denominators
    coincide.
    """

    def __init__(self, numerator: str, denominator: str | None = None,
                 segment_dim: str = "is_test", test_value=True,
                 name: str = "attribution", gate: bool = False):
        metrics = (numerator,) if denominator is None else (numerator, denominator)
        request = FeatureRequest((segment_dim,), metrics)
        if denominator is None:
            signals = (SignalSpec("ras"),)
        else:
            signals = (SignalSpec("ras"), SignalSpec("numerator_part"), SignalSpec("denominator_part"))
        super().__init__(name, request, signals, population_request=request, gate=gate)
        self.numerator = numerator
        self.denominator = denominator
        self.segment_dim = segment_dim
        self.test_value = test_value

    def _totals(self, frame: FeatureFrame, measure: str) -> tuple[float, float]:
        return _segment_totals(frame, measure, self.test_value, "attribution")

    def evaluate(self, ctx):
        w_r_t, w_r_c = self._totals(ctx.region_frame, self.numerator)
        w_p_t, w_p_c = self._totals(ctx.population_frame, self.numerator)
        if self.denominator is None:
            m = SegmentedMetrics(w_r_c=w_r_c, w_r_t=w_r_t, w_p_c=w_p_c, w_p_t=w_p_t)
            return {"ras": summable_ras(m).ras}
        s_r_t, s_r_c = self._totals(ctx.region_frame, self.denominator)
        s_p_t, s_p_c = self._totals(ctx.population_frame, self.denominator)
        m = SegmentedMetrics(w_r_c=w_r_c, w_r_t=w_r_t, s_r_c=s_r_c, s_r_t=s_r_t,
                             w_p_c=w_p_c, w_p_t=w_p_t, s_p_c=s_p_c, s_p_t=s_p_t)
        result = attribute_density(m)
        num, den = result.components
        return {"ras": result.ras, "numerator_part": num, "denominator_part": den}


class LambdaModel(RegionAnalysisModel):
    """Wraps a user-supplied evaluation function behind the declared requests/signals."""

    def __init__(self, name: str, request: FeatureRequest, signals: Sequence[SignalSpec],
                 fn: Callable[[EvaluationContext], Mapping[str, float]],
                 population_request: FeatureRequest | None = None,
                 gate: bool = False, pushdown: Sequence[PushdownTerm] = ()):
        super().__init__(name, request, signals, population_request=population_request,
                         gate=gate, pushdown=pushdown)
        self._fn = fn

    def evaluate(self, ctx):
        return dict(self._fn(ctx))


#: built-in model kinds of run configs; a kind's params are its class's keywords
MODEL_KINDS: dict[str, type[RegionAnalysisModel]] = {
    "id": IdModel,
    "entity_weight": EntityWeightModel,
    "frequent_itemset": FrequentItemsetModel,
    "diff": DiffModel,
    "entity": EntityModel,
    "entity_measure": EntityMeasureModel,
    "window_outlier": WindowOutlierModel,
    "attribution": AttributionModel,
}


def build_model(kind: str, params: Mapping, gate: bool = False,
                pushdown: Sequence[Sequence] = ()) -> RegionAnalysisModel:
    """Construct a built-in model from a config mapping (used by run configs).

    ``params`` are the keywords of the kind's class in ``MODEL_KINDS``.
    ``gate`` and the ``pushdown`` terms apply to every kind and are not
    params; the terms follow any pushdown the kind declares itself
    (``min_weight_pushdown``).
    """
    terms = tuple(PushdownTerm(m, op, float(v)) for m, op, v in pushdown)
    if kind not in MODEL_KINDS:
        raise SpecError(f"unknown model kind {kind!r}")
    cls = MODEL_KINDS[kind]
    if {"gate", "pushdown"} & set(params):
        raise SpecError(f"model {kind!r}: 'gate' and 'pushdown' go beside 'params', not in it")
    try:
        inspect.signature(cls).bind(**params)
    except TypeError as exc:
        raise SpecError(f"model {kind!r}: {exc}") from None
    model = cls(**params)
    model.gate = bool(gate)
    model.pushdown = model.pushdown + terms
    return model
