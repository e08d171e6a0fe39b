"""Independent brute-force oracles the engine is checked against.

Everything here works on plain Python rows (lists of dicts) and deliberately
shares no code with the engine's group-by, crawl, or attribution paths.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from cubecrawl.core import (ANY, NULL, AbstractCube, FeatureFrame, FeatureRequest, Region,
                            RegionCursor)


def rows_matching(rows, bindings):
    return [r for r in rows if all(r[d] == v for d, v in bindings.items())]


def group_by(rows, attrs, sum_cols=(), distinct_cols=()):
    """Plain-dict group-by: returns {attr tuple: {col: aggregate}}.  Each SUM adds its
    group's values left to right in row order, as the engine's float sums do on every
    Python (``sum`` compensates float rounding from Python 3.12)."""
    groups = {}
    for r in rows:
        key = tuple(r[a] for a in attrs)
        groups.setdefault(key, []).append(r)
    out = {}
    for key, members in groups.items():
        agg = {}
        for c in sum_cols:
            agg[c] = functools.reduce(operator.add, (m[c] for m in members), 0)
        for name, cols in distinct_cols:
            agg[name] = len({tuple(m[c] for c in cols) for m in members})
        out[key] = agg
    return out


def cells_view(cellset, region, request):
    """The view of ``region`` read off the cells one at a time: each cell whose slots
    hold the region's values, a value at every other requested attribute and ANY
    elsewhere gives a row."""
    names = cellset.schema.dimension_names
    bindings = region.bindings()
    concrete = set(bindings) | set(request.attribute_features)
    rows = {}
    for cell, measures in cellset.cells.items():
        slots = dict(zip(names, cell))
        if all((slots[d] is not ANY) == (d in concrete) for d in names) \
                and all(slots[d] == v for d, v in bindings.items()):
            rows[tuple(slots[a] for a in request.attribute_features)] = \
                tuple(measures[m] for m in request.metric_features)
    return FeatureFrame(request.attribute_features, request.metric_features, rows)


class ViewCube(AbstractCube):
    """A cube whose every view is ``answer(region, request)``, an oracle's frame, with
    a cursor that reads a region's values and children off those views alone: the
    reference a cube's own cursor is checked against."""

    def __init__(self, schema, answer):
        self._schema = schema
        self.answer = answer

    @property
    def schema(self):
        return self._schema

    def bind(self, region):
        return ViewCursor(self, region)


class ViewCursor(RegionCursor):
    def view(self, request):
        return self.cube.answer(self.region, request)

    def values(self, dim):
        return self.view(FeatureRequest((dim,), ())).attribute_column(dim)

    def child(self, dim, value):
        return ViewCursor(self.cube, self.region.with_binding(dim, value))


def apriori_itemsets(transactions, min_support):
    """Level-wise frequent itemset enumeration over raw transactions."""
    txns = [frozenset(t) for t in transactions]
    items = sorted({i for t in txns for i in t})
    out = {}
    for k in range(1, len(items) + 1):
        found_any = False
        for combo in itertools.combinations(items, k):
            s = frozenset(combo)
            support = sum(1 for t in txns if s <= t)
            if support >= min_support:
                out[s] = support
                found_any = True
        if not found_any:
            break
    return out


def fd_check(rows, determinants, dependents):
    """True iff every determinant projection maps to one dependent projection."""
    seen = {}
    for r in rows:
        key = tuple(r[d] for d in determinants)
        value = tuple(r[d] for d in dependents)
        if key in seen and seen[key] != value:
            return False
        seen[key] = value
    return True


def fd_violating_keys(rows, determinants, dependents):
    mapping = {}
    for r in rows:
        key = tuple(r[d] for d in determinants)
        mapping.setdefault(key, set()).add(tuple(r[d] for d in dependents))
    return {k for k, vals in mapping.items() if len(vals) > 1}


def segment_totals(rows, bindings, cols, segment_col="is_test"):
    """The region's control and test sums of each column in ``cols``, flattened as
    (control, test) pairs in ``cols`` order; a row is in test iff its segment is true."""
    region = rows_matching(rows, bindings)
    return tuple(total for c in cols
                 for total in (sum(r[c] for r in region if not r[segment_col]),
                               sum(r[c] for r in region if r[segment_col])))


def diff_statistics(rows, bindings, weight_col, segment_col="is_test"):
    """Direct two-table share computation for the differencing model."""
    pop_c, pop_t = segment_totals(rows, {}, (weight_col,), segment_col)
    reg_c, reg_t = segment_totals(rows, bindings, (weight_col,), segment_col)
    support_ratio = reg_t / pop_t
    control_share = reg_c / pop_c
    risk_ratio = support_ratio / control_share if control_share else math.inf
    return support_ratio, risk_ratio


def mean_std(values):
    """Reference mean and population standard deviation."""
    n = len(values)
    m = sum(values) / n
    return m, math.sqrt(sum((v - m) ** 2 for v in values) / n)


def join_view(left_rows, right_rows, on, region, attrs, left_measures, right_measures,
              kind="inner", dims=None):
    """One view of two row sets joined on the dimensions ``on``.

    Each side is filtered by the region's bindings on its own columns and
    grouped by the requested attributes it has; the two groupings are joined
    on the requested join dimensions.  In a left join an unmatched left group
    keeps ``None`` for every right measure, unless the region or the
    attributes name a dimension only the right side has.  ``dims`` is the
    (left, right) pair of each side's dimension names; by default each side's
    columns are read off its first row.  Returns
    ``{attribute tuple: (left sums..., right sums...)}``.
    """
    if dims is None:
        dims = tuple(set(rows[0]) if rows else set() for rows in (left_rows, right_rows))
    left_cols, right_cols = map(set, dims)

    def grouped(rows, cols, measures):
        side_attrs = [a for a in attrs if a in cols]
        bindings = {d: v for d, v in region.items() if d in cols}
        return side_attrs, group_by(rows_matching(rows, bindings), side_attrs, measures)

    l_attrs, left = grouped(left_rows, left_cols, left_measures)
    r_attrs, right = grouped(right_rows, right_cols, right_measures)
    right_only = right_cols - left_cols
    keys = [a for a in attrs if a in on]
    out = {}
    for l_key, l_agg in left.items():
        l_vals = dict(zip(l_attrs, l_key))
        matched = False
        for r_key, r_agg in right.items():
            r_vals = dict(zip(r_attrs, r_key))
            if all(l_vals[k] == r_vals[k] for k in keys):
                matched = True
                vals = {**r_vals, **l_vals}
                out[tuple(vals[a] for a in attrs)] = (
                    tuple(l_agg[m] for m in left_measures) + tuple(r_agg[m] for m in right_measures))
        if not matched and kind == "left" and not right_only & (set(attrs) | set(region)):
            out[tuple(l_vals[a] for a in attrs)] = (
                tuple(l_agg[m] for m in left_measures) + (None,) * len(right_measures))
    return out


def region_text_key(region, dimension_names):
    """A region's bindings as (position in ``dimension_names``, value as text) pairs, in
    that order; NULL reads "NULL" and booleans read true and false."""
    def text(value):
        if value is NULL:
            return "NULL"
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    position = {d: i for i, d in enumerate(dimension_names)}
    return sorted((position[d], text(v)) for d, v in region.items())


def ranked_top_n(entries, sigma, n, dimension_names):
    """The first n of ``entries`` (region -> signals) in a full sort on ``sigma``
    descending, then ``region_text_key`` ascending, as (region, signals) pairs."""
    return sorted(entries.items(), key=lambda item: (
        -item[1][sigma], region_text_key(item[0], dimension_names)))[:n]


_PASSES = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def brute_force_crawl(rows, dimension_names, spec):
    """A crawl's entries computed from the rows alone: every observed region of every
    grouping set the spec admits, with each model's signals read off the region's
    sums, emitted when every pushdown term and threshold passes; with ``spec.top_n``
    the first n of them by ``ranked_top_n``.  Models are entity weights or ids, the
    two kinds the crawl properties draw.  Returns (region, signals) pairs."""
    if spec.grouping_sets is not None:
        sets = {frozenset(g) for g in spec.grouping_sets}
    else:
        dims = spec.dimensions or dimension_names
        sets = {frozenset(c) for k in range(len(dims) + 1)
                for c in itertools.combinations(dims, k)}
    max_degree = len(dimension_names) if spec.max_degree is None else spec.max_degree
    sets = {g for g in sets if len(g) <= max_degree and all(
        all(p in g for p in chain[:i]) for chain in spec.hierarchies or ()
        for i, d in enumerate(chain) if d in g)}
    allowed = spec.dimension_values or {}
    measures = sorted({m for model in spec.models for m in model.request.metric_features}
                      | {t.measure for model in spec.models for t in model.pushdown})
    entries = {}
    for group in sets:
        attrs = [d for d in dimension_names if d in group]
        for key, sums in group_by(rows, attrs, measures).items():
            if any(d in allowed and v not in allowed[d] for d, v in zip(attrs, key)):
                continue
            signals = {}
            for model in spec.models:
                if type(model).__name__ == "EntityWeightModel":
                    signals["total_weight"] = float(sums[model.metric])
                else:  # an IdModel passes its measures' sums through
                    signals.update((m, float(sums[m])) for m in model.request.metric_features)
            passed = all(_PASSES[t.op](sums[t.measure], t.value)
                         for model in spec.models for t in model.pushdown)
            for name, value in spec.thresholds.items():
                if name.startswith("-"):  # a maximum: the signal is at most -value
                    passed = passed and signals[name[1:]] <= -value
                else:
                    passed = passed and signals[name] >= value
            if passed:
                entries[Region(dict(zip(attrs, key)))] = signals
    if spec.top_n is None:
        return list(entries.items())
    sigma, n = spec.top_n
    return ranked_top_n(entries, sigma, n, dimension_names)


def value_sort_key(value):
    """The sort key a dimension value had before NULL ordered itself: within a
    column values share one type, booleans order as integers, NULL sorts last."""
    if value is NULL:
        return (2, "")
    if isinstance(value, bool):
        return (0, int(value))
    return (0, value)


def cell_sort_key(cell):
    """The store writers' canonical cell key, one item per dimension: ANY, then
    NULL, then values by their text (so integer 10 sorts before 9)."""
    out = []
    for v in cell:
        if v is ANY:
            out.append((0, ""))
        elif v is NULL:
            out.append((1, ""))
        else:
            out.append((2, ("true" if v else "false") if isinstance(v, bool) else str(v)))
    return tuple(out)
