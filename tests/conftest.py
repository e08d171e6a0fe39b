import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cubecrawl import (
    BaseTableGroupByCube,
    Dimension,
    DimensionSchema,
    FeatureRequest,
    Measure,
    Table,
)

T1_ROWS = [
    ("Pixel", "Chrome", False, 10, 5),
    ("Pixel", "Safari", False, 20, 10),
    ("iPhone", "Safari", False, 30, 15),
    ("Pixel", "Chrome", True, 15, 5),
    ("Pixel", "Safari", True, 25, 10),
    ("iPhone", "Safari", True, 25, 15),
]

T1_COLUMNS = ("Device", "Browser", "is_test", "Revenue", "Clicks")

T2_TRANSACTIONS = [{"A", "B", "C"}, {"A", "B"}, {"A", "C"}, {"B"}]


def t1_schema():
    return DimensionSchema(
        (Dimension("Device"), Dimension("Browser"), Dimension("is_test", "boolean")),
        (Measure.sum("Revenue"), Measure.sum("Clicks")),
    )


def t1_cube(rows=None):
    table = Table.from_rows(T1_COLUMNS, rows if rows is not None else T1_ROWS)
    return BaseTableGroupByCube(table, t1_schema())


def t1_modified_rows():
    """T1 with the (Pixel, Chrome) test Clicks raised to 6 (s_p_t becomes 31)."""
    rows = [list(r) for r in T1_ROWS]
    rows[3][4] = 6
    return [tuple(r) for r in rows]


@pytest.fixture
def sales_cube():
    return t1_cube()


@pytest.fixture
def sales_schema():
    return t1_schema()


def t1_row_dicts(rows=None):
    return [dict(zip(T1_COLUMNS, r)) for r in (rows if rows is not None else T1_ROWS)]


def random_table(rng: random.Random, n_dims=None, max_values=4, max_rows=60,
                 n_measures=1, with_segment=False):
    """A small random base table plus its schema, for property tests."""
    n_dims = n_dims if n_dims is not None else rng.randint(2, 4)
    dims = [Dimension(f"d{i}") for i in range(n_dims)]
    if with_segment:
        dims.append(Dimension("is_test", "boolean"))
    measures = [Measure.sum(f"m{i}") for i in range(n_measures)]
    columns = {d.name: [] for d in dims}
    for m in measures:
        columns[m.name] = []
    n_rows = rng.randint(4, max_rows)
    for _ in range(n_rows):
        for i in range(n_dims):
            columns[f"d{i}"].append(f"v{rng.randint(0, max_values - 1)}")
        if with_segment:
            columns["is_test"].append(rng.random() < 0.5)
        for m in measures:
            columns[m.name].append(rng.randint(0, 20))
    schema = DimensionSchema(tuple(dims), tuple(measures))
    return Table(columns), schema


def random_transactions(rng: random.Random, max_items=8, max_txns=50, min_items_per_txn=1):
    items = [chr(ord("a") + i) for i in range(rng.randint(3, max_items))]
    txns = []
    for _ in range(rng.randint(4, max_txns)):
        size = rng.randint(min_items_per_txn, max(min_items_per_txn, len(items) - 1))
        txns.append(set(rng.sample(items, size)))
    return txns


def assert_values_match_view(cube, region, dims):
    """``region_values`` is the view of one attribute, whether free or bound."""
    for d in dims:
        frame = cube.view(region, FeatureRequest((d,), ()))
        assert cube.region_values(region, d) == frame.attribute_column(d), (region, d)
