"""Joining cubes: lazy per-view joins vs one eager cellset join.

A crawl's output is itself a cube, so this week's region signals can be
joined with last week's to compare, filter, or re-crawl.  Both strategies
answer every view identically; they differ only in when the join work
happens, which the join counters make visible.
"""

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    EntityWeightModel,
    FeatureRequest,
    IdModel,
    JoinSpec,
    Measure,
    Region,
    Table,
    join_cubes,
    top_down_crawl,
)


def weekly_cube(revenues):
    rows = [(device, revenue) for device, revenue in revenues.items()]
    table = Table.from_rows(["Device", "Revenue"], rows)
    schema = DimensionSchema((Dimension("Device"),), (Measure.sum("Revenue"),))
    return BaseTableGroupByCube(table, schema)


spec = CrawlSpec(models=[EntityWeightModel("Revenue")], dimensions=["Device"],
                 thresholds={"total_weight": 0.0})
this_week = top_down_crawl(weekly_cube({"Pixel": 70, "iPhone": 55, "Nokia": 12}), spec)
last_week = top_down_crawl(weekly_cube({"Pixel": 64, "iPhone": 61}), spec)

jspec = JoinSpec(on=("Device",), left_prefix="cur", right_prefix="hist", kind="left")
print("== joining this week's crawl with historical scores ==")
for strategy in ("local", "global"):
    joined = join_cubes(this_week, last_week, jspec, strategy)
    frame = joined.view(EMPTY_REGION, FeatureRequest(
        ("Device",), ("cur.total_weight", "hist.total_weight")))
    print(f"[{strategy}] counters={dict(joined.counters)}")
    for (device,), (cur, hist) in frame.iter_rows():
        hist_text = f"{hist:7.1f}" if hist is not None else "  (new)"
        print(f"  {device:7s} now={cur:6.1f} before={hist_text}")

print("\n== many views: local joins per view, global joins once ==")
local = join_cubes(this_week, last_week, jspec, "local")
glob = join_cubes(this_week, last_week, jspec, "global")
for device in ("Pixel", "iPhone", "Nokia"):
    request = FeatureRequest((), ("cur.total_weight",))
    local.view(Region({"Device": device}), request)
    glob.view(Region({"Device": device}), request)
print("local:", dict(local.counters), "| global:", dict(glob.counters))

print("\n== composition: crawl the joined cube for grown regions ==")
inner = join_cubes(this_week, last_week,
                   JoinSpec(on=("Device",), left_prefix="cur", right_prefix="hist"),
                   "global")
growth_spec = CrawlSpec(
    models=[IdModel(["cur.total_weight"], apriori={"cur.total_weight": True})],
    dimensions=["Device"],
    thresholds={"cur.total_weight": 66.0},
)
grown = top_down_crawl(inner, growth_spec)
for region, signals in grown.sorted_records():
    print(f"  {region}: {signals}")
