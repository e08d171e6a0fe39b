"""A cube is a function: (region, requested features) -> grouped table.

This walkthrough builds a tiny sales cube, slices it with regions, and then
materializes the same cube as a cellset whose wildcard (*) slots mean "any".
"""

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    Dimension,
    DimensionSchema,
    FeatureRequest,
    Measure,
    Region,
    Table,
    build_cellset,
    filter_by_region,
    region_precedes,
)

rows = [
    ("Pixel", "Chrome", False, 10, 5),
    ("Pixel", "Safari", False, 20, 10),
    ("iPhone", "Safari", False, 30, 15),
    ("Pixel", "Chrome", True, 15, 5),
    ("Pixel", "Safari", True, 25, 10),
    ("iPhone", "Safari", True, 25, 15),
]
table = Table.from_rows(["Device", "Browser", "is_test", "Revenue", "Clicks"], rows)
schema = DimensionSchema(
    (Dimension("Device"), Dimension("Browser"), Dimension("is_test", "boolean")),
    (Measure.sum("Revenue"), Measure.sum("Clicks")),
)
cube = BaseTableGroupByCube(table, schema)

print("== filtering is just a WHERE clause ==")
pixel = Region({"Device": "Pixel"})
print(f"rows matching {pixel}: {filter_by_region(table, pixel).n_rows} of {table.n_rows}")

print("\n== the population view (empty region) ==")
frame = cube.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
print("total revenue:", frame.value())

print("\n== a grouped view inside a region ==")
frame = cube.view(pixel, FeatureRequest(("Browser",), ("Revenue", "Clicks")))
for attrs, measures in frame.iter_rows():
    print(f"  Browser={attrs[0]}: revenue={measures[0]} clicks={measures[1]}")

print("\n== regions form a partial order (finer precedes coarser) ==")
fine = Region({"Device": "Pixel", "Browser": "Chrome"})
print(f"{fine} precedes {pixel}: {region_precedes(fine, pixel)}")
print(f"{pixel} precedes {fine}: {region_precedes(pixel, fine)}")

print("\n== the same cube, materialized as a cellset ==")
cellset = build_cellset(cube, ["Device", "Browser"])
for cell, measures in sorted(cellset.cells.items(), key=lambda item: str(item[0])):
    print(f"  cell {cell}: {measures}")
print("cellset view at (Device=Pixel) equals the live view:",
      cellset.view(pixel, FeatureRequest((), ("Revenue",)))
      == cube.view(pixel, FeatureRequest((), ("Revenue",))))
