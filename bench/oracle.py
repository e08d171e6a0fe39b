"""Brute-force expectations and output checks, sharing no code with the engine.

Rows are plain dicts.  A region is a tuple of ``(dimension, value)`` pairs
sorted by dimension name, the same order ``cubecrawl.Region`` keeps.  Every
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import json
import math

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def lattice(rows, dims, split=None, sums=()):
    """Group-by over every subset of ``dims``.

    Returns {region: {split value: [sum per column]}}; with no ``split`` the
    inner key is None.  Only value combinations present in ``rows`` appear.
    """
    dims = sorted(dims)
    out: dict[tuple, dict] = {}
    for k in range(len(dims) + 1):
        for subset in itertools.combinations(dims, k):
            for r in rows:
                region = tuple((d, r[d]) for d in subset)
                inner = out.setdefault(region, {})
                acc = inner.setdefault(r[split] if split else None, [0] * len(sums))
                for i, col in enumerate(sums):
                    acc[i] += r[col]
    return out


def region_key(region, dims) -> tuple:
    """The engine's canonical order: schema position, then value text."""
    return tuple(sorted((dims.index(d), str(v)) for d, v in region))


def parse_jsonl(data: bytes) -> list[tuple[tuple, dict]]:
    out = []
    for line in data.decode("utf-8").splitlines():
        rec = json.loads(line)
        out.append((tuple(sorted(rec["region"].items())), rec["signals"]))
    return out


def check_signals(region, got: dict, want: dict) -> list[str]:
    problems = []
    for name, value in want.items():
        if name not in got or not close(got[name], value):
            problems.append(f"{region}: {name}={got.get(name)!r}, expected {value!r}")
    return problems


def check_records(records, expected: dict, order: list | None, what: str) -> list[str]:
    """Region set, order and signal values of a crawl's records."""
    problems = []
    got_regions = [r for r, _ in records]
    if len(set(got_regions)) != len(got_regions):
        problems.append(f"{what}: a region appears twice")
    missing = set(expected) - set(got_regions)
    extra = set(got_regions) - set(expected)
    if missing or extra:
        problems.append(f"{what}: {len(missing)} regions missing, {len(extra)} unexpected "
                        f"(e.g. {sorted(missing)[:1] or sorted(extra)[:1]})")
    if order is not None and not missing and not extra and got_regions != order:
        problems.append(f"{what}: records are not in the expected order")
    for region, signals in records:
        if region in expected:
            problems.extend(check_signals(region, signals, expected[region])[:3])
    return problems


# -- the explore workload ----------------------------------------------------


def density_parts(rt, rc, st, sc, pt, pc, spt, spc):
    """Closed-form density attribution (distinct population denominators)."""
    ds_p = spt - spc
    log_ratio = (math.log(spt) - math.log(spc)) / ds_p
    num = (rt - rc) * log_ratio
    change = pt / spt - pc / spc
    den = (st - sc) * (change / ds_p - (pt - pc) * log_ratio / ds_p)
    return num + den, num, den


def explore_expectations(cube: dict, dims, threshold: float, top_n: int) -> dict:
    """Expected pruned crawl, top-n ranking and lattice size for ``explore``.

    ``cube`` is ``lattice(rows, dims, "is_test", ("Revenue", "Clicks"))``.
    """
    pop = cube[()]
    p_t, p_c = pop[True][0], pop[False][0]
    sp_t, sp_c = pop[True][1], pop[False][1]
    crawl = {}
    weights = {}
    for region, groups in cube.items():
        t = groups.get(True, [0, 0])
        c = groups.get(False, [0, 0])
        weight = t[0] + c[0]
        weights[region] = weight
        if weight < threshold:
            continue
        support = t[0] / p_t
        ras, num, den = density_parts(t[0], c[0], t[1], c[1], p_t, p_c, sp_t, sp_c)
        crawl[region] = {
            "total_weight": float(weight),
            "support_ratio": support,
            "risk_ratio": support / (c[0] / p_c),
            "ras": ras, "numerator_part": num, "denominator_part": den,
        }
    ranked = sorted(weights, key=lambda r: (-weights[r], region_key(r, dims)))[:top_n]
    return {
        "crawl": crawl,
        "crawl_order": sorted(crawl, key=lambda r: region_key(r, dims)),
        "topn": {r: {"total_weight": float(weights[r])} for r in ranked},
        "topn_order": ranked,
        "lattice_regions": len(cube),
    }


def degree_filtered(jsonl: bytes, max_degree: int) -> bytes:
    """The lines of a JSON-lines crawl output whose region binds <= max_degree dims."""
    keep = [line for line in jsonl.splitlines(keepends=True)
            if len(json.loads(line)["region"]) <= max_degree]
    return b"".join(keep)


# -- the compose workload ----------------------------------------------------


ANY = "*"


def cellset(cube: dict, dims) -> dict:
    """Full-width cells (value or ANY per dim, dims in given order) -> sums."""
    cells = {}
    for region, groups in cube.items():
        bound = dict(region)
        cells[tuple(bound.get(d, ANY) for d in dims)] = groups[None]
    return cells


def joined_cells(left: dict, left_dims, right: dict, right_dims, on) -> dict:
    """Inner GLOBAL join of two cellsets: cells over left dims + right-only dims."""
    r_only = [d for d in right_dims if d not in on]
    by_pattern: dict[tuple, list] = {}
    for cell, values in right.items():
        bound = dict(zip(right_dims, cell))
        by_pattern.setdefault(tuple(bound[d] for d in on), []).append(
            (tuple(bound[d] for d in r_only), values))
    out = {}
    for cell, values in left.items():
        bound = dict(zip(left_dims, cell))
        for r_cell, r_values in by_pattern.get(tuple(bound[d] for d in on), ()):
            out[cell + r_cell] = list(values) + list(r_values)
    return out


def crawl_from_cells(cells: dict, all_dims, crawl_dims, signals: dict, gate: str,
                     threshold: float) -> dict:
    """Regions over ``crawl_dims`` whose cell exists and whose ``gate`` >= threshold.

    ``signals`` maps signal name -> column index in the cell values.
    """
    out = {}
    for cell, values in cells.items():
        bound = {d: v for d, v in zip(all_dims, cell) if v != ANY}
        if any(d not in crawl_dims for d in bound):
            continue
        if values[signals[gate]] < threshold:
            continue
        out[tuple(sorted(bound.items()))] = {s: float(values[i]) for s, i in signals.items()}
    return out


def result_records(result) -> list[tuple[tuple, dict]]:
    """A ResultCube's records as (region, signals) pairs, in canonical order."""
    return [(tuple(region.items()), dict(signals)) for region, signals in result.sorted_records()]


def check_cells(got: dict, want: dict, measures, what: str) -> list[str]:
    """Engine cells (ANY sentinel, measure dicts) against expected cells."""
    norm = {}
    for cell, values in got.items():
        key = tuple(ANY if repr(v) == "*" else v for v in cell)
        norm[key] = [values[m] for m in measures]
    if norm.keys() != want.keys():
        return [f"{what}: {len(want.keys() - norm.keys())} cells missing, "
                f"{len(norm.keys() - want.keys())} unexpected"]
    bad = [c for c in want if [float(v) for v in norm[c]] != [float(v) for v in want[c]]]
    return [f"{what}: {len(bad)} cells with wrong measures (e.g. {bad[0]})"] if bad else []


# -- the timeseries workload --------------------------------------------------


def window_frame(cube: dict, region, dates) -> list[tuple]:
    """Expected (date,) -> (Revenue,) rows of a window view, in date order."""
    groups = cube.get(region, {})
    return [((d,), (groups[d][0],)) for d in dates if d in groups]


def outlier_expectations(cube: dict, all_dates, window: int, min_share: float) -> dict:
    """Expected ``window_outlier`` signals of every region with share >= min_share."""
    pop_total = sum(acc[0] for acc in cube[()].values())
    out = {}
    for region, groups in cube.items():
        series = [groups[d][0] if d in groups else 0 for d in all_dates]
        share = sum(series) / pop_total
        if share < min_share:
            continue
        last = series[-1]
        past = series[-1 - window:-1]
        mean = sum(past) / window
        std = math.sqrt(sum((v - mean) ** 2 for v in past) / window)
        dev = last - mean
        z = 0.0 if dev == 0 else dev / max(std, 1e-9)
        out[region] = {"z_score": z, "region_share": share, "hybrid_score": abs(z) * share}
    return out
