import dataclasses
import json
import math

import numpy as np
import pytest

from stratcub import rng as rngmod
from stratcub.partition import (Cell, Partition, _layout_ok, _membership_counts,
                                cell_boundary_distance,
                                cell_contains, cell_inradius, cell_sample,
                                find_cell, geometric_cell_measures,
                                partition_from_json, partition_to_json,
                                sphere_zonal_partition, torus_grid_partition,
                                verify_partition)
from stratcub.space import SPHERE2, TORUS, distance, make_space, sample_uniform

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
T3 = make_space(TORUS, 3)
S2 = make_space(SPHERE2)


def test_torus_grid_examples():
    part = torus_grid_partition(T2, 4)
    assert part.N == 16
    assert all(c.measure == pytest.approx(1 / 16, rel=1e-15) for c in part.cells)
    assert all(c.diameter == 0.25 for c in part.cells)
    arcs = torus_grid_partition(T1, 8)
    assert arcs.N == 8
    assert all(c.geometry["hi"][0] - c.geometry["lo"][0] == pytest.approx(1 / 8)
               for c in arcs.cells)
    with pytest.raises(ValueError):
        torus_grid_partition(T1, 0)
    with pytest.raises(ValueError):
        torus_grid_partition(S2, 4)


def test_sphere_equal_split():
    part = sphere_zonal_partition(S2, 2)
    assert part.N == 2
    for g in geometric_cell_measures(part):
        assert g == pytest.approx(2 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_zonal_partition(S2, 1)
    with pytest.raises(ValueError):
        sphere_zonal_partition(T2, 8)


@pytest.mark.parametrize("N", [3, 5, 12, 37, 100, 513, 2048])
def test_sphere_exact_measures(N):
    part = sphere_zonal_partition(S2, N)
    target = 4 * math.pi / N
    assert part.N == N
    for c, g in zip(part.cells, geometric_cell_measures(part)):
        assert abs(g - target) / target < 1e-12
        assert abs(c.measure - target) / target < 1e-12


def test_sphere_diameter_scaling():
    d100 = max(c.diameter for c in sphere_zonal_partition(S2, 100).cells) * 10
    d400 = max(c.diameter for c in sphere_zonal_partition(S2, 400).cells) * 20
    assert max(d100, d400) / min(d100, d400) < 4


def test_cell_sample_containment_and_determinism():
    part = torus_grid_partition(T2, 4)
    cell = part.cells[5]
    pts = cell_sample(cell, rngmod.substream(1, 2, 3), 200)
    assert np.all(cell_contains(cell, pts))
    a = cell_sample(cell, rngmod.substream(9, 9))
    b = cell_sample(cell, rngmod.substream(9, 9))
    assert np.array_equal(a, b)


def test_sphere_cell_sample_colatitude_mean():
    part = sphere_zonal_partition(S2, 12)
    cell = next(c for c in part.cells if c.geometry["shape"] == "band")
    z_top, z_bot = cell.geometry["z"]
    th1, th2 = math.acos(z_top), math.acos(z_bot)
    pts = cell_sample(cell, rngmod.substream(2, 3, 4), 10_000)
    assert np.all(cell_contains(cell, pts))
    colat = np.arccos(np.clip(pts[:, 2], -1, 1))
    # analytic mean colatitude of the area measure on the band
    mean_exact = ((math.sin(th2) - th2 * math.cos(th2))
                  - (math.sin(th1) - th1 * math.cos(th1))) / (z_top - z_bot)
    se = colat.std(ddof=1) / math.sqrt(len(colat))
    assert abs(colat.mean() - mean_exact) < 3 * se


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 8),
                                  torus_grid_partition(T2, 5),
                                  sphere_zonal_partition(S2, 33)])
def test_exactly_one_cell_covers_each_point(part):
    pts = sample_uniform(part.space, rngmod.substream(5, 6), 5000)
    counts = np.zeros(len(pts), dtype=int)
    for cell in part.cells:
        counts += cell_contains(cell, pts)
    assert np.all(counts == 1)
    # find_cell agrees with brute force membership
    ids = find_cell(part, pts)
    for cid in np.unique(ids):
        assert np.all(cell_contains(part.cells[int(cid)], pts[ids == cid]))


def test_verify_partition_clean():
    rep = verify_partition(torus_grid_partition(T1, 8), 5000, seed=3)
    assert rep.ok
    assert rep.c1_scaled == pytest.approx(0.5, abs=0.02)
    assert rep.delta_scaled == (1.0, 1.0)
    rep_s = verify_partition(sphere_zonal_partition(S2, 100), 20_000, seed=3)
    assert rep_s.ok
    assert rep_s.coverage_violations == 0 and rep_s.overlap_violations == 0


def test_inclusion_constants_stable_over_n():
    # sampled inradius and circumradius around anchors, scaled by sqrt(N),
    # stay in a fixed band as N grows
    c1s, c2s = [], []
    for N in (32, 128, 512):
        rep = verify_partition(sphere_zonal_partition(S2, N), 2000, seed=5)
        c1s.append(rep.c1_scaled)
        c2s.append(rep.c2_scaled)
    assert min(c1s) > 0
    assert max(c1s) / min(c1s) < 4
    assert max(c2s) / min(c2s) < 4


def test_verify_partition_flags_corruption():
    part = torus_grid_partition(T1, 4)
    cells = list(part.cells)
    bad = cells[2]
    cells[2] = Cell(bad.id, bad.space_kind, bad.measure * 1.5, bad.diameter,
                    bad.anchor, bad.geometry)
    rep = verify_partition(Partition(part.space, tuple(cells), part.meta), 1000, seed=0)
    assert not rep.equal_measure_ok
    assert not rep.ok


def _brute_counts(part, pts):
    """Containing cells per point, every (point, cell) pair tested: the
    brute-force count written out independently of the package."""
    counts = np.zeros(len(pts), dtype=int)
    if part.space.kind == TORUS:
        lo = np.array([c.geometry["lo"] for c in part.cells])
        hi = np.array([c.geometry["hi"] for c in part.cells])
        inside = np.all((pts[:, None, :] >= lo[None]) & (pts[:, None, :] < hi[None]), axis=2)
        return inside.sum(axis=1)
    z = pts[:, 2]
    lon = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    lon[lon == 2.0 * math.pi] = 0.0  # a tiny negative angle is longitude 0
    for cell in part.cells:
        z_top, z_bot = cell.geometry["z"]
        if cell.geometry["shape"] == "cap":
            inside = (z > z_bot) if cell.geometry["north"] else (z <= z_top)
        else:
            inside = (z <= z_top) & (z > z_bot)
            lon_lo, lon_hi = cell.geometry["lon"]
            if lon_hi - lon_lo < 2.0 * math.pi:
                inside &= (lon >= lon_lo) & (lon < lon_hi)
        counts += inside
    return counts


def _with_geometry(part, cid, **geometry):
    cells = list(part.cells)
    cells[cid] = dataclasses.replace(cells[cid], geometry={**cells[cid].geometry, **geometry})
    return Partition(part.space, tuple(cells), part.meta)


def _widened_torus():
    part = torus_grid_partition(T2, 4)
    hi = part.cells[5].geometry["hi"]
    return _with_geometry(part, 5, hi=(hi[0] + 0.1, hi[1]))  # overlaps cell 9


def _shrunk_torus():
    part = torus_grid_partition(T1, 4)
    lo, hi = part.cells[1].geometry["lo"], part.cells[1].geometry["hi"]
    return _with_geometry(part, 1, hi=(0.5 * (lo[0] + hi[0]),))  # leaves a gap


def _pushed_sector():
    part = sphere_zonal_partition(S2, 33)
    cid = next(c.id for c in part.cells if c.geometry["shape"] == "band"
               and c.geometry["lon"][1] < math.pi)
    lon_lo, lon_hi = part.cells[cid].geometry["lon"]
    return _with_geometry(part, cid, lon=(lon_lo, lon_hi + 0.2))  # past its neighbour


def _lowered_band():
    part = sphere_zonal_partition(S2, 33)
    cid = part.meta["bands"][2][3]  # first sector of the second collar
    z_top, z_bot = part.cells[cid].geometry["z"]
    return _with_geometry(part, cid, z=(z_top, z_bot - 0.05))  # into the next collar


def _duplicated_cell():
    part = torus_grid_partition(T2, 4)
    cells = list(part.cells)
    cells[6] = dataclasses.replace(cells[5], id=6)
    return Partition(part.space, tuple(cells), part.meta)


@pytest.mark.parametrize("corrupt", [_widened_torus, _shrunk_torus, _pushed_sector,
                                     _lowered_band, _duplicated_cell])
def test_verify_partition_flags_geometry_corruption(corrupt):
    part = corrupt()
    assert not _layout_ok(part)
    seed, budget = 4, 20_000
    rep = verify_partition(part, budget, seed=seed)
    pts = sample_uniform(part.space, rngmod.substream(seed, rngmod.VERIFY, part.N), budget)
    counts = _brute_counts(part, pts)
    assert not rep.coverage_ok
    assert rep.coverage_violations == int(np.sum(counts == 0))
    assert rep.overlap_violations == int(np.sum(counts > 1))


def _edge_values(m):
    """Grid edges k/m and the float just below each."""
    edges = np.arange(m + 1) / m
    return np.unique(np.concatenate([edges, np.nextafter(edges, 0.0)]))


@pytest.mark.parametrize("space", [T1, T2, T3])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_grid_membership_on_cell_edges(space, m):
    part = torus_grid_partition(space, m)
    assert _layout_ok(part) and _layout_ok(partition_from_json(partition_to_json(part)))
    axes = [_edge_values(m)] * space.d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, space.d)
    outside = np.array([-0.25, 1.0, 1.5, np.nan, np.inf])
    pts = np.concatenate([pts, np.repeat(outside[:, None], space.d, axis=1)])
    counts = _brute_counts(part, pts)
    assert np.array_equal(_membership_counts(part, pts), counts)
    inside = np.all((pts >= 0.0) & (pts < 1.0), axis=1)
    assert np.all(counts[inside] == 1) and np.all(counts[~inside] == 0)
    ids = find_cell(part, pts[inside])
    for cid in np.unique(ids):
        assert np.all(cell_contains(part.cells[int(cid)], pts[inside][ids == cid]))


def _zonal_edge_points(part):
    """Points on and next to every band z-edge and every sector longitude edge."""
    pts = [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.5],
                     [0.0, 0.0, -1.5], [np.nan, 0.0, 0.5], [0.0, 0.0, np.nan]])]
    for z_top, z_bot, k, _ in part.meta["bands"]:
        zs = np.array([z_top, z_bot, np.nextafter(z_top, -2.0), np.nextafter(z_bot, 2.0),
                       0.5 * (z_top + z_bot)])
        lon = 2.0 * math.pi * np.arange(k + 1) / k
        lon = np.concatenate([lon, np.nextafter(lon, -1.0), np.nextafter(lon, 7.0)])
        z, lon = (a.ravel() for a in np.meshgrid(zs, lon, indexing="ij"))
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts.append(np.stack([s * np.cos(lon), s * np.sin(lon), z], axis=-1))
    return np.concatenate(pts)


@pytest.mark.parametrize("N", [2, 3, 33, 2048])
def test_zonal_membership_on_cell_edges(N):
    part = sphere_zonal_partition(S2, N)
    assert _layout_ok(part) and _layout_ok(partition_from_json(partition_to_json(part)))
    pts = _zonal_edge_points(part)
    counts = _brute_counts(part, pts)
    assert np.array_equal(_membership_counts(part, pts), counts)
    pts = pts[~np.isnan(pts).any(axis=1)]  # NaN points lie in no cell
    assert np.all(_brute_counts(part, pts) == 1)
    ids = find_cell(part, pts)
    for cid in np.unique(ids):
        assert np.all(cell_contains(part.cells[int(cid)], pts[ids == cid]))


def test_cell_inradius_ball_inside():
    for part in (torus_grid_partition(T2, 4), sphere_zonal_partition(S2, 24)):
        for cell in part.cells[:: max(1, part.N // 6)]:
            r = cell_inradius(cell)
            assert r > 0
            from stratcub.space import sample_ball
            pts = sample_ball(part.space, np.asarray(cell.anchor), r * 0.999,
                              rngmod.substream(7, cell.id), 200)
            assert np.all(cell_contains(cell, pts))


def test_cell_boundary_distance():
    part = torus_grid_partition(T1, 4)
    cell = part.cells[0]  # [0, 0.25)
    d = cell_boundary_distance(cell, np.array([[0.5], [0.3], [0.1]]))
    assert d[0] == pytest.approx(0.25)
    assert d[1] == pytest.approx(0.05)
    assert d[2] == 0.0
    part_s = sphere_zonal_partition(S2, 33)
    cell_s = next(c for c in part_s.cells
                  if c.geometry["shape"] == "band"
                  and c.geometry["lon"][1] - c.geometry["lon"][0] < 2 * math.pi)
    pts = sample_uniform(S2, rngmod.substream(8, 1), 2000)
    d = cell_boundary_distance(cell_s, pts)
    inside = cell_contains(cell_s, pts)
    assert np.all(d[inside] == 0.0)
    # exact distance matches a dense sampled minimum over the cell
    probe = cell_sample(cell_s, rngmod.substream(8, 2), 4000)
    outside = ~inside
    approx = distance(S2, pts[outside, None, :], probe[None, :, :]).min(axis=1)
    assert np.all(d[outside] <= approx + 1e-6)
    assert np.quantile(approx - d[outside], 0.95) < 0.05


def test_json_round_trip_torus_bit_exact():
    part = torus_grid_partition(T2, 3)
    back = partition_from_json(partition_to_json(part))
    assert back.N == part.N
    for a, b in zip(part.cells, back.cells):
        assert a == b
    assert partition_to_json(back) == partition_to_json(part)


def test_json_round_trip_sphere():
    part = sphere_zonal_partition(S2, 37)
    back = partition_from_json(partition_to_json(part))
    for a, b in zip(part.cells, back.cells):
        assert a.measure == b.measure
        assert a.diameter == b.diameter
        assert a.geometry == b.geometry
    doc = json.loads(partition_to_json(part))
    assert doc["N"] == 37


def test_cell_sample_chi_square_subbands():
    """Marginals of the restricted measure: chi-square on 8 sub-boxes."""
    part = torus_grid_partition(T1, 4)
    cell = part.cells[1]
    pts = cell_sample(cell, rngmod.substream(11, 0), 10_000)[:, 0]
    lo, hi = cell.geometry["lo"][0], cell.geometry["hi"][0]
    counts, _ = np.histogram(pts, bins=8, range=(lo, hi))
    expected = len(pts) / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 7 dof: mean 7, sd sqrt(14); 3 sigma
    assert chi2 < 7 + 3 * math.sqrt(14)
