import dataclasses
import math

import numpy as np
import pytest
from stream_runs import StreamRun

from stratcub import partition as partmod
from stratcub import rng as rngmod
from stratcub.partition import (_COLUMNS, _layout_ok, _locate, cell_boundary_distance,
                                cell_contains, cell_points, cell_sample, find_cell,
                                geometric_cell_measures, sphere_zonal_partition, stream_points,
                                torus_grid_partition, verify_partition)
from stratcub.space import (SPHERE2, TORUS, distance, east_tangent, geodesic_step, make_space,
                            pairwise_distance, sample_uniform, sphere_point)

T1 = make_space(TORUS, 1)
T2 = make_space(TORUS, 2)
T3 = make_space(TORUS, 3)
S2 = make_space(SPHERE2)


def test_torus_grid_examples():
    part = torus_grid_partition(T2, 4)
    assert part.N == 16
    assert np.allclose(part.measure, 1 / 16, rtol=1e-15, atol=0.0)
    assert np.all(part.diameter == 0.25)
    arcs = torus_grid_partition(T1, 8)
    assert arcs.N == 8
    assert arcs.hi[:, 0] - arcs.lo[:, 0] == pytest.approx(1 / 8)
    with pytest.raises(ValueError):
        torus_grid_partition(T1, 0)
    for m in (4.0, 2.5, "4", True):
        with pytest.raises(ValueError, match=repr(m)):
            torus_grid_partition(T1, m)
    with pytest.raises(ValueError):
        torus_grid_partition(S2, 4)


def test_sphere_equal_split():
    part = sphere_zonal_partition(S2, 2)
    assert part.N == 2
    for g in geometric_cell_measures(part):
        assert g == pytest.approx(2 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_zonal_partition(S2, 1)
    for N in (33.5, 33.0):
        with pytest.raises(ValueError, match=repr(N)):
            sphere_zonal_partition(S2, N)
    with pytest.raises(ValueError):
        sphere_zonal_partition(T2, 8)


@pytest.mark.parametrize("N", [3, 5, 12, 37, 100, 513, 2048])
def test_sphere_exact_measures(N):
    part = sphere_zonal_partition(S2, N)
    target = 4 * math.pi / N
    assert part.N == N
    assert np.all(np.abs(geometric_cell_measures(part) - target) / target < 1e-12)
    assert np.all(np.abs(part.measure - target) / target < 1e-12)


def test_torus_diameter_is_the_longest_stored_side():
    # min(2 circumradius, 1/2): the box's longest side, exact from the stored
    # edges, where the nominal 1/m is off by an ulp at m = 3 and 37
    for space, m in ((T1, 3), (T1, 37), (T2, 6)):
        part = torus_grid_partition(space, m)
        assert np.array_equal(part.diameter, (part.hi - part.lo).max(axis=1))
    for space in (T1, T2):
        assert np.array_equal(torus_grid_partition(space, 1).diameter, [0.5])
    assert verify_partition(torus_grid_partition(T1, 37), 100).delta_scaled == (
        0.999999999999998, 1.0000000000000022)
    # read-only: it follows the circumradius and cannot be set apart from it
    part = torus_grid_partition(T2, 6)
    with pytest.raises(ValueError, match="read-only"):
        part.diameter[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.diameter = np.ones(part.N)
    with pytest.raises(TypeError, match="diameter"):
        dataclasses.replace(part, diameter=np.ones(part.N))
    cut = _with_rows(part, 4, circumradius=0.25 * part.circumradius[4])
    assert cut.diameter[4] == 0.25 * part.diameter[4]


def test_sphere_diameter_scaling():
    d100 = sphere_zonal_partition(S2, 100).diameter.max() * 10
    d400 = sphere_zonal_partition(S2, 400).diameter.max() * 20
    assert max(d100, d400) / min(d100, d400) < 4


def test_cell_sample_containment_and_determinism():
    part = torus_grid_partition(T2, 4)
    pts = cell_sample(part, 5, rngmod.substream(1, 2, 3), 200)
    assert np.all(cell_contains(part, 5, pts))
    a = cell_sample(part, 5, rngmod.substream(9, 9))
    b = cell_sample(part, 5, rngmod.substream(9, 9))
    assert np.array_equal(a, b)
    assert np.array_equal(cell_sample(part, np.int64(5), rngmod.substream(9, 9)), a)


@pytest.mark.parametrize("j", [-1, 8, 1.0, True])
def test_cell_sample_rejects_bad_cell_ids(j):
    # -1 and 8 used to stop on an empty slice, 1.0 on a slice of floats, and
    # True sampled cell 1
    with pytest.raises(ValueError, match=r"cell id \(N = 8\)"):
        cell_sample(torus_grid_partition(T1, 8), j, rngmod.substream(1, 2), 4)


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 16), torus_grid_partition(T2, 5),
                                  sphere_zonal_partition(S2, 40)], ids=["T1", "T2", "S2"])
def test_cell_points_one_generator_per_cell(part):
    # one run of a stream per cell, the mode mz._cell_means and
    # verify_partition draw their cell samples in
    cells = np.arange(3, part.N - 2)
    pts = stream_points(part, 2, rngmod.VERIFY, part.N, 1, first=3, count=len(cells), m=32,
                        ids=cells[:, None])
    assert pts.shape == (len(cells), 1, 32, part.anchor.shape[1])
    for j, row in zip(cells, pts[:, 0]):
        run = StreamRun(2, rngmod.VERIFY, part.N, 1, k=int(j))
        assert np.array_equal(row, cell_sample(part, j, run, 32))


def test_sphere_cell_sample_colatitude_mean():
    part = sphere_zonal_partition(S2, 12)
    j = part.meta["bands"][1][3]  # first cell of the first collar
    z_top, z_bot = -part.lo[j, 0], -part.hi[j, 0]
    th1, th2 = math.acos(z_top), math.acos(z_bot)
    pts = cell_sample(part, j, rngmod.substream(2, 3, 4), 10_000)
    assert np.all(cell_contains(part, j, pts))
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
    for j in range(part.N):
        counts += cell_contains(part, j, pts)
    assert np.all(counts == 1)
    # find_cell agrees with brute force membership
    ids = find_cell(part, pts)
    assert np.all(cell_contains(part, ids, pts))


def test_verify_partition_clean():
    rep = verify_partition(torus_grid_partition(T1, 8), 5000, seed=3)
    assert rep.ok
    assert rep.c1_scaled == rep.c2_scaled == 0.5
    assert rep.delta_scaled == (1.0, 1.0)
    rep_s = verify_partition(sphere_zonal_partition(S2, 100), 20_000, seed=3)
    assert rep_s.ok
    assert rep_s.coverage_violations == 0 and rep_s.overlap_violations == 0


@pytest.mark.parametrize("budgets", [{"sample_budget": 0}, {"sample_budget": -5},
                                     {"pairs_per_cell": 0}])
def test_verify_partition_rejects_empty_budgets(budgets):
    # these gave a vacuous coverage verdict, a ZeroDivisionError and c1 = inf
    with pytest.raises(ValueError, match=next(iter(budgets))):
        verify_partition(torus_grid_partition(T1, 8), **budgets)


def test_inclusion_constants_stable_over_n():
    # closed-form inradius and circumradius around anchors, scaled by
    # sqrt(N), stay in a fixed band as N grows
    c1s, c2s = [], []
    for N in (32, 128, 512):
        rep = verify_partition(sphere_zonal_partition(S2, N), 2000, seed=5)
        c1s.append(rep.c1_scaled)
        c2s.append(rep.c2_scaled)
    assert min(c1s) > 0
    assert max(c1s) / min(c1s) < 4
    assert max(c2s) / min(c2s) < 4


def test_verify_partition_flags_corruption(monkeypatch):
    part = torus_grid_partition(T1, 4)
    rep = verify_partition(_with_rows(part, 2, measure=1.5 * part.measure[2]), 1000, seed=0)
    assert not rep.equal_measure_ok
    assert not rep.ok
    # a circumradius below the cell's reach from its anchor
    for part in (part, sphere_zonal_partition(S2, 33)):
        rep = verify_partition(_with_rows(part, 2, circumradius=0.5 * part.circumradius[2]),
                               1000, seed=0)
        assert rep.equal_measure_ok and rep.coverage_ok
        assert rep.diameter_violations > 0 and not rep.diameter_ok
    # cuts as slight as 0.999: the corners reach the exact circumradius
    s2 = sphere_zonal_partition(S2, 33)
    cuts = [_with_rows(s2, 2, circumradius=f * s2.circumradius[2])
            for f in (0.5, 0.9, 0.99, 0.999)]
    for grid in (torus_grid_partition(T1, 4), torus_grid_partition(T2, 5)):
        cuts.append(_with_rows(grid, 2, circumradius=0.99 * grid.circumradius[2]))
    # with the cell's samples and corners measured 1, 3 or all cells a block
    for cut in cuts:
        for cells in (1, 3, cut.N):
            monkeypatch.setattr(partmod, "L2_BLOCK", 8 * 32 * cells)
            assert not verify_partition(cut, 1000, seed=0).diameter_ok


def _cut_sphere_diameter():
    # the diameter follows from the circumradius, so both are cut
    part = sphere_zonal_partition(S2, 33)
    return _with_rows(part, 2, circumradius=0.7 * part.circumradius[2])


def _cut_torus_circumradius():
    part = torus_grid_partition(T2, 5)
    return _with_rows(part, 7, circumradius=0.9 * part.circumradius[7])


@pytest.mark.parametrize("corrupt", [_cut_sphere_diameter, _cut_torus_circumradius])
def test_verify_partition_size_samples_do_not_depend_on_block(monkeypatch, corrupt):
    # a block holds L2_BLOCK // (8 pairs_per_cell) cells; each cell's samples
    # are its own window of one stream, so 1, 3 or all cells per block give
    # the same points and the same counts
    part, pairs = corrupt(), 16
    reports = []
    for cells in (1, 3, part.N):
        monkeypatch.setattr(partmod, "L2_BLOCK", 8 * pairs * cells)
        reports.append(verify_partition(part, 500, seed=2, pairs_per_cell=pairs))
    assert reports[0].diameter_violations > 0 and not reports[0].diameter_ok
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("space, m", [(T1, 37), (T2, 6), (T3, 3)], ids=["T1", "T2", "T3"])
def test_torus_cell_map_is_the_broadcast_formula(space, m):
    """The torus cell map, one axis at a time, equals ``lo + (hi - lo) u``
    bit for bit for each form of ``ids`` its callers pass: a slice, (cells,),
    (K, cells) as ``stream_points`` takes it, (cells, 1) as ``mz._cell_means``
    passes it, and (cells,) with corner uniforms that have no cells axis, as
    ``verify_partition`` passes them.  The map takes the uniforms one chart
    axis at a time, ``u[..., i]``."""
    part, d = torus_grid_partition(space, m), space.d
    cells = np.array([0, 5, part.N - 1, 2])
    rng = np.random.default_rng(3)
    cases = [
        (slice(None), rng.random((part.N, 4, d))),
        (slice(1, 4), rng.random((2, 3, 5, d))),
        (cells, rng.random((4, 7, d))),
        (np.stack([cells, cells[::-1], (cells + 1) % part.N]), rng.random((3, 4, 6, d))),
        (cells[:, None], rng.random((4, 1, 9, d))),
        (cells, np.indices((2,) * d).reshape(d, -1).T),
    ]
    for ids, u in cases:
        lo, hi = part.lo[ids][..., None, :], part.hi[ids][..., None, :]
        want = lo + (hi - lo) * u
        got = partmod._cell_map(part, np.moveaxis(u, -1, 0), ids)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _zonal_columns(part):
    """(z_top, z_bot, lon_lo, lon_hi) per cell, each (N, 1), expanded from
    ``meta["bands"]`` one cell at a time."""
    cols = []
    for z_top, z_bot, k, _ in part.meta["bands"]:
        for s in range(int(k)):
            cols.append((z_top, z_bot, 2.0 * math.pi * s / k, 2.0 * math.pi * (s + 1) / k))
    return [np.array(c)[:, None] for c in zip(*cols)]


@pytest.mark.parametrize("N", [2, 3, 33, 2048])
def test_sphere_cell_map_is_the_zonal_closed_form(N):
    """On S^2 the chart-box map gives ``sphere_point(z_top - (z_top - z_bot)
    u0, lon_lo + (lon_hi - lon_lo) u1)`` bit for bit, signed zeros included:
    for ``cell_points``, for ``stream_points`` and at the corner uniforms."""
    part = sphere_zonal_partition(S2, N)
    z_top, z_bot, lon_lo, lon_hi = _zonal_columns(part)

    def closed(u0, u1):
        return sphere_point(z_top - (z_top - z_bot) * u0, lon_lo + (lon_hi - lon_lo) * u1)

    u = rngmod.substream(6, 1).random((2, N, 3))  # the -z row, then the longitude row
    got = cell_points(part, rngmod.substream(6, 1), 3)
    assert got.tobytes() == closed(u[0], u[1]).tobytes()
    # units 4, 5 and 6: runs of 2 N uniforms, each laid out (2, N, 1)
    u = rngmod.window(7, rngmod.NODES, start=4 * 2 * N, shape=(3, 2, N, 1))
    got = stream_points(part, 7, rngmod.NODES, first=4, count=3)
    assert got.shape == (3, N, 1, 3) and got.tobytes() == closed(u[:, 0], u[:, 1]).tobytes()
    corner_u = np.indices((2, 2)).reshape(2, -1)
    got = partmod._cell_map(part, corner_u, np.arange(N))
    assert got.tobytes() == closed(corner_u[0], corner_u[1]).tobytes()


def _brute_counts(part, pts):
    """Containing cells per point, every (point, cell) pair tested: the
    brute-force count written out independently of the package.  Zonal
    cells follow their own rules, not the chart: the caps (the cells with the
    z-edges of the first and the last band of ``meta["bands"]``) are open
    towards their pole, and full annuli take every longitude.  A point with a
    NaN coordinate is in no cell."""
    if part.space.kind == TORUS:
        inside = np.all((pts[:, None, :] >= part.lo[None]) & (pts[:, None, :] < part.hi[None]),
                        axis=2)
        return inside.sum(axis=1)
    counts = np.zeros(len(pts), dtype=int)
    z = pts[:, 2]
    lon = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
    lon[lon == 2.0 * math.pi] = 0.0  # a tiny negative angle is longitude 0
    north, south = (tuple(part.meta["bands"][i][:2]) for i in (0, -1))
    for lo, hi in zip(part.lo, part.hi):
        z_top, z_bot, lon_lo, lon_hi = -lo[0], -hi[0], lo[1], hi[1]
        if (z_top, z_bot) == north:
            inside = z > z_bot
        elif (z_top, z_bot) == south:
            inside = z <= z_top
        else:
            inside = (z <= z_top) & (z > z_bot)
            if lon_hi - lon_lo < 2.0 * math.pi:
                inside &= (lon >= lon_lo) & (lon < lon_hi)
        counts += inside
    counts[np.isnan(pts).any(axis=1)] = 0
    return counts


def _with_rows(part, cid, **rows):
    """``part`` with row ``cid`` of each named array replaced."""
    arrays = {}
    for name, row in rows.items():
        arrays[name] = getattr(part, name).copy()
        arrays[name][cid] = row
    return dataclasses.replace(part, **arrays)


def _widened_torus():
    part = torus_grid_partition(T2, 4)
    return _with_rows(part, 5, hi=part.hi[5] + (0.1, 0.0))  # overlaps cell 9


def _shrunk_torus():
    part = torus_grid_partition(T1, 4)
    return _with_rows(part, 1, hi=0.5 * (part.lo[1] + part.hi[1]))  # leaves a gap


def _pushed_sector():
    part = sphere_zonal_partition(S2, 33)
    cid = int(np.flatnonzero(part.hi[:, 1] < math.pi)[0])  # a sector, not a cap
    return _with_rows(part, cid, hi=part.hi[cid] + (0.0, 0.2))  # past its neighbour


def _lowered_band():
    part = sphere_zonal_partition(S2, 33)
    cid = part.meta["bands"][2][3]  # first sector of the second collar
    return _with_rows(part, cid, hi=part.hi[cid] + (0.05, 0.0))  # into the next collar


def _duplicated_cell():
    part = torus_grid_partition(T2, 4)
    return _with_rows(part, 6, **{name: getattr(part, name)[5]
                                  for name in ("measure", "circumradius", "anchor", "lo",
                                               "hi")})


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


def _grid_edge_points(space, m):
    """Every combination of edge values per axis, then points outside."""
    axes = [_edge_values(m)] * space.d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, space.d)
    outside = np.array([-0.25, 1.0, 1.5, np.nan, np.inf])
    return np.concatenate([pts, np.repeat(outside[:, None], space.d, axis=1)])


def _check_locate(part, pts):
    """``_locate`` counts as brute force does, and ``find_cell``'s id holds a
    point exactly where one cell does; returns the brute-force counts."""
    counts = _brute_counts(part, pts)
    assert np.array_equal(_locate(part, pts)[1], counts)
    assert np.array_equal(cell_contains(part, find_cell(part, pts), pts), counts == 1)
    return counts


@pytest.mark.parametrize("space", [T1, T2, T3])
@pytest.mark.parametrize("m", [3, 5, 6, 7])
def test_grid_membership_on_cell_edges(space, m):
    part = torus_grid_partition(space, m)
    assert _layout_ok(part)
    pts = _grid_edge_points(space, m)
    counts = _check_locate(part, pts)
    inside = np.all((pts >= 0.0) & (pts < 1.0), axis=1)
    assert np.all(counts[inside] == 1) and np.all(counts[~inside] == 0)
    assert np.all(cell_contains(part, find_cell(part, pts[inside]), pts[inside]))


def test_t1_find_cell_on_every_grid_edge():
    # floor(x m) alone puts x = 1/49 in cell 0 = [0, 1/49), and the float just
    # below the m = 6 edge 5/6 in cell 5
    for m in range(2, 200):
        part = torus_grid_partition(T1, m)
        counts = _check_locate(part, _grid_edge_points(T1, m))
        assert np.sum(counts == 1) == len(_edge_values(m)) - 1


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
    assert _layout_ok(part)
    pts = _zonal_edge_points(part)
    counts = _check_locate(part, pts)
    nan = np.isnan(pts).any(axis=1)  # a NaN longitude as well as a NaN z
    assert nan.sum() == 2 and np.all(counts[nan] == 0)
    assert np.all(counts[~nan] == 1)
    assert np.all(cell_contains(part, find_cell(part, pts[~nan]), pts[~nan]))


@pytest.mark.parametrize("N", [2, 3, 33, 2048])
def test_zonal_rows_match_per_cell_loop(N):
    # the band table expanded one cell at a time, as a plain loop reference:
    # the boxes [(-z_top, lon_lo), (-z_bot, lon_hi)), signed zeros included
    part = sphere_zonal_partition(S2, N)
    z_top, z_bot, lon_lo, lon_hi = _zonal_columns(part)
    assert part.lo.tobytes() == np.hstack([-z_top, lon_lo]).tobytes()
    assert part.hi.tobytes() == np.hstack([-z_bot, lon_hi]).tobytes()


def _permuted(part, seed):
    """``part`` with its rows in a random order, ``meta`` left as it was."""
    perm = np.random.default_rng(seed).permutation(part.N)
    return dataclasses.replace(part, **{name: getattr(part, name)[perm] for name in _COLUMNS})


@pytest.mark.parametrize("part", [torus_grid_partition(T2, 5), sphere_zonal_partition(S2, 2),
                                  sphere_zonal_partition(S2, 3), sphere_zonal_partition(S2, 33),
                                  _permuted(sphere_zonal_partition(S2, 33), 1)],
                         ids=["T2", "S2-2", "S2-3", "S2-33", "S2-33-permuted"])
def test_a_nan_coordinate_puts_a_point_in_no_cell(part):
    # points of every cell (caps, full annuli, sectors), one coordinate at a
    # time made NaN; find_cell still returns a valid id
    dim = part.anchor.shape[1]
    pts = np.repeat(cell_points(part, rngmod.substream(8, 4), 1)[:, 0], dim, axis=0)
    pts[np.arange(len(pts)), np.tile(np.arange(dim), part.N)] = np.nan
    assert np.all(_brute_counts(part, pts) == 0)
    assert np.all(_locate(part, pts)[1] == 0)
    ids = find_cell(part, pts)
    assert np.all((ids >= 0) & (ids < part.N))
    assert not np.any(cell_contains(part, ids, pts))


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 4), sphere_zonal_partition(S2, 33)],
                         ids=["T1", "S2"])
def test_find_cell_on_rows_that_do_not_follow_meta(part):
    perm = _permuted(part, 3)
    assert _layout_ok(part) and not _layout_ok(perm)
    assert verify_partition(perm, 2000).ok
    pts = sample_uniform(part.space, rngmod.substream(0, rngmod.SELFTEST, 5), 1000)
    assert np.all(cell_contains(perm, find_cell(perm, pts), pts))
    edges = _grid_edge_points(T1, 4) if part.space.kind == TORUS else _zonal_edge_points(part)
    _check_locate(perm, edges)
    assert np.array_equal(perm.anchor[find_cell(perm, pts)], part.anchor[find_cell(part, pts)])


# S^2 N = 3 is one full annulus holding its anchor's antipode; at the larger
# N some band anchors (at the z-midpoint) sit well off the colatitude midpoint
_RADII_PARTS = ([torus_grid_partition(T1, 8), torus_grid_partition(T2, 5),
                 torus_grid_partition(T3, 3)]
                + [sphere_zonal_partition(S2, n) for n in (3, 33, 100, 2048)])


def _rim(part, r, n=256):
    """For each cell, points at distance exactly ``r`` (N,) from its anchor,
    spread over that sphere, the axis and meridian directions among them;
    (N, points, dim)."""
    anchor = part.anchor
    if part.space.kind == TORUS:
        grid = np.linspace(-1.0, 1.0, 5)
        v = np.stack(np.meshgrid(*[grid] * part.space.d, indexing="ij"), axis=-1)
        v = v.reshape(-1, part.space.d)
        v = v[np.abs(v).max(axis=1) == 1.0]  # the unit sphere of the sup-norm
        return np.mod(anchor[:, None, :] + r[:, None, None] * v, 1.0)
    east = east_tangent(anchor)
    north = np.cross(anchor, east)
    a = 2.0 * math.pi * np.arange(n) / n
    t = np.cos(a)[:, None] * east[:, None, :] + np.sin(a)[:, None] * north[:, None, :]
    return geodesic_step(anchor[:, None, :], t, r[:, None])


def _all_inside(part, pts):
    """Per cell, whether every one of its points ``pts (N, points, dim)`` is in it."""
    n = pts.shape[1]
    inside = cell_contains(part, np.repeat(np.arange(part.N), n), pts.reshape(part.N * n, -1))
    return inside.reshape(part.N, n).all(axis=1)


def test_cell_inradius_ball_inside():
    # sound: the ball of radius inradius about the anchor stays inside the
    # cell; tight: one 2% wider leaves it, in all cells but at most one
    for part in _RADII_PARTS:
        assert np.all(part.inradius > 0)
        assert np.all(_all_inside(part, _rim(part, 0.9999 * part.inradius)))
        assert np.sum(_all_inside(part, _rim(part, 1.02 * part.inradius))) <= 1


def test_cell_circumradius_holds_cell():
    # sound: no sampled cell point lies beyond circumradius from the anchor;
    # tight: a cell point at or next to the corner that bounds it lies within
    # 2% of it, in all cells but at most one
    for part in _RADII_PARTS:
        cells = np.arange(part.N)
        pts = stream_points(part, 0, rngmod.SELFTEST, first=0, count=part.N, m=256,
                            ids=cells[:, None])[:, 0]
        if part.space.kind == TORUS:
            corners = part.lo[:, None, :]
        else:  # both z-edges at lon_lo, nudged inside where the edge is open or rounds
            z_top, z_bot = -part.lo[:, 0], -part.hi[:, 0]
            lon_lo, lon_hi = part.lo[:, 1], part.hi[:, 1]
            z = np.stack([z_top, z_bot + 1e-9 * (z_top - z_bot)], axis=1)
            corners = sphere_point(z, (lon_lo + 1e-9 * (lon_hi - lon_lo))[:, None])
        pts = np.concatenate([pts, corners], axis=1)
        assert np.all(_all_inside(part, pts))
        reach = distance(part.space, part.anchor[:, None, :], pts).max(axis=1)
        assert np.all(reach <= part.circumradius * (1 + 1e-12))
        assert np.sum(reach < 0.98 * part.circumradius) <= 1


def _zonal_boundary(part, n=65):
    """n points along each of the four edges of every zonal cell's closure,
    walked linearly in (z, lon) from corner to corner; (N, 4 n, 3).  A cap's
    edges are its pole, its rim and a meridian between them."""
    t = np.linspace(0.0, 1.0, n)

    def walk(corners):
        step = corners[:, 1:] - corners[:, :-1]
        return (corners[:, :-1, None] + step[:, :, None] * t).reshape(part.N, -1)

    z = -np.stack([part.lo[:, 0], part.hi[:, 0]], axis=1)
    lon = np.stack([part.lo[:, 1], part.hi[:, 1]], axis=1)
    return sphere_point(walk(z[:, [0, 0, 1, 1, 0]]), walk(lon[:, [0, 1, 1, 0, 0]]))


@pytest.mark.parametrize("N", [5, 33, 512])
def test_sphere_diameter_twice_circumradius(N):
    # sound: no two boundary points of a cell lie farther apart than its
    # diameter; tight: some pair lies within 10% of it, in every cell
    part = sphere_zonal_partition(S2, N)
    assert np.array_equal(part.diameter, np.minimum(2.0 * part.circumradius, math.pi))
    reach = np.array([pairwise_distance(S2, pts, pts).max() for pts in _zonal_boundary(part)])
    assert np.all(reach <= part.diameter * (1 + 1e-12))
    assert np.all(reach >= 0.9 * part.diameter)


def test_cell_boundary_distance():
    part = torus_grid_partition(T1, 4)
    d = cell_boundary_distance(part, 0, np.array([[0.5], [0.3], [0.1]]))  # cell [0, 0.25)
    assert d[0] == pytest.approx(0.25)
    assert d[1] == pytest.approx(0.05)
    assert d[2] == 0.0
    part_s = sphere_zonal_partition(S2, 33)
    j = int(np.flatnonzero(part_s.hi[:, 1] - part_s.lo[:, 1] < 2 * math.pi)[0])  # a sector
    pts = sample_uniform(S2, rngmod.substream(8, 1), 2000)
    d = cell_boundary_distance(part_s, j, pts)
    inside = cell_contains(part_s, j, pts)
    assert np.all(d[inside] == 0.0)
    # exact distance matches a dense sampled minimum over the cell
    probe = cell_sample(part_s, j, rngmod.substream(8, 2), 4000)
    outside = ~inside
    approx = distance(S2, pts[outside, None, :], probe[None, :, :]).min(axis=1)
    assert np.all(d[outside] <= approx + 1e-6)
    assert np.quantile(approx - d[outside], 0.95) < 0.05


@pytest.mark.parametrize("part", [torus_grid_partition(T1, 4), torus_grid_partition(T2, 3),
                                  sphere_zonal_partition(S2, 2), sphere_zonal_partition(S2, 3),
                                  sphere_zonal_partition(S2, 33)],
                         ids=["T1-4", "T2-9", "S2-2", "S2-3", "S2-33"])
def test_cell_boundary_distance_takes_id_arrays(part):
    # caps (S2 N = 2), full annuli (N = 3) and sectors (N = 33)
    rng = rngmod.substream(8, 3)
    ids = rng.integers(part.N, size=800)
    pts = np.concatenate([cell_points(part, rng, 1, ids[:400])[:, 0],
                          sample_uniform(part.space, rng, 400)])
    d = cell_boundary_distance(part, ids, pts)
    inside = cell_contains(part, ids, pts)
    assert inside.sum() >= 400 and np.all(d[inside] == 0.0)
    dense = cell_points(part, rng, 3000)
    for j in range(part.N):
        mine = ids == j
        assert np.array_equal(d[mine], cell_boundary_distance(part, j, pts[mine]))
        # no sampled point of the cell is nearer than the cell
        nearest = distance(part.space, pts[mine, None, :], dense[j][None]).min(axis=1)
        assert np.all(d[mine] <= nearest + 1e-12)


def test_cell_sample_chi_square_subbands():
    """Marginals of the restricted measure: chi-square on 8 sub-boxes."""
    part = torus_grid_partition(T1, 4)
    pts = cell_sample(part, 1, rngmod.substream(11, 0), 10_000)[:, 0]
    lo, hi = part.lo[1, 0], part.hi[1, 0]
    counts, _ = np.histogram(pts, bins=8, range=(lo, hi))
    expected = len(pts) / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 7 dof: mean 7, sd sqrt(14); 3 sigma
    assert chi2 < 7 + 3 * math.sqrt(14)
