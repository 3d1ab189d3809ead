"""Equal-measure, diameter-bounded partitions of the torus and the sphere.

Torus: a dyadic grid of ``m^d`` congruent half-open boxes.  Sphere: a zonal
equal-area layout (two polar caps plus collars cut into longitude sectors),
with collar boundaries solved in closed form from the cap-area formula so
that every cell has area exactly ``4*pi/N``.

A partition is one set of read-only per-cell arrays, row ``j`` describing
cell ``j``; membership, sampling and verification all read those rows.
Cells are half-open in every splitting coordinate, so coverage and
disjointness are exact, not approximate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from . import rng as rngmod
from .space import (L2_BLOCK, SPHERE2, TORUS, SpaceDescriptor, ball_points, box_distance,
                    distance, make_space, sample_uniform, sphere_point, unit_tangents)

TWO_PI = 2.0 * math.pi
# cells whose inradius ``verify_partition`` probes (all cells up to this many)
INRADIUS_PROBE_CELLS = 64
_COLUMNS = ("measure", "diameter", "anchor", "lo", "hi", "z", "lon", "cap")


@dataclass(frozen=True, eq=False)
class Partition:
    """Read-only per-cell arrays, row ``j`` describing cell ``j``.

    Every cell has an exact ``measure`` (N,), a closed-form ``diameter``
    upper bound (N,) and an interior ``anchor`` (N, dim).  Torus cells are
    the boxes ``[lo, hi)``, ``lo`` and ``hi`` (N, d).  Sphere cells fill
    ``z`` ((z_top, z_bot) per cell), ``lon`` ((lon_lo, lon_hi) per cell) and
    ``cap`` (+1 north cap, -1 south cap, 0 band), each (N, 2) or (N,).
    ``layout_ok`` tells whether the rows follow the layout in ``meta``.
    """

    space: SpaceDescriptor
    meta: dict
    measure: np.ndarray
    diameter: np.ndarray
    anchor: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    z: np.ndarray | None = None
    lon: np.ndarray | None = None
    cap: np.ndarray | None = None

    def __post_init__(self):
        for name in _COLUMNS:
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def N(self) -> int:
        return len(self.measure)

    def weights(self) -> np.ndarray:
        return self.measure.copy()

    @cached_property
    def layout_ok(self) -> bool:
        return _layout_ok(self)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _check_size(name: str, value, least: int) -> None:
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def torus_grid_partition(space: SpaceDescriptor, m: int) -> Partition:
    """Grid of m^d half-open boxes of side 1/m in row-major order; exact
    weights m^{-d}."""
    if space.kind != TORUS:
        raise ValueError("torus_grid_partition needs a torus space")
    _check_size("grid resolution", m, 1)
    m, d = int(m), space.d
    N = m ** d
    idx = _grid_index(m, d)
    edges = _grid_edges(m)
    return Partition(space, {"scheme": "torus_grid", "m": m},
                     measure=np.full(N, m ** (-d)),
                     diameter=np.full(N, 1.0 / m if m >= 2 else 0.5),
                     anchor=(idx + 0.5) / m, lo=edges[idx], hi=edges[idx + 1])


def sphere_zonal_partition(space: SpaceDescriptor, N: int) -> Partition:
    """Zonal equal-area partition of S^2 into N cells of area exactly 4*pi/N.

    Collar boundaries are placed at z = 1 - 2*c/N for cumulative cell counts
    c, so cell areas are exact by construction; sector counts per collar come
    from accumulator rounding of the ideal (area-proportional) counts.
    ``meta["bands"]`` lists (z_top, z_bot, sectors, first cell id) per band,
    the caps included.
    """
    if space.kind != SPHERE2:
        raise ValueError("sphere_zonal_partition needs the sphere space")
    _check_size("cell count", N, 2)
    N = int(N)
    bands = [[1.0, 1.0 - 2.0 / N, 1, 0]]
    cum = 1
    for k in _collar_counts(N):
        bands.append([1.0 - 2.0 * cum / N, 1.0 - 2.0 * (cum + k) / N, k, cum])
        cum += k
    bands.append([1.0 - 2.0 * (N - 1) / N, -1.0, 1, N - 1])
    cap = np.zeros(N, dtype=np.int8)
    cap[0], cap[-1] = 1, -1
    z, lon, diameter = [], [], []
    for z_top, z_bot, k, first in bands:
        for s in range(k):
            lon_lo, lon_hi = TWO_PI * s / k, TWO_PI * (s + 1) / k
            z.append((z_top, z_bot))
            lon.append((lon_lo, lon_hi))
            diameter.append(_zonal_diameter(z_top, z_bot, lon_lo, lon_hi, int(cap[first + s])))
    z, lon = np.array(z), np.array(lon)
    # band cells are anchored at their (z, lon) midpoint, caps at their pole
    anchor = sphere_point(0.5 * (z[:, 0] + z[:, 1]), 0.5 * (lon[:, 0] + lon[:, 1]))
    anchor[0], anchor[-1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    return Partition(space, {"scheme": "sphere_zonal", "bands": bands},
                     measure=np.full(N, 4.0 * math.pi / N), diameter=np.array(diameter),
                     anchor=anchor, z=z, lon=lon, cap=cap)


def _collar_counts(N: int) -> list[int]:
    """Sector counts per collar; accumulator rounding keeps the total N - 2."""
    if N == 2:
        return []
    theta_c = math.acos(1.0 - 2.0 / N)
    band = math.pi - 2.0 * theta_c
    ideal_side = math.sqrt(4.0 * math.pi / N)
    n_collars = max(1, round(band / ideal_side))
    edges = [theta_c + band * i / n_collars for i in range(n_collars + 1)]
    counts = []
    acc = 0.0
    for i in range(n_collars):
        ideal = N * (math.cos(edges[i]) - math.cos(edges[i + 1])) / 2.0
        k = round(ideal + acc)
        acc += ideal - k
        counts.append(int(k))
    if sum(counts) != N - 2 or any(k < 1 for k in counts):
        raise AssertionError(f"collar rounding failed for N={N}: {counts}")
    return counts


def _zonal_diameter(z_top: float, z_bot: float, lon_lo: float, lon_hi: float,
                    cap: int) -> float:
    """Closed-form diameter bound of one zonal cell."""
    if cap == 1:
        return min(2.0 * math.acos(z_bot), math.pi)
    if cap == -1:
        return min(2.0 * (math.pi - math.acos(z_top)), math.pi)
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(z_bot)
    if lon_hi - lon_lo >= TWO_PI:
        # full annulus: exact diameter from the antipodal-longitude pair
        if colat_lo <= math.pi / 2.0 <= colat_hi:
            diam = math.pi
        elif colat_hi < math.pi / 2.0:
            diam = 2.0 * colat_hi
        else:
            diam = 2.0 * (math.pi - colat_lo)
    else:
        if colat_lo <= math.pi / 2.0 <= colat_hi:
            sin_max = 1.0
        else:
            sin_max = max(math.sin(colat_lo), math.sin(colat_hi))
        diam = min((colat_hi - colat_lo) + sin_max * (lon_hi - lon_lo), math.pi)
    return diam


# ---------------------------------------------------------------------------
# membership, sampling, geometry queries
# ---------------------------------------------------------------------------

def find_cell(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Index of the cell containing each point (vectorized).

    Found by the same exact half-open test that ``verify_partition`` counts
    with.  A point that no cell holds (NaN, outside the unit cube, off the
    sphere) gets a valid but arbitrary cell id.
    """
    return _locate(partition, np.atleast_2d(np.asarray(pts, dtype=float)))[0]


def _floor_index(v: np.ndarray, k) -> np.ndarray:
    """``floor(v)`` clamped to ``[0, k - 1]`` as integers (NaN gives k - 1)."""
    return np.fmax(np.fmin(np.floor(v), k - 1), 0).astype(int)


def _longitude(pts: np.ndarray) -> np.ndarray:
    """Longitude in [0, 2 pi).  A tiny negative angle rounds to 2 pi under
    the modulo, which no sector holds; it is taken as 0."""
    lon = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), TWO_PI)
    return np.where(lon == TWO_PI, 0.0, lon)


def _zonal_estimate(partition: Partition, pts: np.ndarray):
    """Per point: first cell id and sector count of its band, and the
    sector estimated from its longitude.

    The band is exact: the first band whose bottom edge lies strictly below
    z, clamped so that z = -1 lands in the south cap (whose open bottom edge
    is the pole itself).  The sector can be one off at a sector edge.
    """
    bands = np.asarray(partition.meta["bands"], dtype=float)
    # bottoms are strictly decreasing
    band = np.minimum(np.searchsorted(-bands[:, 1], -pts[:, 2], side="right"),
                      len(bands) - 1)
    k = bands[band, 2].astype(int)
    first = bands[band, 3].astype(int)
    return first, k, _floor_index(_longitude(pts) * k / TWO_PI, k)


_NEIGHBOURS = np.array([-1, 0, 1])


def _locate(partition: Partition, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the id of a cell holding it and the number of cells that
    do, under the exact half-open test.

    On rows that follow ``meta`` only the cells next to a point's grid or
    band/sector position can hold it (rounding moves the estimate by at most
    one): per grid axis, ``floor(x m)`` and its neighbours are tested against
    the exact edges, and in the point's exact zonal band the estimated
    sector and its neighbours.  Other rows have every cell tested, a block
    of points at a time.  A point no cell holds gets an arbitrary valid id.
    """
    n = len(pts)
    if not partition.layout_ok:
        ids, counts = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        cells = np.arange(partition.N)[None, :]
        rows = max(1, L2_BLOCK // partition.N)
        for i in range(0, n, rows):
            hit = cell_contains(partition, cells, pts[i:i + rows])
            ids[i:i + rows] = np.argmax(hit, axis=1)
            counts[i:i + rows] = np.sum(hit, axis=1)
        return ids, counts
    pt = np.arange(n)
    if partition.space.kind == TORUS:
        m = partition.meta["m"]
        edges = _grid_edges(m)
        ids, counts = np.zeros(n, dtype=int), np.ones(n, dtype=np.int32)
        for x in pts.T:
            cand = _floor_index(x * m, m)[:, None] + _NEIGHBOURS
            valid = (cand >= 0) & (cand < m)
            cand = np.clip(cand, 0, m - 1)
            hit = valid & (edges[cand] <= x[:, None]) & (x[:, None] < edges[cand + 1])
            ids = ids * m + cand[pt, np.argmax(hit, axis=1)]
            counts *= np.sum(hit, axis=1, dtype=np.int32)
        return ids, counts
    first, k, sector = _zonal_estimate(partition, pts)
    cand = sector[:, None] + _NEIGHBOURS
    valid = (cand >= 0) & (cand < k[:, None])
    cand = first[:, None] + np.clip(cand, 0, k[:, None] - 1)
    hit = valid & cell_contains(partition, cand, pts)
    return cand[pt, np.argmax(hit, axis=1)], np.sum(hit, axis=1, dtype=np.int32)


def cell_contains(partition: Partition, ids, pts: np.ndarray) -> np.ndarray:
    """Exact half-open membership; half-open conventions make it a true
    partition.

    ``ids`` a cell id or (n,) tests point i against cell ``ids[i]``; ``ids``
    (n, c) or (1, c) tests it against each of ``ids[i, :]`` (or ``ids[0, :]``).
    """
    ids = np.asarray(ids)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if ids.ndim == 2:
        pts = pts[:, None, :]
    if partition.space.kind == TORUS:
        return np.all((pts >= partition.lo[ids]) & (pts < partition.hi[ids]), axis=-1)
    z = pts[..., 2]
    lon = _longitude(pts)
    z_top, z_bot = partition.z[ids, 0], partition.z[ids, 1]
    lon_lo, lon_hi = partition.lon[ids, 0], partition.lon[ids, 1]
    cap = partition.cap[ids]
    return (((cap == 1) | (z <= z_top)) & ((cap == -1) | (z > z_bot))
            & ((cap != 0) | (lon_hi - lon_lo >= TWO_PI)
               | ((lon >= lon_lo) & (lon < lon_hi))))


def cell_sample(partition: Partition, j: int, rng: np.random.Generator,
                n: int | None = None):
    """Uniform sample from the measure restricted to cell j.

    Torus boxes sample coordinates directly; sphere cells sample the
    z-coordinate uniformly on the cell's z-interval (area measure) and the
    longitude uniformly, which is exact for zonal geometry.
    """
    size = 1 if n is None else int(n)
    pts = cell_points(partition, rng, size, slice(j, j + 1))[0]
    return pts[0] if n is None else pts


def cell_points(partition: Partition, rng: np.random.Generator, m: int,
                ids=slice(None)) -> np.ndarray:
    """m uniform points in each of the cells ``ids``; returns (cells, m, dim).

    The one generator fills the cells in id order: the uniforms are drawn as
    (cells, m, d) on the torus and as (2, cells, m) on the sphere, the
    z-uniforms then the longitude-uniforms.
    """
    u = rng.random(_uniform_shape(partition, partition.measure[ids].shape[0], m))
    return _cell_map(partition, u, ids)


def stream_points(partition: Partition, seed: int, *path, m: int = 1,
                  ids=slice(None)) -> np.ndarray:
    """m uniform points in each of a stream's cells, for one stream per
    element of the array part of ``path``; returns (K, cells, m, dim).

    ``ids`` (cells,) or a slice gives every stream the same cells; (K, cells)
    gives stream k the cells ``ids[k]``.  Row k is ``cell_points(partition,
    substream(seed, *path_k), m, ids_k)`` bit for bit: ``rng.uniforms``
    draws each stream's uniforms into one table, which goes through the cell
    map once.
    """
    cells = partition.measure[ids].shape[-1]
    u = rngmod.uniforms(seed, *path, shape=_uniform_shape(partition, cells, m))
    if partition.space.kind != TORUS:
        u = u.swapaxes(0, 1)  # the sphere map takes the (z, lon) axis first
    return _cell_map(partition, u, ids)


def _uniform_shape(partition: Partition, cells: int, m: int) -> tuple[int, ...]:
    if partition.space.kind == TORUS:
        return (cells, m, partition.space.d)
    return (2, cells, m)


def _cell_map(partition: Partition, u: np.ndarray, ids) -> np.ndarray:
    """Points of the cells ``ids`` from their uniforms: (..., cells, m, d)
    on the torus, (2, ..., cells, m) on the sphere; elementwise, so any
    leading axes of ``u`` map as one slice at a time would.  ``ids`` may
    carry leading axes of its own, matching those of ``u``."""
    if partition.space.kind == TORUS:
        lo, hi = partition.lo[ids, None, :], partition.hi[ids, None, :]
        return lo + (hi - lo) * u
    z_top, z_bot = partition.z[ids, 0, None], partition.z[ids, 1, None]
    lon_lo, lon_hi = partition.lon[ids, 0, None], partition.lon[ids, 1, None]
    # u = 0 lands on the closed (top) edge, matching the half-open bands
    return sphere_point(z_top - (z_top - z_bot) * u[0],
                        lon_lo + (lon_hi - lon_lo) * u[1])


def cell_inradius(partition: Partition, j: int) -> float:
    """Closed-form lower bound on the radius of a ball around cell j's
    anchor that stays inside the cell."""
    if partition.space.kind == TORUS:
        return float(np.min(partition.hi[j] - partition.lo[j]) / 2.0)
    z_top, z_bot = partition.z[j].tolist()
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(z_bot)
    if partition.cap[j] != 0:
        # the anchor is the pole, so the cap is itself a ball around it
        return colat_hi - colat_lo
    dth = (colat_hi - colat_lo) / 2.0
    lon_lo, lon_hi = partition.lon[j].tolist()
    if lon_hi - lon_lo >= TWO_PI:
        return dth
    sin_min = min(math.sin(colat_lo), math.sin(colat_hi))
    return min(dth, sin_min * (lon_hi - lon_lo) / 2.0)


def cell_boundary_distance(partition: Partition, j: int, pts: np.ndarray) -> np.ndarray:
    """Distance from points to cell j (0 inside). Exact on both spaces."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if partition.space.kind == TORUS:
        return box_distance(pts, partition.lo[j], partition.hi[j])
    z = np.clip(pts[:, 2], -1.0, 1.0)
    colat = np.arccos(z)
    z_top, z_bot = partition.z[j].tolist()
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(min(max(z_bot, -1.0), 1.0))
    if partition.cap[j] == 1:
        return np.maximum(colat - colat_hi, 0.0)
    if partition.cap[j] == -1:
        return np.maximum(colat_lo - colat, 0.0)
    lon_lo, lon_hi = partition.lon[j].tolist()
    band_gap = np.maximum(np.maximum(colat_lo - colat, colat - colat_hi), 0.0)
    if lon_hi - lon_lo >= TWO_PI:
        return band_gap
    dlon = np.mod(_longitude(pts) - lon_lo, TWO_PI)
    inside_lon = dlon < (lon_hi - lon_lo)
    out = np.where(inside_lon, band_gap, np.inf)
    miss = ~inside_lon
    if np.any(miss):
        sub = pts[miss]
        best = np.full(sub.shape[0], np.inf)
        for lon_e in (lon_lo, lon_hi):
            best = np.minimum(best, _meridian_segment_distance(
                partition.space, sub, lon_e, colat_lo, colat_hi))
        out[miss] = best
    return out


def _meridian_segment_distance(space: SpaceDescriptor, pts: np.ndarray, lon0: float,
                               colat_lo: float, colat_hi: float) -> np.ndarray:
    """Geodesic distance from points to a meridian arc segment."""
    normal = np.array([-math.sin(lon0), math.cos(lon0), 0.0])
    comp = pts @ normal
    foot = pts - comp[:, None] * normal
    norms = np.linalg.norm(foot, axis=1)
    ok = norms > 1e-12
    # perpendicular foot on the great circle; valid if its colatitude lies
    # in the segment and it is on the meridian side (x-component along lon0)
    along = np.array([math.cos(lon0), math.sin(lon0), 0.0])
    with np.errstate(invalid="ignore"):
        footn = foot / np.where(ok, norms, 1.0)[:, None]
    foot_colat = np.arccos(np.clip(footn[:, 2], -1.0, 1.0))
    on_side = (footn @ along) >= 0.0
    perp = np.arcsin(np.clip(np.abs(comp), -1.0, 1.0))
    use_perp = ok & on_side & (foot_colat >= colat_lo) & (foot_colat <= colat_hi)
    d = np.where(use_perp, perp, np.inf)
    for colat_e in (colat_lo, colat_hi):
        endpoint = sphere_point(math.cos(colat_e), lon0)
        d = np.minimum(d, distance(space, pts, endpoint))
    return d


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class PartitionReport:
    n_cells: int
    sample_budget: int
    measure_residual: float
    max_cell_measure_error: float
    coverage_violations: int
    overlap_violations: int
    diameter_violations: int
    delta_scaled: tuple[float, float]
    c1_scaled: float
    c2_scaled: float
    equal_measure_ok: bool
    coverage_ok: bool
    diameter_ok: bool

    @property
    def ok(self) -> bool:
        return self.equal_measure_ok and self.coverage_ok and self.diameter_ok


def geometric_cell_measures(partition: Partition) -> np.ndarray:
    """Recompute every cell's measure from its stored geometry (independent
    of the stored ``measure`` field)."""
    if partition.space.kind == TORUS:
        return np.prod(partition.hi - partition.lo, axis=1)
    lon, z = partition.lon, partition.z
    return (lon[:, 1] - lon[:, 0]) * (z[:, 0] - z[:, 1])


def verify_partition(partition: Partition, sample_budget: int = 10_000,
                     seed: int = 0, pairs_per_cell: int = 32) -> PartitionReport:
    """Empirical check of the partition contract.

    Reports exact-measure residuals (stored and recomputed from geometry);
    coverage and disjointness counts: for each uniform sample, the number of
    cells whose exact half-open test contains it; sampled diameter-bound
    violations; and measured inclusion constants: ``c1`` from the largest
    sampled ball around an anchor that stays inside its cell, ``c2`` from
    the farthest sampled cell point from the anchor (both scaled by
    ``N^{1/d}``).

    The membership counts come from ``_locate``, the same cell locator as
    ``find_cell``, and equal a brute-force test of every (sample, cell)
    pair: when the stored cells match the layout recorded in ``meta`` (an
    O(N) check), only the cells next to each sample's grid or band/sector
    position are tested; any other partition has every cell tested.  Each
    cell's diameter samples come from its own ``(seed, VERIFY, N, id, 0|1)``
    streams, drawn by ``stream_points`` (one re-keyed Philox per call, see
    ``rng.uniforms``), mapped to points and measured a block of cells at a
    time.  The inradius probe (``_probe_inradius``) draws each probed cell's
    ball samples from its own ``(seed, VERIFY, N, id, 2)`` stream up front,
    then runs each bisection step for all probed cells at once.
    """
    for name, value in (("sample_budget", sample_budget), ("pairs_per_cell", pairs_per_cell)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    space = partition.space
    N = partition.N
    total = space.total_measure
    target = total / N

    weights = partition.weights()
    measure_residual = abs(weights.sum() - total) / total
    max_cell_err = max(
        float(np.max(np.abs(partition.measure - target) / target)),
        float(np.max(np.abs(geometric_cell_measures(partition) - target) / target)),
    )

    rng = rngmod.substream(seed, rngmod.VERIFY, N)
    pts = sample_uniform(space, rng, sample_budget)
    counts = _locate(partition, pts)[1]
    coverage_violations = int(np.sum(counts == 0))
    overlap_violations = int(np.sum(counts > 1))

    scale = N ** (1.0 / space.d)
    diam_violations = 0
    c2 = 0.0
    # the uniforms, points and three distance tables of a block hold
    # about L2_BLOCK floats
    block = max(1, L2_BLOCK // (8 * pairs_per_cell))
    for i0 in range(0, N, block):
        cells = np.arange(i0, min(N, i0 + block))
        pa, pb = (stream_points(partition, seed, rngmod.VERIFY, N, cells, r,
                                m=pairs_per_cell, ids=cells[:, None])[:, 0]
                  for r in (0, 1))
        dd = distance(space, pa, pb)
        diam_violations += int(np.sum(dd > partition.diameter[cells, None] * (1 + 1e-12)))
        anchor = partition.anchor[cells, None, :]
        c2 = max(c2, float(distance(space, anchor, pa).max()),
                 float(distance(space, anchor, pb).max()))
    c2 *= scale

    deltas = partition.diameter * scale
    c1 = _probe_inradius(partition, seed) * scale

    return PartitionReport(
        n_cells=N,
        sample_budget=sample_budget,
        measure_residual=measure_residual,
        max_cell_measure_error=max_cell_err,
        coverage_violations=coverage_violations,
        overlap_violations=overlap_violations,
        diameter_violations=diam_violations,
        delta_scaled=(float(deltas.min()), float(deltas.max())),
        c1_scaled=c1,
        c2_scaled=c2,
        equal_measure_ok=(measure_residual <= 1e-12 and max_cell_err <= 1e-12),
        coverage_ok=(coverage_violations == 0 and overlap_violations == 0),
        diameter_ok=(diam_violations == 0),
    )


def _grid_edges(m: int) -> np.ndarray:
    """Grid edges ``i / m``, i = 0..m."""
    return np.arange(m + 1) / m


def _grid_index(m: int, d: int) -> np.ndarray:
    """Per-axis indices (m^d, d) of the grid cells in row-major order."""
    return np.ascontiguousarray(np.indices((m,) * d).reshape(d, -1).T)


def _layout_ok(partition: Partition) -> bool:
    """Whether the cells are exactly the layout ``meta`` describes.

    Torus: ``m^d`` cells in row-major order with ``lo == idx / m`` and
    ``hi == (idx + 1) / m``.  Sphere: a band table with strictly decreasing
    edges, each band's top equal to the previous bottom, caps at both ends
    and band sizes adding up to N; every cell's z-interval equal to its
    band's; and the sectors of each band tiling it in id order at
    longitudes ``2 pi s / k``.
    """
    meta = partition.meta
    N = partition.N
    if partition.space.kind == TORUS:
        d = partition.space.d
        m = meta.get("m")
        if (meta.get("scheme") != "torus_grid" or not isinstance(m, Integral)
                or m < 1 or m ** d != N):
            return False
        idx = _grid_index(m, d)
        edges = _grid_edges(m)
        return (np.array_equal(partition.lo, edges[idx])
                and np.array_equal(partition.hi, edges[idx + 1]))
    if meta.get("scheme") != "sphere_zonal":
        return False
    bands = np.asarray(meta.get("bands", []), dtype=float)
    if bands.ndim != 2 or bands.shape[1] != 4 or len(bands) < 2:
        return False
    top, bot, k, first = bands.T
    ks = k.astype(int)
    starts = np.concatenate([[0], np.cumsum(ks)[:-1]])
    if (np.any(ks != k) or np.any(ks < 1) or ks.sum() != N or ks[0] != 1
            or ks[-1] != 1 or not np.array_equal(first, starts)
            or not np.all(np.diff(bot) < 0) or not np.array_equal(top[1:], bot[:-1])):
        return False
    band = np.repeat(np.arange(len(bands)), ks)
    s = np.arange(N) - starts[band]
    cap = np.zeros(N, dtype=np.int8)
    cap[0], cap[-1] = 1, -1
    return (np.array_equal(partition.cap, cap)
            and np.array_equal(partition.z, np.stack([top[band], bot[band]], axis=1))
            and np.array_equal(partition.lon, np.stack([TWO_PI * s / ks[band],
                                                        TWO_PI * (s + 1) / ks[band]], axis=1)))


def _probe_inradius(partition: Partition, seed: int) -> float:
    """Largest r (min over probed cells) with sampled B(anchor, r) inside.

    Each probed cell bisects r over 14 steps, testing 48 ball points per
    step.  The draws do not depend on r, so every cell's draws for all steps
    come first, from its own ``(seed, VERIFY, N, id, 2)`` stream in the order
    one step at a time would take them; then each step tests the balls of
    all probed cells at once.
    """
    N = partition.N
    space = partition.space
    steps, n = 14, 48
    ids = (np.arange(N) if N <= INRADIUS_PROBE_CELLS
           else np.linspace(0, N - 1, INRADIUS_PROBE_CELLS, dtype=int))
    anchor = partition.anchor[ids]
    t = None
    if space.kind == TORUS:
        u = rngmod.uniforms(seed, rngmod.VERIFY, N, ids, 2, shape=(steps, n, space.d))
    else:
        # per step the radius uniforms, then the tangent normals, as
        # sample_ball draws them
        u = np.empty((len(ids), steps, n))
        t = np.empty((len(ids), steps, n, 3))
        rngs = (rngmod.substream(seed, rngmod.VERIFY, N, int(j), 2) for j in ids)
        for g, uc, tc in zip(rngs, u, t):
            for s in range(steps):
                uc[s] = g.random(n)
                tc[s] = g.standard_normal((n, 3))
        # one matrix-vector product per cell over all its steps rounds as
        # one per step does
        for a, tc in zip(anchor, t):
            tc[...] = unit_tangents(a, tc.reshape(-1, 3)).reshape(steps, n, 3)
    lo_r = np.zeros(len(ids))
    hi_r = partition.diameter[ids].copy()
    owner = np.repeat(ids, n)
    for s in range(steps):
        mid = 0.5 * (lo_r + hi_r)
        ball = ball_points(space, anchor, mid, u[:, s], None if t is None else t[:, s])
        inside = cell_contains(partition, owner, ball.reshape(len(ids) * n, -1))
        inside = np.all(inside.reshape(len(ids), n), axis=1)
        lo_r = np.where(inside, mid, lo_r)
        hi_r = np.where(inside, hi_r, mid)
    return float(lo_r.min())


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def partition_to_json(partition: Partition) -> str:
    """The partition as JSON: space, N, meta and one list per cell array."""
    doc = {"space": {"kind": partition.space.kind, "d": partition.space.d},
           "N": partition.N, "meta": partition.meta}
    for name in _COLUMNS:
        arr = getattr(partition, name)
        if arr is not None:
            doc[name] = arr.tolist()
    return json.dumps(doc)


def partition_from_json(text: str) -> Partition:
    doc = json.loads(text)
    space = make_space(doc["space"]["kind"], doc["space"]["d"])
    arrays = {name: np.array(doc[name], dtype=np.int8 if name == "cap" else float)
              for name in _COLUMNS if name in doc}
    return Partition(space, doc["meta"], **arrays)
