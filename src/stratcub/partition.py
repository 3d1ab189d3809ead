"""Equal-measure, diameter-bounded partitions of the torus and the sphere.

Torus: a dyadic grid of ``m^d`` congruent half-open boxes.  Sphere: a zonal
equal-area layout (two polar caps plus collars cut into longitude sectors),
with collar boundaries solved in closed form from the cap-area formula so
that every cell has area exactly ``4*pi/N``.

Cells are half-open in every splitting coordinate, so coverage and
disjointness are exact, not approximate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from . import rng as rngmod
from .space import (L2_BLOCK, SPHERE2, TORUS, SpaceDescriptor, distance,
                    make_space, sample_ball, sample_uniform)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Cell:
    """One partition cell: exact measure, a closed-form diameter upper bound,
    a designated interior anchor, and enough geometry to sample and test
    membership exactly."""

    id: int
    space_kind: str
    measure: float
    diameter: float
    anchor: tuple[float, ...]
    geometry: dict


@dataclass(frozen=True)
class CellArrays:
    """Read-only per-cell arrays, row ``j`` describing ``cells[j]``.

    Torus cells fill ``lo`` and ``hi`` (N, d); sphere cells fill ``z``
    ((z_top, z_bot) per cell), ``lon`` ((lon_lo, lon_hi) per cell) and
    ``cap`` (+1 north cap, -1 south cap, 0 band), each (N, 2) or (N,).
    """

    measure: np.ndarray
    diameter: np.ndarray
    anchor: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    z: np.ndarray | None = None
    lon: np.ndarray | None = None
    cap: np.ndarray | None = None


@dataclass(frozen=True)
class Partition:
    space: SpaceDescriptor
    cells: tuple[Cell, ...]
    meta: dict = field(default_factory=dict)

    @property
    def N(self) -> int:
        return len(self.cells)

    @cached_property
    def arrays(self) -> CellArrays:
        """The cells as arrays, built once; ``cells`` stays the source of truth."""
        cells = self.cells
        cols = {"measure": [c.measure for c in cells],
                "diameter": [c.diameter for c in cells],
                "anchor": [c.anchor for c in cells]}
        keys = ("lo", "hi") if self.space.kind == TORUS else ("z", "lon")
        for key in keys:
            cols[key] = [c.geometry[key] for c in cells]
        arrays = {name: np.array(col, dtype=float) for name, col in cols.items()}
        if self.space.kind == SPHERE2:
            arrays["cap"] = np.array([0 if c.geometry["shape"] != "cap"
                                      else (1 if c.geometry["north"] else -1)
                                      for c in cells], dtype=np.int8)
        for arr in arrays.values():
            arr.setflags(write=False)
        return CellArrays(**arrays)

    def weights(self) -> np.ndarray:
        return self.arrays.measure.copy()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def torus_grid_partition(space: SpaceDescriptor, m: int) -> Partition:
    """Grid of m^d half-open boxes of side 1/m; exact weights m^{-d}."""
    if space.kind != TORUS:
        raise ValueError("torus_grid_partition needs a torus space")
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    d = space.d
    measure = m ** (-d)
    diam = 1.0 / m if m >= 2 else 0.5
    cells = []
    for cid in range(m ** d):
        idx = []
        k = cid
        for _ in range(d):
            idx.append(k % m)
            k //= m
        idx = idx[::-1]
        lo = tuple(i / m for i in idx)
        hi = tuple((i + 1) / m for i in idx)
        anchor = tuple((i + 0.5) / m for i in idx)
        cells.append(Cell(cid, TORUS, measure, diam, anchor, {"lo": lo, "hi": hi}))
    return Partition(space, tuple(cells), {"scheme": "torus_grid", "m": m})


def sphere_zonal_partition(space: SpaceDescriptor, N: int) -> Partition:
    """Zonal equal-area partition of S^2 into N cells of area exactly 4*pi/N.

    Collar boundaries are placed at z = 1 - 2*c/N for cumulative cell counts
    c, so cell areas are exact by construction; sector counts per collar come
    from accumulator rounding of the ideal (area-proportional) counts.
    """
    if space.kind != SPHERE2:
        raise ValueError("sphere_zonal_partition needs the sphere space")
    if N < 2:
        raise ValueError(f"need at least 2 cells, got {N}")
    measure = 4.0 * math.pi / N
    counts = _collar_counts(N)
    cells: list[Cell] = []
    cum = 1
    z_hi_cap = 1.0 - 2.0 / N
    cells.append(_cap_cell(0, N, north=True, z_edge=z_hi_cap, measure=measure))
    for k in counts:
        z_top = 1.0 - 2.0 * cum / N
        z_bot = 1.0 - 2.0 * (cum + k) / N
        for s in range(k):
            lon_lo = 2.0 * math.pi * s / k
            lon_hi = 2.0 * math.pi * (s + 1) / k
            cells.append(_band_cell(len(cells), z_top, z_bot, lon_lo, lon_hi,
                                    full=(k == 1), measure=measure))
        cum += k
    z_lo_cap = 1.0 - 2.0 * (N - 1) / N
    cells.append(_cap_cell(len(cells), N, north=False, z_edge=z_lo_cap, measure=measure))
    if len(cells) != N:
        raise AssertionError(f"built {len(cells)} cells for N={N}")
    bands = [[1.0, z_hi_cap, 1, 0]]
    first = 1
    cum = 1
    for k in counts:
        bands.append([1.0 - 2.0 * cum / N, 1.0 - 2.0 * (cum + k) / N, k, first])
        first += k
        cum += k
    bands.append([z_lo_cap, -1.0, 1, N - 1])
    return Partition(space, tuple(cells), {"scheme": "sphere_zonal", "bands": bands})


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


def _cap_cell(cid: int, N: int, north: bool, z_edge: float, measure: float) -> Cell:
    colat_edge = math.acos(z_edge)
    if north:
        geometry = {"shape": "cap", "north": True, "z": (1.0, z_edge),
                    "lon": (0.0, 2.0 * math.pi)}
        anchor = (0.0, 0.0, 1.0)
        diam = min(2.0 * colat_edge, math.pi)
    else:
        geometry = {"shape": "cap", "north": False, "z": (z_edge, -1.0),
                    "lon": (0.0, 2.0 * math.pi)}
        anchor = (0.0, 0.0, -1.0)
        diam = min(2.0 * (math.pi - colat_edge), math.pi)
    return Cell(cid, SPHERE2, measure, diam, anchor, geometry)


def _band_cell(cid: int, z_top: float, z_bot: float, lon_lo: float, lon_hi: float,
               full: bool, measure: float) -> Cell:
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(z_bot)
    if full:
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
    z_mid = 0.5 * (z_top + z_bot)
    lon_mid = 0.5 * (lon_lo + lon_hi)
    s = math.sqrt(max(0.0, 1.0 - z_mid * z_mid))
    anchor = (s * math.cos(lon_mid), s * math.sin(lon_mid), z_mid)
    geometry = {"shape": "band", "z": (z_top, z_bot), "lon": (lon_lo, lon_hi)}
    return Cell(cid, SPHERE2, measure, diam, anchor, geometry)


# ---------------------------------------------------------------------------
# membership, sampling, geometry queries
# ---------------------------------------------------------------------------

def cell_contains(cell: Cell, pts: np.ndarray) -> np.ndarray:
    """Exact membership test; half-open conventions make it a true partition."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if cell.space_kind == TORUS:
        lo = np.array(cell.geometry["lo"])
        hi = np.array(cell.geometry["hi"])
        return np.all((pts >= lo) & (pts < hi), axis=1)
    z = pts[:, 2]
    z_top, z_bot = cell.geometry["z"]
    if cell.geometry["shape"] == "cap":
        if cell.geometry["north"]:
            return z > z_bot
        return z <= z_top
    in_band = (z <= z_top) & (z > z_bot)
    lon_lo, lon_hi = cell.geometry["lon"]
    if lon_hi - lon_lo >= 2.0 * math.pi:
        return in_band
    lon = _longitude(pts)
    return in_band & (lon >= lon_lo) & (lon < lon_hi)


def find_cell(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Index of the cell containing each point (vectorized)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if partition.space.kind == TORUS:
        m = partition.meta["m"]
        flat = np.zeros(len(pts), dtype=int)
        for a in range(partition.space.d):
            flat = flat * m + _floor_index(pts[:, a] * m, m)
        return flat
    first, k, sector = _zonal_estimate(partition, pts)
    out = first + sector
    # float rounding at sector boundaries: nudge to the true half-open cell
    for shift in (-1, 1):
        cand = out + shift
        need = ~_inside(partition, out, pts)
        if not np.any(need):
            break
        valid = need & (cand >= 0) & (cand < partition.N)
        ok = np.zeros(len(pts), dtype=bool)
        ok[valid] = _inside(partition, cand[valid], pts[valid])
        out = np.where(ok, cand, out)
    return out


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


def _inside(partition: Partition, ids: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Exact half-open membership from the cell arrays, as ``cell_contains``.

    ``ids`` (n,) tests point i against cell ``ids[i]``; ``ids`` (n, c) or
    (1, c) tests it against each of ``ids[i, :]`` (or ``ids[0, :]``).
    """
    a = partition.arrays
    if ids.ndim == 2:
        pts = pts[:, None, :]
    if partition.space.kind == TORUS:
        return np.all((pts >= a.lo[ids]) & (pts < a.hi[ids]), axis=-1)
    z = pts[..., 2]
    lon = _longitude(pts)
    z_top, z_bot = a.z[ids, 0], a.z[ids, 1]
    lon_lo, lon_hi = a.lon[ids, 0], a.lon[ids, 1]
    cap = a.cap[ids]
    return (((cap == 1) | (z <= z_top)) & ((cap == -1) | (z > z_bot))
            & ((cap != 0) | (lon_hi - lon_lo >= TWO_PI)
               | ((lon >= lon_lo) & (lon < lon_hi))))


def cell_sample(cell: Cell, rng: np.random.Generator, n: int | None = None):
    """Uniform sample from the measure restricted to the cell.

    Torus boxes sample coordinates directly; sphere cells sample the
    z-coordinate uniformly on the cell's z-interval (area measure) and the
    longitude uniformly, which is exact for zonal geometry.
    """
    size = 1 if n is None else int(n)
    if cell.space_kind == TORUS:
        lo = np.array(cell.geometry["lo"])
        hi = np.array(cell.geometry["hi"])
        pts = lo + (hi - lo) * rng.random((size, len(lo)))
    else:
        z_top, z_bot = cell.geometry["z"]
        # u=0 lands on the closed (top) edge, matching the half-open bands
        z = z_top - (z_top - z_bot) * rng.random(size)
        lon_lo, lon_hi = cell.geometry["lon"]
        lon = lon_lo + (lon_hi - lon_lo) * rng.random(size)
        pts = _sphere_point(z, lon)
    return pts[0] if n is None else pts


def cell_points(partition: Partition, u: np.ndarray, ids=slice(None)) -> np.ndarray:
    """Map uniforms to points of the cells ``ids``, as ``cell_sample`` does.

    Torus: ``u`` is (n, m, d), m uniform vectors per cell.  Sphere: ``u``
    is (2, n, m), the z-uniforms then the longitude-uniforms.  Returns
    (n, m, dim).
    """
    a = partition.arrays
    if partition.space.kind == TORUS:
        lo, hi = a.lo[ids, None, :], a.hi[ids, None, :]
        return lo + (hi - lo) * u
    z_top, z_bot = a.z[ids, 0, None], a.z[ids, 1, None]
    lon_lo, lon_hi = a.lon[ids, 0, None], a.lon[ids, 1, None]
    return _sphere_point(z_top - (z_top - z_bot) * u[0],
                         lon_lo + (lon_hi - lon_lo) * u[1])


def _sphere_point(z: np.ndarray, lon: np.ndarray) -> np.ndarray:
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(lon), s * np.sin(lon), z], axis=-1)


def cell_inradius(cell: Cell) -> float:
    """Closed-form lower bound on the radius of a ball around the anchor
    that stays inside the cell."""
    if cell.space_kind == TORUS:
        lo = np.array(cell.geometry["lo"])
        hi = np.array(cell.geometry["hi"])
        return float(np.min(hi - lo) / 2.0)
    z_top, z_bot = cell.geometry["z"]
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(z_bot)
    if cell.geometry["shape"] == "cap":
        # the anchor is the pole, so the cap is itself a ball around it
        return colat_hi - colat_lo
    dth = (colat_hi - colat_lo) / 2.0
    lon_lo, lon_hi = cell.geometry["lon"]
    if lon_hi - lon_lo >= 2.0 * math.pi:
        return dth
    sin_min = min(math.sin(colat_lo), math.sin(colat_hi))
    return min(dth, sin_min * (lon_hi - lon_lo) / 2.0)


def cell_boundary_distance(cell: Cell, pts: np.ndarray) -> np.ndarray:
    """Distance from points to the cell (0 inside). Exact on both spaces."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if cell.space_kind == TORUS:
        lo = np.array(cell.geometry["lo"])
        hi = np.array(cell.geometry["hi"])
        mid = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        diff = np.abs(pts - mid)
        diff = np.minimum(diff, 1.0 - diff)
        gap = np.maximum(diff - half, 0.0)
        return gap.max(axis=1)
    z = np.clip(pts[:, 2], -1.0, 1.0)
    colat = np.arccos(z)
    z_top, z_bot = cell.geometry["z"]
    colat_lo = math.acos(z_top)
    colat_hi = math.acos(min(max(z_bot, -1.0), 1.0))
    if cell.geometry["shape"] == "cap":
        if cell.geometry["north"]:
            return np.maximum(colat - colat_hi, 0.0)
        return np.maximum(colat_lo - colat, 0.0)
    lon_lo, lon_hi = cell.geometry["lon"]
    band_gap = np.maximum(np.maximum(colat_lo - colat, colat - colat_hi), 0.0)
    if lon_hi - lon_lo >= 2.0 * math.pi:
        return band_gap
    dlon = np.mod(_longitude(pts) - lon_lo, 2.0 * math.pi)
    inside_lon = dlon < (lon_hi - lon_lo)
    out = np.where(inside_lon, band_gap, np.inf)
    miss = ~inside_lon
    if np.any(miss):
        sub = pts[miss]
        best = np.full(sub.shape[0], np.inf)
        for lon_e in (lon_lo, lon_hi):
            best = np.minimum(best, _meridian_segment_distance(
                sub, lon_e, colat_lo, colat_hi))
        out[miss] = best
    return out


def _meridian_segment_distance(pts: np.ndarray, lon0: float,
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
        endpoint = np.array([math.sin(colat_e) * math.cos(lon0),
                             math.sin(colat_e) * math.sin(lon0),
                             math.cos(colat_e)])
        d = np.minimum(d, np.arccos(np.clip(pts @ endpoint, -1.0, 1.0)))
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
    a = partition.arrays
    if partition.space.kind == TORUS:
        return np.prod(a.hi - a.lo, axis=1)
    return (a.lon[:, 1] - a.lon[:, 0]) * (a.z[:, 0] - a.z[:, 1])


def verify_partition(partition: Partition, sample_budget: int = 10_000,
                     seed: int = 0, pairs_per_cell: int = 32,
                     inradius_probe_cells: int = 64) -> PartitionReport:
    """Empirical check of the partition contract.

    Reports exact-measure residuals (stored and recomputed from geometry);
    coverage and disjointness counts: for each uniform sample, the number of
    cells whose exact half-open test contains it; sampled diameter-bound
    violations; and measured inclusion constants: ``c1`` from the largest
    sampled ball around an anchor that stays inside its cell, ``c2`` from
    the farthest sampled cell point from the anchor (both scaled by
    ``N^{1/d}``).

    The membership counts equal a brute-force test of every (sample, cell)
    pair.  When the stored cells match the layout recorded in ``meta`` (an
    O(N) check), only the cells next to each sample's grid or band/sector
    position can contain it, so only those are tested; any other partition
    gets the brute-force count.  Each cell's diameter samples come from its
    own ``(seed, VERIFY, N, id, 0|1)`` streams, mapped to points and
    measured a block of cells at a time.
    """
    space = partition.space
    N = partition.N
    total = space.total_measure
    target = total / N
    a = partition.arrays

    weights = partition.weights()
    measure_residual = abs(weights.sum() - total) / total
    max_cell_err = max(
        float(np.max(np.abs(a.measure - target) / target)),
        float(np.max(np.abs(geometric_cell_measures(partition) - target) / target)),
    )

    rng = rngmod.substream(seed, rngmod.VERIFY, N)
    pts = sample_uniform(space, rng, sample_budget)
    counts = _membership_counts(partition, pts)
    coverage_violations = int(np.sum(counts == 0))
    overlap_violations = int(np.sum(counts > 1))

    scale = N ** (1.0 / space.d)
    diam_violations = 0
    c2 = 0.0
    # the uniforms, points and three distance tables of a block hold
    # about L2_BLOCK floats
    block = max(1, L2_BLOCK // (8 * pairs_per_cell))
    for i0 in range(0, N, block):
        cells = partition.cells[i0:i0 + block]
        ids = slice(i0, i0 + len(cells))
        if space.kind == TORUS:
            u = np.empty((2, len(cells), pairs_per_cell, space.d))
        else:
            u = np.empty((2, 2, len(cells), pairs_per_cell))
        for j, cell in enumerate(cells):
            for r in (0, 1):
                rng = rngmod.substream(seed, rngmod.VERIFY, N, cell.id, r)
                if space.kind == TORUS:
                    rng.random(out=u[r, j])
                else:
                    rng.random(out=u[r, 0, j])
                    rng.random(out=u[r, 1, j])
        pa = cell_points(partition, u[0], ids)
        pb = cell_points(partition, u[1], ids)
        dd = distance(space, pa, pb)
        diam_violations += int(np.sum(dd > a.diameter[ids, None] * (1 + 1e-12)))
        anchor = a.anchor[ids, None, :]
        c2 = max(c2, float(distance(space, anchor, pa).max()),
                 float(distance(space, anchor, pb).max()))
    c2 *= scale

    deltas = a.diameter * scale
    c1 = _probe_inradius(partition, seed, inradius_probe_cells) * scale

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


def _membership_counts(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Number of cells containing each point under the exact half-open test."""
    if _layout_ok(partition):
        if partition.space.kind == TORUS:
            return _grid_counts(partition, pts)
        return _zonal_counts(partition, pts)
    counts = np.zeros(len(pts), dtype=np.int32)
    ids = np.arange(partition.N)[None, :]
    rows = max(1, L2_BLOCK // partition.N)
    for i in range(0, len(pts), rows):
        counts[i:i + rows] = _inside(partition, ids, pts[i:i + rows]).sum(axis=1)
    return counts


def _grid_edges(m: int) -> np.ndarray:
    """Grid edges ``i / m``, i = 0..m, rounded as ``torus_grid_partition`` rounds them."""
    return np.arange(m + 1) / m


def _layout_ok(partition: Partition) -> bool:
    """Whether the cells are exactly the layout ``meta`` describes.

    Torus: ``m^d`` cells in row-major order with ``lo == idx / m`` and
    ``hi == (idx + 1) / m``.  Sphere: a band table with strictly decreasing
    edges, each band's top equal to the previous bottom, caps at both ends
    and band sizes adding up to N; every cell's z-interval equal to its
    band's; and the sectors of each band tiling it in id order at
    longitudes ``2 pi s / k``.
    """
    a = partition.arrays
    meta = partition.meta
    N = partition.N
    if partition.space.kind == TORUS:
        d = partition.space.d
        m = meta.get("m")
        if (meta.get("scheme") != "torus_grid" or not isinstance(m, Integral)
                or m < 1 or m ** d != N):
            return False
        idx = np.indices((m,) * d).reshape(d, N).T
        edges = _grid_edges(m)
        return np.array_equal(a.lo, edges[idx]) and np.array_equal(a.hi, edges[idx + 1])
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
    return (np.array_equal(a.cap, cap)
            and np.array_equal(a.z, np.stack([top[band], bot[band]], axis=1))
            and np.array_equal(a.lon, np.stack([TWO_PI * s / ks[band],
                                                TWO_PI * (s + 1) / ks[band]], axis=1)))


_NEIGHBOURS = np.array([-1, 0, 1])


def _grid_counts(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Membership counts on a verified grid: a product of per-axis counts.

    Per axis, only the estimated interval ``floor(x m)`` and its two
    neighbours can hold x (rounding moves the estimate by at most one), and
    each is tested exactly.
    """
    m = partition.meta["m"]
    edges = _grid_edges(m)
    counts = np.ones(len(pts), dtype=np.int32)
    for x in pts.T:
        cand = _floor_index(x * m, m)[:, None] + _NEIGHBOURS
        valid = (cand >= 0) & (cand < m)
        cand = np.clip(cand, 0, m - 1)
        hit = valid & (edges[cand] <= x[:, None]) & (x[:, None] < edges[cand + 1])
        counts *= np.sum(hit, axis=1, dtype=np.int32)
    return counts


def _zonal_counts(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Membership counts on a verified zonal layout: the point's band is
    exact, so only the estimated sector and its neighbours in that band are
    tested."""
    first, k, sector = _zonal_estimate(partition, pts)
    cand = sector[:, None] + _NEIGHBOURS
    valid = (cand >= 0) & (cand < k[:, None])
    ids = first[:, None] + np.clip(cand, 0, k[:, None] - 1)
    return np.sum(valid & _inside(partition, ids, pts), axis=1, dtype=np.int32)


def _probe_inradius(partition: Partition, seed: int, max_cells: int) -> float:
    """Largest r (min over probed cells) with sampled B(anchor, r) inside."""
    N = partition.N
    ids = range(N) if N <= max_cells else np.linspace(0, N - 1, max_cells, dtype=int)
    worst = np.inf
    for cid in ids:
        cell = partition.cells[int(cid)]
        anchor = np.asarray(cell.anchor)
        lo_r, hi_r = 0.0, cell.diameter
        rng = rngmod.substream(seed, rngmod.VERIFY, N, cid, 2)
        for _ in range(14):
            mid = 0.5 * (lo_r + hi_r)
            ball = sample_ball(partition.space, anchor, mid, rng, 48)
            if bool(np.all(cell_contains(cell, ball))):
                lo_r = mid
            else:
                hi_r = mid
        worst = min(worst, lo_r)
    return float(worst)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def partition_to_json(partition: Partition) -> str:
    doc = {
        "space": {"kind": partition.space.kind, "d": partition.space.d},
        "N": partition.N,
        "meta": partition.meta,
        "cells": [
            {
                "id": c.id,
                "measure": c.measure,
                "diameter": c.diameter,
                "anchor": list(c.anchor),
                "geometry": _geometry_doc(c.geometry),
            }
            for c in partition.cells
        ],
    }
    return json.dumps(doc)


def _geometry_doc(geometry: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in geometry.items()}


def partition_from_json(text: str) -> Partition:
    doc = json.loads(text)
    space = make_space(doc["space"]["kind"], doc["space"]["d"])
    cells = []
    for c in doc["cells"]:
        geometry = {k: (tuple(v) if isinstance(v, list) else v)
                    for k, v in c["geometry"].items()}
        cells.append(Cell(c["id"], space.kind, c["measure"], c["diameter"],
                          tuple(c["anchor"]), geometry))
    return Partition(space, tuple(cells), doc.get("meta", {}))
