"""Equal-measure, diameter-bounded partitions of the torus and the sphere.

Torus: a dyadic grid of ``m^d`` congruent boxes.  Sphere: a zonal equal-area
layout (two polar caps plus collars cut into longitude sectors), with collar
boundaries at z = 1 - 2 c / N so that every cell has area exactly ``4*pi/N``.

Every cell is a half-open box ``[lo, hi)`` in a chart: on T^d the point
itself; on S^2 the pair (-z, longitude), in which area is d(-z) d(lon)
(Archimedes' hat-box theorem), with -z clipped to ``[-1, 1)`` so that both
poles, and any |z| > 1 left by rounding, lie in the caps.  So membership,
the map from uniforms to cell points, the measures recomputed from geometry
and the cell corners are one rule on both spaces, and coverage and
disjointness are exact.  Each cell's size is held in closed form as the
inradius and circumradius about its anchor, and its diameter follows from the
circumradius; verification checks the circumradius against sampled points and
the cell's corners.  All rows of a layout come from its ``meta`` through one
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from . import rng as rngmod
from .space import (L2_BLOCK, SPHERE2, TORUS, SpaceDescriptor, box_distance, distance,
                    sample_uniform, sphere_point)

TWO_PI = 2.0 * math.pi
_BELOW_ONE = math.nextafter(1.0, 0.0)
_COLUMNS = ("measure", "inradius", "circumradius", "anchor", "lo", "hi")


@dataclass(frozen=True, eq=False)
class Partition:
    """Read-only per-cell arrays, row ``j`` describing cell ``j``.

    Every cell has an exact ``measure`` (N,) and an interior ``anchor`` (N,
    dim).  ``inradius`` (N,) is the radius of a ball about the anchor that
    stays inside the cell (a closed-form lower bound, exact on the torus),
    and ``circumradius`` (N,) the exact radius of the smallest ball about
    the anchor that holds the cell.  The read-only ``diameter`` follows from
    it.  The cell itself is the chart box ``[lo, hi)``, ``lo`` and
    ``hi`` (N, k): k = d on T^d, and on S^2 k = 2, ``(-z_top, lon_lo)`` and
    ``(-z_bot, lon_hi)``.  ``layout_ok`` tells whether the rows follow the
    layout in ``meta``.
    """

    space: SpaceDescriptor
    meta: dict
    measure: np.ndarray
    inradius: np.ndarray
    circumradius: np.ndarray
    anchor: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)

    @property
    def N(self) -> int:
        return len(self.measure)

    def weights(self) -> np.ndarray:
        return self.measure.copy()

    @cached_property
    def diameter(self) -> np.ndarray:
        """``min(2 circumradius, diam M)`` (N,), by the triangle inequality
        through the anchor; on the torus, the box's exact longest side."""
        out = np.minimum(2.0 * self.circumradius, self.space.diameter)
        out.setflags(write=False)
        return out

    @cached_property
    def layout_ok(self) -> bool:
        return _layout_ok(self)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy integers
    included, ``bool`` not) of at least ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_cell(partition: Partition, j) -> None:
    """Raise ``ValueError`` unless ``j`` is an integer cell id in [0, N)."""
    check_count(f"cell id (N = {partition.N})", j, 0)
    if j >= partition.N:
        raise ValueError(f"cell id (N = {partition.N}) must be < {partition.N}, got {j}")


def check_keys(what: str, given, known) -> None:
    """Raise ``ValueError`` on the first key of ``given`` (sorted) not in ``known``."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r} for {what}; "
                         f"it takes {', '.join(known)}")


def check_real(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number (numpy numbers
    included, ``bool`` not)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_reals(name: str, values) -> None:
    """Raise ``ValueError`` unless ``values`` is a flat sequence of real
    numbers (each as ``check_real`` takes it)."""
    flat = np.asarray(values, dtype=object)
    if flat.ndim != 1:
        raise ValueError(f"{name} must be a list of real numbers, got {values!r}")
    for v in flat:
        check_real(name, v)


def torus_grid_partition(space: SpaceDescriptor, m: int) -> Partition:
    """Grid of m^d half-open boxes of side 1/m in row-major order; exact
    weights m^{-d}."""
    if space.kind != TORUS:
        raise ValueError("torus_grid_partition needs a torus space")
    check_count("grid resolution", m, 1)
    m, d = int(m), space.d
    N = m ** d
    meta = {"scheme": "torus_grid", "m": m}
    rows = _layout_rows(space, meta)
    # the radii about the box centre are half the shortest and the longest
    # side; (d, N), since numpy reduces along a long axis far faster than a
    # short one
    side = np.ascontiguousarray((rows["hi"] - rows["lo"]).T)
    return Partition(space, meta, measure=np.full(N, m ** (-d)),
                     inradius=side.min(axis=0) / 2.0, circumradius=side.max(axis=0) / 2.0,
                     **rows)


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
    check_count("cell count", N, 2)
    N = int(N)
    bands = [[1.0, 1.0 - 2.0 / N, 1, 0]]
    cum = 1
    for k in _collar_counts(N):
        bands.append([1.0 - 2.0 * cum / N, 1.0 - 2.0 * (cum + k) / N, k, cum])
        cum += k
    bands.append([1.0 - 2.0 * (N - 1) / N, -1.0, 1, N - 1])
    meta = {"scheme": "sphere_zonal", "bands": bands}
    rows = _layout_rows(space, meta)
    inradius, circumradius = _zonal_radii(**rows)
    return Partition(space, meta, measure=np.full(N, 4.0 * math.pi / N),
                     inradius=inradius, circumradius=circumradius, **rows)


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


def _zonal_radii(lo: np.ndarray, hi: np.ndarray,
                 anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inradius and circumradius about the anchors of zonal cells.

    A band cell at anchor colatitude c_a between edge colatitudes c_top and
    c_bot, with half-width h in longitude, is at c_a - c_top and c_bot - c_a
    from its edge circles and asin(sin c_a sin h) from the great circles of
    its side meridians (no sides in a full annulus); the least of these is
    its inradius.  Distance to the anchor grows with |lon offset|, and along
    a meridian at offset h < pi it is largest at an end of the arc, so the
    farthest cell point is one of the two corners at offset h: the
    circumradius.  An annulus's far meridian (h = pi) is at distance
    min(c_a + c, 2 pi - c_a - c), which peaks at pi inside the band when the
    anchor's antipode lies in it.  A cap (rows 0 and N - 1) is a ball about
    its pole, so both radii are its colatitude radius.
    """
    z = -np.stack([lo[:, 0], hi[:, 0]], axis=1)  # (z_top, z_bot)
    colat = np.arccos(z)
    z_a = anchor[:, 2]
    c_a = np.arccos(z_a)
    h = 0.5 * (hi[:, 1] - lo[:, 1])
    sector = h < math.pi
    side = np.where(sector, np.arcsin(np.sin(c_a) * np.sin(h)), math.pi)
    inradius = np.minimum(np.minimum(c_a - colat[:, 0], colat[:, 1] - c_a), side)
    # spherical law of cosines from the anchor to the corners at offset h
    cos_d = (z_a[:, None] * z
             + np.sqrt(1.0 - z_a * z_a)[:, None] * np.sqrt(1.0 - z * z) * np.cos(h)[:, None])
    circumradius = np.arccos(np.clip(cos_d, -1.0, 1.0)).max(axis=1)
    antipode = ~sector & (c_a + colat[:, 0] <= math.pi) & (math.pi <= c_a + colat[:, 1])
    circumradius[antipode] = math.pi
    inradius[0] = circumradius[0] = colat[0, 1]
    inradius[-1] = circumradius[-1] = math.pi - colat[-1, 0]
    return inradius, circumradius


# ---------------------------------------------------------------------------
# membership, sampling, geometry queries
# ---------------------------------------------------------------------------

def find_cell(partition: Partition, pts: np.ndarray) -> np.ndarray:
    """Index of the cell containing each point (vectorized).

    Found by the same exact half-open test that ``verify_partition`` counts
    with.  A point that no cell holds gets a valid but arbitrary cell id: one
    outside the unit cube, and on both spaces one with any NaN coordinate.
    """
    return _locate(partition, np.atleast_2d(np.asarray(pts, dtype=float)))[0]


def _longitude(pts: np.ndarray) -> np.ndarray:
    """Longitude in [0, 2 pi).  A tiny negative angle rounds to 2 pi under
    the modulo, which no sector holds; it is taken as 0."""
    lon = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), TWO_PI)
    return np.where(lon == TWO_PI, 0.0, lon)


def _chart(space: SpaceDescriptor, pts: np.ndarray) -> list[np.ndarray]:
    """The chart coordinates of ``pts (..., dim)``, one array per axis: the
    point's own on the torus; on the sphere -z, clipped to ``[-1, 1)`` so that
    both poles and any |z| > 1 fall in a cap, and the longitude.  Negation is
    exact, and a NaN coordinate stays NaN, which no box holds."""
    if space.kind == TORUS:
        return [pts[..., i] for i in range(space.d)]
    return [np.clip(-pts[..., 2], -1.0, _BELOW_ONE), _longitude(pts)]


def _locate(partition: Partition, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the id of a cell holding it and the number of cells that
    do, under the exact half-open test.

    On rows that follow ``meta`` the stored edges are searched exactly, with
    no assumption about their spacing: per grid axis, the last edge at or
    below the coordinate gives the index, and a point outside ``[0, 1)`` (or
    NaN) gets none.  On the sphere the band is the first whose bottom lies
    below the point; its rows are sorted by ``lo`` as (-z, lon) pairs, so one
    lexicographic search on ``lo`` gives the sector whose box alone can hold
    the point, and the box test counts it.  Other rows have every cell
    tested, a block of points at a time.  A point no cell holds still gets a
    valid id.
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
    if partition.space.kind == TORUS:
        m = partition.meta["m"]
        edges = _grid_edges(m)
        ids, counts = np.zeros(n, dtype=int), np.ones(n, dtype=np.int32)
        for x in pts.T:
            # NaN and x >= 1 search past the last edge, x < 0 before the first
            i = np.searchsorted(edges, x, side="right") - 1
            ids = ids * m + np.clip(i, 0, m - 1)
            counts *= (i >= 0) & (i < m)
        return ids, counts
    # the band is exact (clamped for NaN); numpy orders complex numbers by
    # real then imaginary part, and -z_top is the band's stored lo0 bit for bit
    chart = _chart(partition.space, pts)
    bands = np.asarray(partition.meta["bands"], dtype=float)
    band = np.minimum(np.searchsorted(-bands[:, 1], chart[0], side="right"), len(bands) - 1)
    lo = partition.lo
    ids = np.searchsorted(lo[:, 0] + 1j * lo[:, 1], -bands[band, 0] + 1j * chart[1],
                          side="right") - 1
    ids = np.clip(ids, 0, partition.N - 1)
    return ids, _in_boxes(partition, ids, chart).astype(np.int32)


def cell_contains(partition: Partition, ids, pts: np.ndarray) -> np.ndarray:
    """Exact half-open membership, ``lo <= chart < hi`` on every axis; the
    half-open boxes make it a true partition.  A point with any NaN
    coordinate lies in no cell, on both spaces.

    ``ids`` a cell id or (n,) tests point i against cell ``ids[i]``; ``ids``
    (n, c) or (1, c) tests it against each of ``ids[i, :]`` (or ``ids[0, :]``).
    """
    ids = np.asarray(ids)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if ids.ndim == 2:
        pts = pts[:, None, :]
    return _in_boxes(partition, ids, _chart(partition.space, pts))


def _in_boxes(partition: Partition, ids, chart: list[np.ndarray]) -> np.ndarray:
    """Whether chart points lie in the boxes ``ids``, one axis at a time."""
    hit = True
    for i, c in enumerate(chart):
        hit = hit & (c >= partition.lo[ids, i]) & (c < partition.hi[ids, i])
    return hit


def cell_sample(partition: Partition, j: int, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """n uniform points from the measure restricted to cell j; returns (n, dim).

    The cell's chart box is sampled uniformly, which is the restricted
    measure on both spaces (area is d(-z) d(lon) on the sphere).
    """
    check_cell(partition, j)
    return cell_points(partition, rng, n, slice(j, j + 1))[0]


def cell_points(partition: Partition, rng: np.random.Generator, m: int,
                ids=slice(None)) -> np.ndarray:
    """m uniform points in each of the cells ``ids``; returns (cells, m, dim).

    The one generator fills the cells in id order, in the layout of
    ``_axis_uniforms``.
    """
    u = _axis_uniforms(partition, rng.random, partition.measure[ids].shape[0], m)
    return _cell_map(partition, u, ids)


def stream_points(partition: Partition, seed: int, *path: int, first: int, count: int,
                  m: int = 1, ids=slice(None), keep=None) -> np.ndarray:
    """m uniform points in each of the cells ``ids`` for units ``first`` ..
    ``first + count - 1`` of the stream ``(seed, *path)``; returns (count,
    cells, m, dim).

    Unit k owns run k of the stream, laid out as ``cell_points`` draws it.
    ``ids`` (cells,) or a slice gives every unit the same cells; (count,
    cells) gives unit ``first + i`` the cells ``ids[i]``.  One
    ``rng.window`` call reads the runs and one cell map turns them into
    points, so the result does not depend on how a caller splits its units.
    ``keep`` (positions along the cells axis) maps only those cells of
    every run; the runs keep their full layout, so the result is the full
    result's ``[:, keep]``.
    """
    def draw(shape):
        return rngmod.window(seed, *path, start=first * math.prod(shape), shape=(count,) + shape)

    u = _axis_uniforms(partition, draw, partition.measure[ids].shape[-1], m)
    if keep is not None:
        u = [a[..., keep, :] for a in u]
        ids = np.arange(partition.N)[ids][..., keep]
    return _cell_map(partition, u, ids)


def _axis_uniforms(partition: Partition, draw, cells: int, m: int) -> list[np.ndarray]:
    """Per chart axis, the (..., cells, m) uniforms from one ``draw(shape)``
    that may prepend axes.  The stream layout: (cells, m, d) on the torus,
    and (2, cells, m) on the sphere, the -z row then the longitude row."""
    if partition.space.kind == TORUS:
        u = draw((cells, m, partition.space.d))
        return [u[..., i] for i in range(partition.space.d)]
    return list(draw((2, cells, m)).swapaxes(0, -3))


def _cell_map(partition: Partition, u, ids) -> np.ndarray:
    """Points of the cells ``ids`` from per-axis uniforms ``u[i]`` (...,
    cells, m): chart axis i is ``lo + (hi - lo) u[i]`` (u = 0 on the closed
    edge), elementwise, so leading axes map as one slice at a time would;
    ``ids`` may carry leading axes matching them.  Each axis is one slice
    written into one output: broadcast over a short trailing axis, numpy's
    inner loop would run k elements at a time."""
    lo, hi = partition.lo[ids], partition.hi[ids]
    k = lo.shape[-1]
    out = np.empty(np.broadcast(lo[..., 0, None], u[0]).shape + (k,))
    for i in range(k):
        a = lo[..., i, None]
        np.multiply(hi[..., i, None] - a, u[i], out=out[..., i])
        out[..., i] += a
    return _chart_point(partition.space, out)


def _chart_point(space: SpaceDescriptor, c: np.ndarray) -> np.ndarray:
    """The points of chart coordinates ``c (..., k)``."""
    if space.kind == TORUS:
        return c
    # 0 - c, not -c: a zero height is +0.0, as z_top - (z_top - z_bot) u gives it
    return sphere_point(0.0 - c[..., 0], c[..., 1])


def cell_boundary_distance(partition: Partition, ids, pts: np.ndarray) -> np.ndarray:
    """Distance from points to cells (0 inside); exact on both spaces.

    ``ids`` a cell id or (n,) measures point i to cell ``ids[i]``, as in
    ``cell_contains``.  On the sphere, in colatitude t and longitude: a point
    in a cell's longitude range is at the band gap ``max(top - t, t - bot,
    0)`` (a cap's far edge is its pole, and caps and full annuli span every
    longitude).  A point outside it is nearest to the side meridian at the
    smaller longitude offset D: at ``asin(sin t sin D)`` when the foot
    ``atan2(sin t cos D, cos t)`` lies on the arc, else at the nearer end.
    """
    ids = np.asarray(ids)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if partition.space.kind == TORUS:
        return box_distance(pts, partition.lo[ids], partition.hi[ids])
    t = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    edge = np.arccos(-np.stack([partition.lo[ids, 0], partition.hi[ids, 0]], axis=-1))
    top, bot = edge[..., 0], edge[..., 1]
    gap = np.maximum(np.maximum(top - t, t - bot), 0.0)
    lon_lo, lon_hi = partition.lo[ids, 1], partition.hi[ids, 1]
    dlon = np.mod(_longitude(pts) - lon_lo, TWO_PI)
    outside = dlon >= lon_hi - lon_lo
    off = np.minimum(TWO_PI - dlon, dlon - (lon_hi - lon_lo))
    sin_t, cos_t = np.sin(t), np.cos(t)
    toward = sin_t * np.cos(off)
    foot = np.arctan2(toward, cos_t)
    # spherical law of cosines to the arc's two ends
    ends = np.arccos(np.clip(cos_t[:, None] * np.cos(edge) + toward[:, None] * np.sin(edge),
                             -1.0, 1.0)).min(axis=-1)
    side = np.where((top <= foot) & (foot <= bot), np.arcsin(sin_t * np.sin(off)), ends)
    return np.where(outside, side, gap)


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
    """Recompute every cell's measure from its chart box (independent of the
    stored ``measure`` field)."""
    return np.prod(partition.hi - partition.lo, axis=1)


def verify_partition(partition: Partition, sample_budget: int = 10_000,
                     seed: int = 0, pairs_per_cell: int = 32) -> PartitionReport:
    """Empirical check of the partition contract.

    Reports exact-measure residuals (stored and recomputed from geometry);
    coverage and disjointness counts: for each uniform sample, the number of
    cells whose exact half-open test contains it; sampled size-bound
    violations; and the inclusion constants ``c1`` (least ``inradius``) and
    ``c2`` (greatest ``circumradius``), both in closed form and scaled by
    ``N^{1/d}``.

    The membership counts come from ``_locate``, the cell locator of
    ``find_cell``, and equal a brute-force test of every (sample, cell)
    pair.  The size samples come from the one stream ``(seed, VERIFY, N,
    1)``, in which cell j owns the j-th run of ``2 pairs_per_cell`` points,
    so they do not depend on how cells are blocked.  A point or a cell
    corner farther from the anchor than the ``circumradius`` counts as a
    ``diameter_violations``; the ``diameter`` follows from the circumradius,
    so ``diameter_ok`` gates both.
    """
    check_count("sample_budget", sample_budget, 1)
    check_count("pairs_per_cell", pairs_per_cell, 1)
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
    slack = 1 + 1e-12
    # the corners come from the cell map at uniforms in {0, 1}; a slightly
    # small stored size is seen there, where sampled points rarely reach
    k = partition.lo.shape[1]
    corner_u = np.indices((2,) * k).reshape(k, -1)
    # the uniforms, points and distances of a block hold about L2_BLOCK floats
    block = max(1, L2_BLOCK // (8 * pairs_per_cell))
    for i0 in range(0, N, block):
        cells = np.arange(i0, min(N, i0 + block))
        pts = stream_points(partition, seed, rngmod.VERIFY, N, 1, first=i0, count=len(cells),
                            m=2 * pairs_per_cell, ids=cells[:, None])[:, 0]
        corners = _cell_map(partition, corner_u, cells)
        anchor = partition.anchor[cells, None, :]
        reach = partition.circumradius[cells, None] * slack
        diam_violations += int(sum(np.sum(distance(space, anchor, q) > reach)
                                   for q in (pts, corners)))

    deltas = partition.diameter * scale

    return PartitionReport(
        n_cells=N,
        sample_budget=sample_budget,
        measure_residual=measure_residual,
        max_cell_measure_error=max_cell_err,
        coverage_violations=coverage_violations,
        overlap_violations=overlap_violations,
        diameter_violations=diam_violations,
        delta_scaled=(float(deltas.min()), float(deltas.max())),
        c1_scaled=float(partition.inradius.min() * scale),
        c2_scaled=float(partition.circumradius.max() * scale),
        equal_measure_ok=(measure_residual <= 1e-12 and max_cell_err <= 1e-12),
        coverage_ok=(coverage_violations == 0 and overlap_violations == 0),
        diameter_ok=(diam_violations == 0),
    )


def _grid_edges(m: int) -> np.ndarray:
    """Grid edges ``i / m``, i = 0..m."""
    return np.arange(m + 1) / m


def _layout_rows(space: SpaceDescriptor, meta: dict) -> dict[str, np.ndarray]:
    """The rows of the layout that ``meta`` describes, by column name.

    Torus: the ``m^d`` boxes ``[idx / m, (idx + 1) / m)`` of the grid index
    ``idx`` in row-major order, anchored at their centres.  Sphere: the band
    table expanded to its cells, the sectors of a band tiling it in id order
    at longitudes ``2 pi s / k``, as boxes in (-z, lon); band cells anchored
    at their (z, lon) midpoint and caps at their pole.
    """
    if space.kind == TORUS:
        m, d = meta["m"], space.d
        # per-axis indices (m^d, d) in row-major order
        idx = np.ascontiguousarray(np.indices((m,) * d).reshape(d, -1).T)
        edges = _grid_edges(m)
        return {"lo": edges[idx], "hi": edges[idx + 1], "anchor": (idx + 0.5) / m}
    bands = np.asarray(meta["bands"], dtype=float)
    ks = bands[:, 2].astype(int)
    band = np.repeat(np.arange(len(bands)), ks)
    k = ks[band]
    s = np.arange(len(band)) - bands[band, 3].astype(int)
    z_top, z_bot = bands[band, 0], bands[band, 1]
    lon_lo, lon_hi = TWO_PI * s / k, TWO_PI * (s + 1) / k
    anchor = sphere_point(0.5 * (z_top + z_bot), 0.5 * (lon_lo + lon_hi))
    anchor[0], anchor[-1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    return {"lo": np.stack([-z_top, lon_lo], axis=1), "hi": np.stack([-z_bot, lon_hi], axis=1),
            "anchor": anchor}


def _layout_ok(partition: Partition) -> bool:
    """Whether the rows are exactly those of the layout ``meta`` describes.

    ``meta`` itself must be a layout of N cells: on the torus an integer
    ``m >= 1`` with ``m^d == N``; on the sphere a band table with strictly
    decreasing edges, each band's top equal to the previous bottom, caps at
    both ends, first cell ids in order and band sizes adding up to N.  Then
    every stored row must equal the row ``_layout_rows`` gives.
    """
    meta = partition.meta
    N = partition.N
    if partition.space.kind == TORUS:
        m = meta.get("m")
        if (meta.get("scheme") != "torus_grid" or not isinstance(m, Integral)
                or m < 1 or m ** partition.space.d != N):
            return False
    else:
        if meta.get("scheme") != "sphere_zonal":
            return False
        bands = np.asarray(meta.get("bands", []), dtype=float)
        if bands.ndim != 2 or bands.shape[1] != 4 or len(bands) < 2:
            return False
        top, bot, k, first = bands.T
        ks = k.astype(int)
        if (np.any(ks != k) or np.any(ks < 1) or ks.sum() != N or ks[0] != 1 or ks[-1] != 1
                or not np.array_equal(first, np.concatenate([[0], np.cumsum(ks)[:-1]]))
                or not np.all(np.diff(bot) < 0) or not np.array_equal(top[1:], bot[:-1])):
            return False
    return all(np.array_equal(getattr(partition, name), row)
               for name, row in _layout_rows(partition.space, meta).items())
