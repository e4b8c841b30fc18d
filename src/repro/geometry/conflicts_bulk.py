"""Vectorized crossing kernel for every Step 1-2 geometry query.

One rectilinear crossing predicate underlies both Step 1's edge
conflicts (Sec. III-A) and Step 2's chord feasibility (Sec. III-B):
two waveguides interact illegally on a proper crossing, a T-junction
or a collinear overlap, except at a declared shared terminal.  This
module evaluates that predicate over whole numpy arrays of segment
pairs at once:

- :func:`build_edge_conflicts_bulk` — the Sec. III-A conflict dict over
  all C(n,2) candidate ring edges (every edge's two L-shaped
  realizations are canonicalized into coordinate arrays once);
- :func:`conflicting_edge_indices` / :func:`conflicting_edge_pairs` /
  :func:`conflicts_between` — conflicts among or between explicit edge
  lists (lazy cuts, sub-cycle merge, heuristic-ring repair);
- :func:`option_crossings` — the crossing table between every route
  option of every pair of tour edges (ring realization selection);
- :class:`SegmentSet` — path-versus-set queries for the shortcut stage.

The kernel replicates the scalar arithmetic of
:func:`repro.geometry.segment.classify_intersection` exactly — the same
``EPS`` comparisons on the same float values in the same roles — so
its output is byte-identical to the scalar predicates of
:mod:`repro.geometry.crossing`, which stay as the test oracle
(``tests/test_conflicts_bulk.py`` proves the equality on seeded
sweeps).  The key collapse that makes vectorization tractable: for
*illegality* testing, ``CROSS`` and ``TOUCH`` between perpendicular
segments share one formula (intersection in range and not at an
ignored shared terminal), and a parallel interaction is illegal unless
it is a single-point touch at an ignored terminal.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.point import EPS, Point

#: Rows per kernel array pass: candidate edge pairs per batch and
#: segment pairs per :func:`_segments_illegal` call.  Bounds peak
#: temporary-array memory (~50 float64/bool arrays of this length)
#: and keeps a call's temporaries in a core's L2 cache: at 16k rows
#: and more the per-row cost of ``_segments_illegal`` measured 1.5-5x
#: that at 4k rows (2-vCPU x86 host, 4 MiB L2).
_BATCH = 4096

#: Bounding-box prefilter margin.  Every realization of an edge lies in
#: the edge's endpoint bounding box, and every illegal interaction
#: requires coordinates to meet within ``EPS``, so boxes separated by
#: more than ``EPS`` on either axis cannot conflict; a small multiple
#: keeps the filter conservative against accumulated rounding.
_BOX_MARGIN = 4.0 * EPS


def _edge_arrays(
    points: Sequence[Point], pairs: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint, realization-segment, and validity arrays for edges.

    Returns ``(ends, seg, valid)``:

    - ``ends[e] = (ax, ay, bx, by)`` — the edge's terminals;
    - ``seg[e, r, s] = (px, py, qx, qy)`` — segment ``s`` of L-route
      realization ``r`` (0 = vertical-first, 1 = horizontal-first),
      endpoint order matching :func:`repro.geometry.path.l_route`;
    - ``valid[e, r, s]`` — axis-aligned straight edges have a single
      one-segment realization under both realization slots, so their
      second segment slot is masked off.

    Raises ``ValueError`` for degenerate edges (coincident terminals),
    mirroring ``RectilinearPath``'s construction error.
    """
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    ai = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
    bi = np.fromiter((j for _, j in pairs), dtype=np.intp, count=len(pairs))
    ax, ay, bx, by = xs[ai], ys[ai], xs[bi], ys[bi]

    same_col = np.abs(ax - bx) <= EPS
    same_row = np.abs(ay - by) <= EPS
    if bool(np.any(same_col & same_row)):
        raise ValueError("a path needs at least two distinct points")
    straight = same_col | same_row

    n_edges = len(pairs)
    ends = np.stack([ax, ay, bx, by], axis=1)
    seg = np.empty((n_edges, 2, 2, 4), dtype=np.float64)
    valid = np.ones((n_edges, 2, 2), dtype=bool)
    for r, (cx, cy) in enumerate(((ax, by), (bx, ay))):
        # First leg a -> corner; straight edges collapse to a -> b.
        seg[:, r, 0, 0] = ax
        seg[:, r, 0, 1] = ay
        seg[:, r, 0, 2] = np.where(straight, bx, cx)
        seg[:, r, 0, 3] = np.where(straight, by, cy)
        # Second leg corner -> b, absent for straight edges.
        seg[:, r, 1, 0] = cx
        seg[:, r, 1, 1] = cy
        seg[:, r, 1, 2] = bx
        seg[:, r, 1, 3] = by
        valid[:, r, 1] = ~straight
    return ends, seg, valid


def _segments_illegal(
    s1: np.ndarray,
    s2: np.ndarray,
    ignore: Sequence[tuple[np.ndarray | bool, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Mask of segment pairs with an illegal interaction.

    ``s1``/``s2`` are ``(..., 4)`` arrays of ``(px, py, qx, qy)`` rows,
    broadcast against each other, in the argument order of
    ``classify_intersection(s1, s2)``; ``ignore``
    lists ``(active, x, y)`` permitted meeting points (shared
    terminals), where ``active`` masks rows the point applies to.
    """
    p1x, p1y, q1x, q1y = s1[..., 0], s1[..., 1], s1[..., 2], s1[..., 3]
    p2x, p2y, q2x, q2y = s2[..., 0], s2[..., 1], s2[..., 2], s2[..., 3]
    h1 = np.abs(p1y - q1y) <= EPS
    h2 = np.abs(p2y - q2y) <= EPS

    def ignored(px: np.ndarray, py: np.ndarray) -> np.ndarray:
        hit = np.zeros(px.shape, dtype=bool)
        for active, ix, iy in ignore:
            hit |= active & (np.abs(px - ix) <= EPS) & (np.abs(py - iy) <= EPS)
        return hit

    # Perpendicular: intersection candidate (v.fixed, h.fixed) must lie
    # in both ranges; CROSS and TOUCH are equally illegal unless the
    # point is an ignored shared terminal.
    x1_lo, x1_hi = np.minimum(p1x, q1x), np.maximum(p1x, q1x)
    y1_lo, y1_hi = np.minimum(p1y, q1y), np.maximum(p1y, q1y)
    x2_lo, x2_hi = np.minimum(p2x, q2x), np.maximum(p2x, q2x)
    y2_lo, y2_hi = np.minimum(p2y, q2y), np.maximum(p2y, q2y)
    hx_lo = np.where(h1, x1_lo, x2_lo)
    hx_hi = np.where(h1, x1_hi, x2_hi)
    hy = np.where(h1, p1y, p2y)
    vx = np.where(h1, p2x, p1x)
    vy_lo = np.where(h1, y2_lo, y1_lo)
    vy_hi = np.where(h1, y2_hi, y1_hi)
    in_range = (
        (hx_lo - EPS <= vx)
        & (vx <= hx_hi + EPS)
        & (vy_lo - EPS <= hy)
        & (hy <= vy_hi + EPS)
    )

    # Parallel: same fixed coordinate and overlapping spans; a
    # positive-length overlap is always illegal, a point touch only
    # when not at an ignored terminal.  The touch point uses s1's fixed
    # coordinate, as in ``_classify_parallel``.
    fixed1 = np.where(h1, p1y, p1x)
    fixed2 = np.where(h2, p2y, p2x)
    lo = np.maximum(np.where(h1, x1_lo, y1_lo), np.where(h2, x2_lo, y2_lo))
    hi = np.minimum(np.where(h1, x1_hi, y1_hi), np.where(h2, x2_hi, y2_hi))
    intersecting = (np.abs(fixed1 - fixed2) <= EPS) & (lo <= hi + EPS)
    pointlike = np.abs(hi - lo) <= EPS

    # One ignore test per row, at the perpendicular intersection point
    # or the parallel touch point.
    perpendicular = h1 != h2
    at_ignored = ignored(
        np.where(perpendicular, vx, np.where(h1, lo, fixed1)),
        np.where(perpendicular, hy, np.where(h1, fixed1, lo)),
    )
    return np.where(
        perpendicular,
        in_range & ~at_ignored,
        intersecting & (~pointlike | ~at_ignored),
    )


def _shared_ignores(
    ends1: np.ndarray, ends2: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-row permitted meeting points of two edge arrays.

    Rows are ``(ax, ay, bx, by)`` terminals; each of edge 1's terminals
    that edge 2 shares becomes an ``ignore`` entry of
    :func:`_segments_illegal`, as the scalar predicates pass
    ``ignore=shared`` to ``paths_cross``.
    """
    a1x, a1y, b1x, b1y = (ends1[:, k] for k in range(4))
    a2x, a2y, b2x, b2y = (ends2[:, k] for k in range(4))
    shared_a = (
        (np.abs(a1x - a2x) <= EPS) & (np.abs(a1y - a2y) <= EPS)
    ) | ((np.abs(a1x - b2x) <= EPS) & (np.abs(a1y - b2y) <= EPS))
    shared_b = (
        (np.abs(b1x - a2x) <= EPS) & (np.abs(b1y - a2y) <= EPS)
    ) | ((np.abs(b1x - b2x) <= EPS) & (np.abs(b1y - b2y) <= EPS))
    return ((shared_a, a1x, a1y), (shared_b, b1x, b1y))


def _paths_illegal(
    seg1: np.ndarray,
    valid1: np.ndarray,
    seg2: np.ndarray,
    valid2: np.ndarray,
    ignore: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Row-wise ``paths_cross`` over padded path arrays.

    ``seg1``/``seg2`` are ``(m, S, 4)`` segment rows of ``m`` path
    pairs (``valid`` masks the padding); ``ignore`` entries hold one
    value per row.  Live segment pairs go through
    :func:`_segments_illegal` in batches of ``_BATCH``.
    """
    rows, i1, i2 = np.nonzero(valid1[:, :, None] & valid2[:, None, :])
    out = np.zeros(seg1.shape[0], dtype=bool)
    for start in range(0, rows.shape[0], _BATCH):
        take = slice(start, start + _BATCH)
        row = rows[take]
        hit = _segments_illegal(
            seg1[row, i1[take]],
            seg2[row, i2[take]],
            tuple((active[row], x[row], y[row]) for active, x, y in ignore),
        )
        out[row[hit]] = True
    return out


def _pass_offsets(
    pairings: tuple[tuple[int, ...], tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """Flat segment offsets of each segment pair of ``pairings``.

    Segment ``s`` of realization ``r`` of edge ``e`` is row
    ``4 * e + 2 * r + s`` of ``seg.reshape(-1, 4)``; pairing ``k``
    sets realization ``pairings[0][k]`` of the first edge against
    realization ``pairings[1][k]`` of the second, and contributes its
    four segment pairs in ``(s1, s2)`` order.
    """
    off1, off2 = [], []
    for r1, r2 in zip(*pairings):
        for s1 in range(2):
            for s2 in range(2):
                off1.append(2 * r1 + s1)
                off2.append(2 * r2 + s2)
    return np.array(off1, dtype=np.intp), np.array(off2, dtype=np.intp)


#: The conflict kernel's two passes: realization pairing ``(0, 0)``
#: over every candidate pair, then the other three pairings over the
#: pairs the first pass left standing.
_FIRST_PASS = _pass_offsets(((0,), (0,)))
_SECOND_PASS = _pass_offsets(((0, 1, 1), (1, 0, 1)))


def _pairings_illegal(
    ends: np.ndarray,
    seg: np.ndarray,
    valid: np.ndarray,
    idx1: np.ndarray,
    idx2: np.ndarray,
    offsets: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per edge pair: is every realization pairing of a pass illegal?

    ``offsets`` come from :func:`_pass_offsets`; a pairing is illegal
    when any of its live segment pairs is.  Edges sharing both
    terminals never conflict.  Each row block's segment pairs go
    through one :func:`_segments_illegal` call of at most ``_BATCH``
    rows.
    """
    off1, off2 = offsets
    fan_out = off1.shape[0]
    seg_rows = seg.reshape(-1, 4)
    valid_rows = valid.reshape(-1)
    step = max(1, _BATCH // fan_out)
    out = np.empty(idx1.shape, dtype=bool)
    for start in range(0, idx1.shape[0], step):
        b1 = idx1[start : start + step]
        b2 = idx2[start : start + step]
        ignore = _shared_ignores(ends[b1], ends[b2])
        (shared_a, _, _), (shared_b, _, _) = ignore
        # One row per (edge pair, segment pair), edge pair major.
        rows1 = (4 * b1[:, None] + off1).reshape(-1)
        rows2 = (4 * b2[:, None] + off2).reshape(-1)
        # ``take`` gathers rows far faster than fancy indexing here.
        live = valid_rows.take(rows1) & valid_rows.take(rows2)
        illegal = live & _segments_illegal(
            seg_rows.take(rows1, axis=0),
            seg_rows.take(rows2, axis=0),
            tuple(
                tuple(np.repeat(column, fan_out) for column in entry)
                for entry in ignore
            ),
        )
        out[start : start + step] = illegal.reshape(-1, fan_out // 4, 4).any(
            axis=2
        ).all(axis=1) & ~(shared_a & shared_b)
    return out


def _conflict_mask(
    ends: np.ndarray,
    seg: np.ndarray,
    valid: np.ndarray,
    idx1: np.ndarray,
    idx2: np.ndarray,
) -> np.ndarray:
    """Conflict predicate for a batch of edge-index pairs.

    Edges conflict when every realization pairing has an illegal
    interaction; edges sharing both terminals never conflict (the MILP
    covers that case with the 2-cycle constraint).  Two array passes:
    pairing ``(0, 0)`` over every pair, then the other three pairings
    over that pass's survivors only.
    """
    conflict = _pairings_illegal(ends, seg, valid, idx1, idx2, _FIRST_PASS)
    survivors = np.flatnonzero(conflict)
    conflict[survivors] = _pairings_illegal(
        ends, seg, valid, idx1[survivors], idx2[survivors], _SECOND_PASS
    )
    return conflict


def _candidate_pairs(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-index pairs whose bounding boxes come within ``EPS``.

    Processed in row blocks so the pairwise masks stay bounded in
    memory for large edge counts.
    """
    lo_x = np.minimum(ends[:, 0], ends[:, 2])
    hi_x = np.maximum(ends[:, 0], ends[:, 2])
    lo_y = np.minimum(ends[:, 1], ends[:, 3])
    hi_y = np.maximum(ends[:, 1], ends[:, 3])
    n_edges = ends.shape[0]
    block = max(1, _BATCH // max(1, n_edges))
    chunks1: list[np.ndarray] = []
    chunks2: list[np.ndarray] = []
    for start in range(0, n_edges, block):
        stop = min(start + block, n_edges)
        rows = slice(start, stop)
        near = (
            (lo_x[rows, None] <= hi_x[None, :] + _BOX_MARGIN)
            & (lo_x[None, :] <= hi_x[rows, None] + _BOX_MARGIN)
            & (lo_y[rows, None] <= hi_y[None, :] + _BOX_MARGIN)
            & (lo_y[None, :] <= hi_y[rows, None] + _BOX_MARGIN)
        )
        # Keep only the upper triangle (each unordered pair once).
        near &= np.arange(n_edges)[None, :] > np.arange(start, stop)[:, None]
        r, c = np.nonzero(near)
        chunks1.append(r + start)
        chunks2.append(c)
    if not chunks1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return np.concatenate(chunks1), np.concatenate(chunks2)


def build_edge_conflicts_bulk(
    points: Sequence[Point],
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """All-pairs conflict dict over the C(n,2) node-pair edges.

    Same contract as the scalar ``build_edge_conflicts_scalar``: keys
    and members are undirected node pairs ``(i, j)`` with ``i < j``,
    every pair present as a key.  Raises ``ValueError`` when two nodes
    coincide (a degenerate edge), like the scalar path.
    """
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    conflicts: dict[tuple[int, int], set[tuple[int, int]]] = {
        pair: set() for pair in pairs
    }
    if len(pairs) == 1:
        # Single edge: still surface degenerate input like the oracle.
        _edge_arrays(points, pairs)
    for e1, e2 in conflicting_edge_indices(points, pairs):
        pair_a, pair_b = pairs[e1], pairs[e2]
        conflicts[pair_a].add(pair_b)
        conflicts[pair_b].add(pair_a)
    return conflicts


def conflicting_edge_indices(
    points: Sequence[Point],
    edges: Sequence[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Index pairs ``(k1, k2)``, ``k1 < k2``, of conflicting edges.

    ``edges`` are node-index pairs in either orientation; edge ``k``
    runs from ``points[edges[k][0]]`` to ``points[edges[k][1]]``.
    Pairs come in lexicographic order, as a loop over
    ``itertools.combinations(range(len(edges)), 2)`` would yield them.
    """
    if len(edges) < 2:
        return []
    ends, seg, valid = _edge_arrays(points, edges)
    idx1, idx2 = _candidate_pairs(ends)
    out: list[tuple[int, int]] = []
    for start in range(0, idx1.shape[0], _BATCH):
        batch1 = idx1[start : start + _BATCH]
        batch2 = idx2[start : start + _BATCH]
        mask = _conflict_mask(ends, seg, valid, batch1, batch2)
        out.extend(zip(batch1[mask].tolist(), batch2[mask].tolist()))
    return out


def conflicting_edge_pairs(
    points: Sequence[Point],
    edges: Sequence[tuple[int, int]],
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Conflicting pairs among an explicit edge subset, as edge tuples.

    Used by the lazy cutting-plane loop to test an incumbent's selected
    edges without materializing the full conflict dict.  Returns each
    conflicting unordered pair once, in deterministic (input-order)
    order.
    """
    return [
        (tuple(edges[k1]), tuple(edges[k2]))
        for k1, k2 in conflicting_edge_indices(points, edges)
    ]


def conflicts_between(
    points: Sequence[Point],
    edges1: Sequence[tuple[int, int]],
    edges2: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Row-wise conflict mask: does ``edges1[k]`` conflict with ``edges2[k]``?

    Edges are node-index pairs, as in :func:`conflicting_edge_indices`.
    """
    m = len(edges1)
    if m == 0:
        return np.zeros(0, dtype=bool)
    ends, seg, valid = _edge_arrays(points, list(edges1) + list(edges2))
    rows = np.arange(m)
    return _conflict_mask(ends, seg, valid, rows, rows + m)


def _path_rows(path) -> np.ndarray:
    """``(S, 4)`` segment rows ``(ax, ay, bx, by)`` of one path."""
    return np.array(
        [(s.a.x, s.a.y, s.b.x, s.b.y) for s in path.segments],
        dtype=np.float64,
    )


def option_crossings(
    edges: Sequence[tuple[Point, Point]],
    options: Sequence[Sequence],
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crossing table between the route options of edge pairs.

    ``edges[k]`` are edge ``k``'s terminals ``(a, b)`` and
    ``options[k]`` its candidate paths.  Returns ``(idx1, idx2,
    table)`` where ``table[m, i1, i2]`` equals ``paths_cross(
    options[idx1[m]][i1], options[idx2[m]][i2], ignore=shared)`` and
    ``shared`` lists the terminals of edge ``idx1[m]`` that edge
    ``idx2[m]`` shares; slots past an edge's option count read False.

    ``pairs`` defaults to the lexicographic ``idx1 < idx2`` pairs whose
    terminal bounding boxes meet.  Every option must stay inside its
    edge's terminal box (L-shapes and monotone staircases do), so the
    omitted pairs cannot cross.
    """
    ends = np.array(
        [(a.x, a.y, b.x, b.y) for a, b in edges], dtype=np.float64
    ).reshape(len(edges), 4)
    if pairs is None:
        idx1, idx2 = _candidate_pairs(ends)
    else:
        idx1, idx2 = (np.asarray(p, dtype=np.intp) for p in pairs)
    width = max(len(opts) for opts in options)
    depth = max(len(path.segments) for opts in options for path in opts)
    seg = np.zeros((len(edges), width, depth, 4), dtype=np.float64)
    valid = np.zeros((len(edges), width, depth), dtype=bool)
    for k, opts in enumerate(options):
        for i, path in enumerate(opts):
            rows = _path_rows(path)
            seg[k, i, : len(rows)] = rows
            valid[k, i, : len(rows)] = True

    # Flatten (pair, option 1, option 2) into one row per path pair.
    m = idx1.shape[0]
    shape = (m, width, width, depth)
    seg1 = np.broadcast_to(seg[idx1][:, :, None], shape + (4,))
    seg2 = np.broadcast_to(seg[idx2][:, None, :], shape + (4,))
    valid1 = np.broadcast_to(valid[idx1][:, :, None], shape)
    valid2 = np.broadcast_to(valid[idx2][:, None, :], shape)
    ignore = tuple(
        tuple(np.repeat(column, width * width) for column in entry)
        for entry in _shared_ignores(ends[idx1], ends[idx2])
    )
    table = _paths_illegal(
        seg1.reshape(-1, depth, 4),
        valid1.reshape(-1, depth),
        seg2.reshape(-1, depth, 4),
        valid2.reshape(-1, depth),
        ignore,
    )
    return idx1, idx2, table.reshape(m, width, width)


class SegmentSet:
    """The segments of a growing collection of paths, as arrays.

    Every query compares all segments of its query paths with every
    stored segment in one vectorized call.  Replicates the scalar
    ``classify_intersection`` arithmetic exactly, with the query
    segment in the ``s1`` role (matching ``paths_cross(query,
    stored)``).  Stored paths are numbered in insertion order.
    """

    __slots__ = ("rows", "starts")

    def __init__(self, paths: Iterable = ()) -> None:
        self.rows = np.empty((0, 4), dtype=np.float64)
        #: Index of each stored path's first row.
        self.starts = np.empty(0, dtype=np.intp)
        for path in paths:
            self.add(path)

    def add(self, path) -> None:
        """Store one more path."""
        self.starts = np.append(self.starts, self.rows.shape[0])
        self.rows = np.concatenate([self.rows, _path_rows(path)])

    def illegal_matrix(
        self, paths: Sequence, ignore: Sequence[Point] = ()
    ) -> np.ndarray:
        """``(len(paths), stored paths)`` mask of illegal interactions.

        Entry ``[p, k]`` equals ``paths_cross(paths[p], stored[k],
        ignore)``.
        """
        if not self.starts.shape[0]:
            return np.zeros((len(paths), 0), dtype=bool)
        query = [_path_rows(path) for path in paths]
        counts = [len(rows) for rows in query]
        hit = _segments_illegal(
            np.concatenate(query)[:, None, :],
            self.rows[None, :, :],
            tuple((True, p.x, p.y) for p in ignore),
        )
        path_starts = np.cumsum([0] + counts[:-1])
        hit = np.logical_or.reduceat(hit, path_starts, axis=0)
        return np.logical_or.reduceat(hit, self.starts, axis=1)

    def illegal_each(
        self, paths: Sequence, ignore: Sequence[Point] = ()
    ) -> list[bool]:
        """Per path: any illegal interaction with the stored paths?"""
        return self.illegal_matrix(paths, ignore).any(axis=1).tolist()

    def any_illegal(self, path, ignore: Sequence[Point] = ()) -> bool:
        """True when ``path`` has an illegal interaction with the set."""
        return self.illegal_each([path], ignore)[0]

    def proper_crossings(
        self, path, ignore: Sequence[Point] = ()
    ) -> list[Point]:
        """Proper (``CROSS``) intersection points of ``path`` vs the set.

        Touches and overlaps are excluded, as in ``crossing_points``;
        duplicates are *not* merged (callers here only test point
        properties, not counts).  Points come in query-segment order,
        then stored order.
        """
        if not self.starts.shape[0]:
            return []
        s1 = _path_rows(path)[:, None, :]
        s2 = self.rows[None, :, :]
        p1x, p1y, q1x, q1y = s1[..., 0], s1[..., 1], s1[..., 2], s1[..., 3]
        p2x, p2y, q2x, q2y = s2[..., 0], s2[..., 1], s2[..., 2], s2[..., 3]
        h1 = np.abs(p1y - q1y) <= EPS
        h2 = np.abs(p2y - q2y) <= EPS
        hx_lo = np.where(h1, np.minimum(p1x, q1x), np.minimum(p2x, q2x))
        hx_hi = np.where(h1, np.maximum(p1x, q1x), np.maximum(p2x, q2x))
        hy = np.where(h1, p1y, p2y)
        vx = np.where(h1, p2x, p1x)
        vy_lo = np.where(h1, np.minimum(p2y, q2y), np.minimum(p1y, q1y))
        vy_hi = np.where(h1, np.maximum(p2y, q2y), np.maximum(p1y, q1y))
        in_range = (
            (hx_lo - EPS <= vx)
            & (vx <= hx_hi + EPS)
            & (vy_lo - EPS <= hy)
            & (hy <= vy_hi + EPS)
        )

        def at(x, y) -> np.ndarray:
            return (np.abs(vx - x) <= EPS) & (np.abs(hy - y) <= EPS)

        # A meeting at any segment endpoint is a touch, not a crossing.
        cross = (h1 != h2) & in_range
        cross &= ~(at(p1x, p1y) | at(q1x, q1y) | at(p2x, p2y) | at(q2x, q2y))
        for p in ignore:
            cross &= ~at(p.x, p.y)
        qi, ri = np.nonzero(cross)
        return [
            Point(x, y)
            for x, y in zip(vx[qi, ri].tolist(), hy[qi, ri].tolist())
        ]
