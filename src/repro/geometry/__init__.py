"""Rectilinear geometry substrate for WRONoC physical design.

All waveguides in this reproduction are routed rectilinearly (horizontal
and vertical segments only), matching the paper's assumption that "
waveguides are routed either horizontally or vertically" (Sec. III-A).
The package provides:

- :class:`Point` — immutable 2-D points with Manhattan metrics.
- :class:`Segment` — axis-aligned segments with exact intersection
  classification (disjoint / point touch / proper crossing / collinear
  overlap).
- :class:`RectilinearPath` — polylines of axis-aligned segments, plus the
  two canonical L-shaped realizations of a two-pin connection.
- Scalar crossing predicates: :func:`paths_cross`,
  :func:`count_crossings`, :func:`edges_conflict`,
  :func:`edge_realizations` — the oracles of the bulk kernel.
- The vectorized crossing kernel every Step 1-2 geometry query runs
  through (:mod:`repro.geometry.conflicts_bulk`):
  :func:`build_edge_conflicts`, :func:`conflicting_edge_pairs`,
  :func:`option_crossings`, :class:`SegmentSet`.
- :class:`BBox` — axis-aligned bounding boxes.

Coordinates are floats in millimetres throughout the library; a global
tolerance :data:`EPS` guards float comparisons.
"""

from repro.geometry.point import EPS, Point, manhattan
from repro.geometry.segment import (
    Intersection,
    IntersectionKind,
    Segment,
    classify_intersection,
)
from repro.geometry.path import RectilinearPath, distance_along, l_route, l_routes
from repro.geometry.crossing import (
    build_edge_conflicts,
    build_edge_conflicts_scalar,
    count_crossings,
    crossing_points,
    edge_realizations,
    edges_conflict,
    paths_cross,
)
from repro.geometry.conflicts_bulk import (
    SegmentSet,
    build_edge_conflicts_bulk,
    conflicting_edge_indices,
    conflicting_edge_pairs,
    conflicts_between,
    option_crossings,
)
from repro.geometry.bbox import BBox
from repro.geometry.polygon import RectilinearPolygon

__all__ = [
    "EPS",
    "Point",
    "manhattan",
    "Segment",
    "Intersection",
    "IntersectionKind",
    "classify_intersection",
    "RectilinearPath",
    "distance_along",
    "l_route",
    "l_routes",
    "paths_cross",
    "count_crossings",
    "crossing_points",
    "edges_conflict",
    "edge_realizations",
    "build_edge_conflicts",
    "build_edge_conflicts_scalar",
    "build_edge_conflicts_bulk",
    "conflicting_edge_indices",
    "conflicting_edge_pairs",
    "conflicts_between",
    "option_crossings",
    "SegmentSet",
    "BBox",
    "RectilinearPolygon",
]
