"""Exact computations for Kakeya sets with respect to hyperplanes in F_q^n."""

from .bounds import (
    CauchySchwarzCount,
    cauchy_schwarz_count,
    kakeya_lower_bound,
    kakeya_lower_bound_ceiling,
    planar_lower_bound,
)
from .core import (
    IncidenceReport,
    KakeyaVerdict,
    OffsetAssignment,
    build_union,
    incidence_stats,
    is_kakeya,
    random_assignment,
    read_assignment,
    read_point_set,
    write_assignment,
    write_point_set,
)
from .field import (
    FieldSpec,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_sub,
    make_field,
    parse_field_spec,
)
from .geometry import (
    Direction,
    SubspaceBasis,
    count_directions_formula,
    count_fiber,
    count_spanning_tuples,
    enumerate_directions,
    enumerate_subspaces,
)
from .pointset import PointSet

# The search engine loads on first use, so that the commands and callers
# that never search do not import it (nor multiprocessing).
_SEARCH_NAMES = frozenset({
    "SearchResult",
    "greedy_upper_bound",
    "minimal_kakeya_exact",
    "minimal_kakeya_powerset",
})


def __getattr__(name):
    if name in _SEARCH_NAMES:
        from . import search
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CauchySchwarzCount",
    "Direction",
    "FieldSpec",
    "IncidenceReport",
    "KakeyaVerdict",
    "OffsetAssignment",
    "PointSet",
    "SearchResult",
    "SubspaceBasis",
    "build_union",
    "cauchy_schwarz_count",
    "count_directions_formula",
    "count_fiber",
    "count_spanning_tuples",
    "enumerate_directions",
    "enumerate_subspaces",
    "field_add",
    "field_inv",
    "field_mul",
    "field_neg",
    "field_sub",
    "greedy_upper_bound",
    "incidence_stats",
    "is_kakeya",
    "kakeya_lower_bound",
    "kakeya_lower_bound_ceiling",
    "make_field",
    "minimal_kakeya_exact",
    "minimal_kakeya_powerset",
    "parse_field_spec",
    "planar_lower_bound",
    "random_assignment",
    "read_assignment",
    "read_point_set",
    "write_assignment",
    "write_point_set",
]
