"""Spans around calls into the kakeya layers, recorded from the benchmark's side.

The library is not edited.  While a `Tracer` is installed, each traced
public function is replaced, in every kakeya module that binds it, by a
wrapper that records a span: its name, busy time (see `busyclock`), parent
span and a few counts taken from the call's arguments and result.  Because
the names are replaced where `kakeya.search`, `kakeya.core` and
`kakeya.cli` look them up, calls made inside the library nest under the
benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field

from busyclock import CLOCK
from kakeya import cli, core, geometry, search
from kakeya import field as kfield


@dataclass(eq=False)
class Span:
    name: str
    phase: object
    parent: Span | None
    dur: float = 0.0
    children: list[Span] = field(default_factory=list)
    tag: str = ""
    evals: int = 0  # (direction, point) evaluations, computed from sizes
    nodes: int = 0
    workers: int = 1


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _evals_level_masks(span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    span.evals = len(result) * a["f"].q ** a["n"]


def _evals_build_union(span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    span.evals = len(a["assignment"]) * a["f"].q ** a["n"]


def _evals_is_kakeya(span, fn, args, kwargs, result):
    pset = _bound(fn, args, kwargs)["pset"]
    if result.plane_dim < pset.n - 1:
        span.tag = "kplane"
    else:
        span.tag = "accept" if result.ok else "reject"
    scanned = len(result.witness) if result.ok else result.failing_index + 1
    span.evals = scanned * pset.cardinality * (pset.n - result.plane_dim)


def _search_counts(span, fn, args, kwargs, result):
    span.workers = _bound(fn, args, kwargs)["workers"]
    span.nodes = result.nodes_explored
    if result.nodes_explored == 0 and result.proof_of_optimality:
        span.tag = "lb_exit"


# span name -> (function as defined in its home module, annotator)
TRACED = {
    "field.make_field": (kfield.make_field, None),
    "geometry.enumerate_directions": (geometry.enumerate_directions, None),
    "geometry.enumerate_subspaces": (geometry.enumerate_subspaces, None),
    "core.level_masks": (core.level_masks, _evals_level_masks),
    "core.build_union": (core.build_union, _evals_build_union),
    "core.is_kakeya": (core.is_kakeya, _evals_is_kakeya),
    "core.incidence_stats": (core.incidence_stats, None),
    "search.greedy_upper_bound": (search.greedy_upper_bound, None),
    "search.minimal_kakeya_exact": (search.minimal_kakeya_exact, _search_counts),
    "cli.main": (cli.main, None),
}


class Tracer:
    """Collects spans while installed and while `phase` is not None."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: object = None
        self._stack: list[Span] = []

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.phase, parent)
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            self._stack.append(span)
            t0 = CLOCK.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = CLOCK.since(t0)
                self._stack.pop()
            if annotate is not None:
                annotate(span, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of a traced function in the kakeya modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "kakeya" or name.startswith("kakeya."))]
        saved = []
        for name, (fn, annotate) in TRACED.items():
            wrapper = self._wrap(name, fn, annotate)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def _is_core(span: Span | None) -> bool:
    return span is not None and span.name.startswith("core.")


def pass_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one timed pass, from the spans recorded in it."""
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.dur
        if s.tag:
            total[f"{s.name}:{s.tag}"] += s.dur
    exact = [s for s in spans if s.name == "search.minimal_kakeya_exact"]
    bnb_self = sum(s.dur - sum(c.dur for c in s.children) for s in exact)
    nodes = sum(s.nodes for s in exact)
    evals = sum(s.evals for s in spans)
    core_busy = sum(s.dur for s in spans if _is_core(s) and not _is_core(s.parent))
    cli_self = sum(s.dur - sum(c.dur for c in s.children if _is_core(c))
                   for s in spans if s.name == "cli.main")
    return {
        "geometry.enumerate_directions_s": total["geometry.enumerate_directions"],
        "geometry.enumerate_subspaces_s": total["geometry.enumerate_subspaces"],
        "core.level_masks_s": total["core.level_masks"],
        "core.build_union_s": total["core.build_union"],
        "core.is_kakeya_accept_s": total["core.is_kakeya:accept"],
        "core.is_kakeya_reject_s": total["core.is_kakeya:reject"],
        "core.is_kakeya_kplane_s": total["core.is_kakeya:kplane"],
        "core.incidence_stats_s": total["core.incidence_stats"],
        "core.point_evals": evals,
        "core.busy_s": core_busy,
        "search.nodes": nodes,
        "search.greedy_s": total["search.greedy_upper_bound"],
        "search.bnb_self_s": bnb_self,
        "search.lb_exits": sum(1 for s in exact if s.tag == "lb_exit"),
        "search.parallel_nodes": sum(s.nodes for s in exact if s.workers > 1),
        "cli.self_s": cli_self,
    }


def layer_metrics(tracer: Tracer, setup_phases, pass_phases) -> dict[str, float]:
    """Per-layer figures: the median over the traced set-ups of make_field
    time, the median over the traced passes of each pass figure, and rates
    taken from those medians."""
    by_phase: dict[object, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_phase[s.phase].append(s)
    out = {"field.make_field_s": statistics.median(
        sum(s.dur for s in by_phase[p] if s.name == "field.make_field")
        for p in setup_phases)}
    rows = [pass_layers(by_phase[p]) for p in pass_phases]
    for key in rows[0]:
        out[key] = statistics.median(row[key] for row in rows)
    busy = out.pop("core.busy_s")
    out["core.point_evals_per_s"] = out["core.point_evals"] / busy if busy else 0.0
    bnb = out["search.bnb_self_s"]
    out["search.nodes_per_s"] = out["search.nodes"] / bnb if bnb else 0.0
    return out

