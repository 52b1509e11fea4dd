"""Static semantic analysis of query trees and canonical plans.

The algebra is closed and every operator's effect on the stream's
*static type* — CRS, spatial extent, value domain, band arity, temporal
window — is known without executing anything. :func:`analyze` propagates
that type bottom-up through the tree (with source spans when the query
came in as text), then cross-checks its canonical form, and reports
everything it can prove wrong as :class:`~repro.analysis.diagnostics.
Diagnostic` values with stable codes.

What is *provable* here is deliberately conservative: bounds are
propagated as supersets (an unknown bound stays unknown), so an emitted
error means the query genuinely cannot behave as written — never a
false alarm from a loose approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

from ..core.timeset import TimeInterval, TimeSet
from ..errors import GeoStreamsError
from ..geo.crs import CRS
from ..geo.region import BoundingBox, Region
from ..plan.canonical import canonicalize
from ..plan.ops import VALUE_MAP_DEFAULTS
from ..query import ast as q
from ..query.calibration import CalibrationProfile
from ..query.parser import parse_query_spanned
from .diagnostics import Diagnostic, DiagnosticReport, Severity, SourceSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.slo import SLOPolicy
    from ..query.cost import StreamProfile
    from ..server.catalog import StreamCatalog

__all__ = ["analyze", "StaticContext"]

_STRETCH_KINDS = frozenset({"linear", "equalize", "gaussian"})
_RESAMPLE_METHODS = frozenset({"nearest", "bilinear", "bicubic"})
_AGG_FUNCS = frozenset({"mean", "min", "max", "sum", "count"})
_AGG_MODES = frozenset({"sliding", "tumbling"})
_GAMMAS = frozenset({"+", "-", "*", "/", "sup", "inf", "mosaic", "ndvi", "evi2"})
# Contrast stretches normalize onto the 8-bit display range.
_STRETCH_RANGE = (0.0, 255.0)


@dataclass(frozen=True)
class StaticContext:
    """Catalog-derived facts the analyzer can lean on (all optional)."""

    known_streams: frozenset[str] | None = None
    crs_of: Mapping[str, CRS] | None = None
    extents: Mapping[str, BoundingBox] | None = None
    value_bounds: Mapping[str, tuple[float | None, float | None]] | None = None
    channels: Mapping[str, int] | None = None
    profiles: "Mapping[str, StreamProfile] | None" = None

    @classmethod
    def from_catalog(cls, catalog: "StreamCatalog") -> "StaticContext":
        ids = list(catalog.ids())
        extents: dict[str, BoundingBox] = {}
        bounds: dict[str, tuple[float | None, float | None]] = {}
        channels: dict[str, int] = {}
        for sid in ids:
            extent = catalog.extent(sid)
            if extent is not None:
                extents[sid] = extent
            vset = catalog.get(sid).metadata.value_set
            bounds[sid] = (vset.lo, vset.hi)
            channels[sid] = vset.channels
        return cls(
            known_streams=frozenset(ids),
            crs_of=dict(catalog.crs_of()),
            extents=extents,
            value_bounds=bounds,
            channels=channels,
            profiles=catalog.profiles(),
        )


@dataclass(frozen=True)
class _Info:
    """Propagated static type of a sub-expression (None = unknown)."""

    crs: CRS | None = None
    bbox: BoundingBox | None = None  # carries its own CRS
    restricted: bool = False  # bbox tightened by a restriction already?
    lo: float | None = None
    hi: float | None = None
    channels: int | None = None
    t_lo: float = -math.inf  # accumulated measured-time window
    t_hi: float = math.inf
    s_lo: float = -math.inf  # accumulated scan-sector window
    s_hi: float = math.inf


class _Checker:
    def __init__(
        self,
        ctx: StaticContext,
        spans: Mapping[int, tuple[int, int]],
    ) -> None:
        self.ctx = ctx
        self.spans = spans
        self.diagnostics: list[Diagnostic] = []

    # -- emission -----------------------------------------------------------------

    def emit(
        self,
        code: str,
        message: str,
        node: q.QueryNode,
        severity: Severity,
        hint: str | None = None,
    ) -> None:
        span = self.spans.get(id(node))
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                span=SourceSpan(*span) if span is not None else None,
                node=node.describe(),
                hint=hint,
            )
        )

    def error(self, code: str, message: str, node: q.QueryNode, hint: str | None = None) -> None:
        self.emit(code, message, node, Severity.ERROR, hint)

    def warn(self, code: str, message: str, node: q.QueryNode, hint: str | None = None) -> None:
        self.emit(code, message, node, Severity.WARNING, hint)

    # -- the propagation walk -----------------------------------------------------

    def visit(self, node: q.QueryNode) -> _Info:
        method = getattr(self, f"_visit_{type(node).__name__.lower()}", None)
        if method is not None:
            return method(node)
        # Unknown node kinds flow through their first child untouched.
        children = node.children
        return self.visit(children[0]) if children else _Info()

    def _visit_streamref(self, node: q.StreamRef) -> _Info:
        sid = node.stream_id
        known = self.ctx.known_streams
        if known is not None and sid not in known:
            self.error(
                "GS-REF001",
                f"unknown stream {sid!r}; catalog has {sorted(known)}",
                node,
            )
            return _Info()
        crs = (self.ctx.crs_of or {}).get(sid)
        bbox = (self.ctx.extents or {}).get(sid)
        lo, hi = (self.ctx.value_bounds or {}).get(sid, (None, None))
        return _Info(
            crs=crs,
            bbox=bbox,
            lo=lo,
            hi=hi,
            channels=(self.ctx.channels or {}).get(sid),
        )

    def _visit_empty(self, node: q.Empty) -> _Info:
        self.error(
            "GS-SAT003",
            f"query contains a provably empty stream ({node.reason})",
            node,
        )
        return _Info()

    def _visit_spatialrestrict(self, node: q.SpatialRestrict) -> _Info:
        info = self.visit(node.child)
        region = node.region
        region_bb = self._region_bbox(region, node)
        if getattr(region, "is_empty_hint", False):
            self.error(
                "GS-SAT001",
                "restriction region is an empty intersection of regions",
                node,
            )
            return replace(info, restricted=True)
        target_crs = info.crs or (info.bbox.crs if info.bbox is not None else None)
        if region_bb is not None and target_crs is not None and region_bb.crs != target_crs:
            try:
                region_bb = region_bb.transformed(target_crs)
            except GeoStreamsError as exc:
                self.error(
                    "GS-CRS002",
                    f"region (crs {region_bb.crs.name}) cannot be mapped into the "
                    f"stream CRS {target_crs.name}: {exc}",
                    node,
                )
                return replace(info, restricted=True)
        if (
            region_bb is not None
            and info.bbox is not None
            and region_bb.crs == info.bbox.crs
        ):
            if not region_bb.intersects(info.bbox):
                if info.restricted:
                    self.error(
                        "GS-SAT001",
                        "spatial restriction is disjoint from the extent left by "
                        "earlier restrictions — the query can never deliver a frame",
                        node,
                    )
                else:
                    self.error(
                        "GS-SAT002",
                        f"region is disjoint from the source frame extent "
                        f"{_fmt_bbox(info.bbox)} — the query can never deliver a frame",
                        node,
                    )
                return replace(info, restricted=True)
            region_bb = region_bb.intersection(info.bbox)
        return replace(info, bbox=region_bb or info.bbox, restricted=True)

    def _region_bbox(self, region: Region, node: q.QueryNode) -> BoundingBox | None:
        try:
            return region.bounding_box
        except GeoStreamsError:
            return None

    def _visit_temporalrestrict(self, node: q.TemporalRestrict) -> _Info:
        info = self.visit(node.child)
        timeset = node.timeset
        if timeset.definitely_empty or _half_open_empty(timeset):
            self.error(
                "GS-SAT003",
                "temporal restriction window is empty — the query can never "
                "deliver a frame",
                node,
            )
            return info
        lo, hi = timeset.bounds()
        if node.on_sector:
            if hi < 0:
                self.error(
                    "GS-SAT004",
                    f"scan-sector window [{lo:g}, {hi:g}] lies entirely before "
                    "sector 0 — the query can never deliver a frame",
                    node,
                )
                return info
            new_lo, new_hi = max(info.s_lo, lo), min(info.s_hi, hi)
            if new_lo > new_hi:
                self.error(
                    "GS-SAT003",
                    "stacked scan-sector windows are disjoint — the query can "
                    "never deliver a frame",
                    node,
                )
            return replace(info, s_lo=new_lo, s_hi=new_hi)
        if isinstance(timeset, TimeInterval) or not _is_recurring(timeset):
            new_lo, new_hi = max(info.t_lo, lo), min(info.t_hi, hi)
            if new_lo > new_hi:
                self.error(
                    "GS-SAT003",
                    "stacked time windows are disjoint — the query can never "
                    "deliver a frame",
                    node,
                )
            return replace(info, t_lo=new_lo, t_hi=new_hi)
        return info

    def _visit_valuerestrict(self, node: q.ValueRestrict) -> _Info:
        info = self.visit(node.child)
        lo, hi = node.lo, node.hi
        if lo is not None and hi is not None and lo > hi:
            self.error(
                "GS-VAL002",
                f"value restriction [{lo:g}, {hi:g}] is empty (lo > hi)",
                node,
            )
            return info
        if info.lo is not None and hi is not None and hi < info.lo:
            self.error(
                "GS-VAL003",
                f"value restriction [.., {hi:g}] lies entirely below the stream's "
                f"value domain [{info.lo:g}, {_fmt(info.hi)}] — no value can match",
                node,
            )
            return info
        if info.hi is not None and lo is not None and lo > info.hi:
            self.error(
                "GS-VAL003",
                f"value restriction [{lo:g}, ..] lies entirely above the stream's "
                f"value domain [{_fmt(info.lo)}, {info.hi:g}] — no value can match",
                node,
            )
            return info
        if (
            info.lo is not None
            and info.hi is not None
            and (lo is None or lo <= info.lo)
            and (hi is None or hi >= info.hi)
        ):
            self.warn(
                "GS-VAL005",
                f"value restriction subsumes the stream's whole value domain "
                f"[{info.lo:g}, {info.hi:g}] — it never filters anything",
                node,
            )
        new_lo = info.lo if lo is None else (lo if info.lo is None else max(lo, info.lo))
        new_hi = info.hi if hi is None else (hi if info.hi is None else min(hi, info.hi))
        return replace(info, lo=new_lo, hi=new_hi)

    def _visit_valuemap(self, node: q.ValueMap) -> _Info:
        info = self.visit(node.child)
        if node.kind not in VALUE_MAP_DEFAULTS:
            self.error(
                "GS-VAL001",
                f"unknown value-map kind {node.kind!r}; known kinds: "
                f"{', '.join(sorted(VALUE_MAP_DEFAULTS))}",
                node,
            )
            return replace(info, lo=None, hi=None)
        lo, hi = _value_map_bounds(node, info.lo, info.hi)
        return replace(info, lo=lo, hi=hi)

    def _visit_stretch(self, node: q.Stretch) -> _Info:
        info = self.visit(node.child)
        if node.kind not in _STRETCH_KINDS:
            self.error(
                "GS-VAL001",
                f"unknown stretch kind {node.kind!r}; known kinds: "
                f"{', '.join(sorted(_STRETCH_KINDS))}",
                node,
            )
            return replace(info, lo=None, hi=None)
        return replace(info, lo=_STRETCH_RANGE[0], hi=_STRETCH_RANGE[1])

    def _visit_magnify(self, node: q.Magnify) -> _Info:
        info = self.visit(node.child)
        if node.k < 1:
            self.error(
                "GS-OP001", f"magnify factor must be >= 1, got {node.k}", node
            )
        return info

    def _visit_coarsen(self, node: q.Coarsen) -> _Info:
        info = self.visit(node.child)
        if node.k < 1:
            self.error(
                "GS-OP001", f"coarsen factor must be >= 1, got {node.k}", node
            )
        return info

    def _visit_rotate(self, node: q.Rotate) -> _Info:
        return self.visit(node.child)

    def _visit_reproject(self, node: q.Reproject) -> _Info:
        info = self.visit(node.child)
        if node.method not in _RESAMPLE_METHODS:
            self.error(
                "GS-VAL001",
                f"unknown resampling method {node.method!r}; known methods: "
                f"{', '.join(sorted(_RESAMPLE_METHODS))}",
                node,
            )
        if info.crs is not None and node.dst_crs == info.crs:
            self.warn(
                "GS-CRS003",
                f"reprojection to {node.dst_crs.name} is a no-op: the stream is "
                "already in that CRS",
                node,
            )
        bbox = info.bbox
        if bbox is not None and bbox.crs != node.dst_crs:
            try:
                bbox = bbox.transformed(node.dst_crs)
            except GeoStreamsError:
                bbox = None
        return replace(info, crs=node.dst_crs, bbox=bbox)

    def _visit_compose(self, node: q.Compose) -> _Info:
        left = self.visit(node.left)
        right = self.visit(node.right)
        if node.gamma not in _GAMMAS:
            self.error(
                "GS-VAL001",
                f"unknown composition kernel {node.gamma!r}; known kernels: "
                f"{', '.join(sorted(_GAMMAS))}",
                node,
            )
        if left.crs is not None and right.crs is not None and left.crs != right.crs:
            self.error(
                "GS-CRS001",
                f"composition mixes CRS {left.crs.name} (left) and "
                f"{right.crs.name} (right); frames cannot be matched pointwise",
                node,
            )
        if (
            left.channels is not None
            and right.channels is not None
            and left.channels != right.channels
        ):
            self.error(
                "GS-VAL004",
                f"band-arity mismatch: left has {left.channels} channel(s), "
                f"right has {right.channels}",
                node,
            )
        if (
            node.gamma == "/"
            and right.lo is not None
            and right.hi is not None
            and right.lo <= 0.0 <= right.hi
        ):
            self.warn(
                "GS-VAL006",
                f"divisor's value domain [{right.lo:g}, {right.hi:g}] includes "
                "zero; the quotient can be non-finite",
                node,
            )
        lo, hi = _compose_bounds(node.gamma, left, right)
        bbox = left.bbox
        if bbox is not None and right.bbox is not None and bbox.crs == right.bbox.crs:
            bbox = bbox.union(right.bbox)
        return _Info(
            crs=left.crs or right.crs,
            bbox=bbox,
            restricted=left.restricted or right.restricted,
            lo=lo,
            hi=hi,
            channels=left.channels or right.channels,
            t_lo=min(left.t_lo, right.t_lo),
            t_hi=max(left.t_hi, right.t_hi),
            s_lo=min(left.s_lo, right.s_lo),
            s_hi=max(left.s_hi, right.s_hi),
        )

    def _visit_temporalagg(self, node: q.TemporalAgg) -> _Info:
        info = self.visit(node.child)
        if node.func not in _AGG_FUNCS:
            self.error(
                "GS-VAL001",
                f"unknown aggregate function {node.func!r}; known functions: "
                f"{', '.join(sorted(_AGG_FUNCS))}",
                node,
            )
        if node.mode not in _AGG_MODES:
            self.error(
                "GS-VAL001",
                f"unknown aggregate mode {node.mode!r}; known modes: "
                f"{', '.join(sorted(_AGG_MODES))}",
                node,
            )
        if node.window < 1:
            self.error(
                "GS-OP001",
                f"aggregate window must be >= 1 frame, got {node.window}",
                node,
            )
            return info
        return replace(info, lo=_agg_lo(node, info), hi=_agg_hi(node, info))

    def _visit_regionagg(self, node: q.RegionAgg) -> _Info:
        info = self.visit(node.child)
        if node.func not in _AGG_FUNCS:
            self.error(
                "GS-VAL001",
                f"unknown aggregate function {node.func!r}; known functions: "
                f"{', '.join(sorted(_AGG_FUNCS))}",
                node,
            )
        target_crs = info.crs or (info.bbox.crs if info.bbox is not None else None)
        for name, region in node.regions:
            bb = self._region_bbox(region, node)
            if bb is None or target_crs is None or bb.crs == target_crs:
                continue
            try:
                bb.transformed(target_crs)
            except GeoStreamsError as exc:
                self.error(
                    "GS-CRS002",
                    f"aggregate region {name!r} (crs {bb.crs.name}) cannot be "
                    f"mapped into the stream CRS {target_crs.name}: {exc}",
                    node,
                )
        return replace(info, lo=None, hi=None)


# -- bound arithmetic (None = unknown/unbounded, propagated conservatively) -------


def _fmt(value: float | None) -> str:
    return "?" if value is None else f"{value:g}"


def _fmt_bbox(bbox: BoundingBox) -> str:
    return (
        f"[{bbox.xmin:g}, {bbox.ymin:g}, {bbox.xmax:g}, {bbox.ymax:g}] "
        f"({bbox.crs.name})"
    )


def _half_open_empty(timeset: TimeSet) -> bool:
    return (
        isinstance(timeset, TimeInterval)
        and timeset.start == timeset.end
        and not (timeset.closed_start and timeset.closed_end)
    )


def _is_recurring(timeset: TimeSet) -> bool:
    lo, hi = timeset.bounds()
    return math.isinf(lo) and math.isinf(hi)


def _value_map_bounds(
    node: q.ValueMap, lo: float | None, hi: float | None
) -> tuple[float | None, float | None]:
    kind = node.kind
    if kind == "reflectance":
        return 0.0, 1.0
    if kind == "rescale":
        gain = float(node.param("gain", 1.0))
        offset = float(node.param("offset", 0.0))
        a = None if lo is None else lo * gain + offset
        b = None if hi is None else hi * gain + offset
        return (b, a) if gain < 0 else (a, b)
    if kind == "negate":
        return (None if hi is None else -hi), (None if lo is None else -lo)
    if kind == "absolute":
        if lo is None or hi is None:
            return 0.0, None
        return 0.0, max(abs(lo), abs(hi))
    if kind == "gamma":
        exponent = float(node.param("exponent", 1.0))
        if lo is not None and hi is not None and lo >= 0.0 and exponent > 0:
            return lo**exponent, hi**exponent
        return None, None
    return None, None


def _compose_bounds(
    gamma: str, left: _Info, right: _Info
) -> tuple[float | None, float | None]:
    if gamma == "ndvi":
        return -1.0, 1.0
    if gamma == "evi2":
        return -2.5, 2.5
    ll, lh, rl, rh = left.lo, left.hi, right.lo, right.hi
    if gamma == "+":
        lo = None if ll is None or rl is None else ll + rl
        hi = None if lh is None or rh is None else lh + rh
        return lo, hi
    if gamma == "-":
        lo = None if ll is None or rh is None else ll - rh
        hi = None if lh is None or rl is None else lh - rl
        return lo, hi
    if gamma == "*":
        if None in (ll, lh, rl, rh):
            return None, None
        assert ll is not None and lh is not None and rl is not None and rh is not None
        prods = (ll * rl, ll * rh, lh * rl, lh * rh)
        return min(prods), max(prods)
    if gamma == "sup":
        lo = max((v for v in (ll, rl) if v is not None), default=None)
        hi = None if lh is None or rh is None else max(lh, rh)
        return lo, hi
    if gamma == "inf":
        lo = None if ll is None or rl is None else min(ll, rl)
        hi = min((v for v in (lh, rh) if v is not None), default=None)
        return lo, hi
    if gamma == "mosaic":
        lo = None if ll is None or rl is None else min(ll, rl)
        hi = None if lh is None or rh is None else max(lh, rh)
        return lo, hi
    return None, None  # "/" and unknown kernels: unbounded


def _agg_lo(node: q.TemporalAgg, info: _Info) -> float | None:
    if node.func == "count":
        return 0.0
    if node.func == "sum":
        return None if info.lo is None else min(0.0, node.window * info.lo)
    return info.lo


def _agg_hi(node: q.TemporalAgg, info: _Info) -> float | None:
    if node.func == "count":
        return float(node.window)
    if node.func == "sum":
        return None if info.hi is None else max(0.0, node.window * info.hi)
    return info.hi


# -- canonical-plan cross-checks --------------------------------------------------


def _check_canonical(
    tree: q.QueryNode,
    ctx: StaticContext,
    already: set[str],
) -> list[Diagnostic]:
    """Re-derive satisfiability over the *folded* canonical plan.

    Canonicalization merges adjacent restrictions, so emptiness that the
    AST walk can only see by accumulation shows up here as a single
    self-evidently-empty node. Also verifies the fingerprint invariants
    the sharing layer depends on (structurally distinct nodes must not
    collide).
    """
    diags: list[Diagnostic] = []

    def emit(code: str, message: str, node: q.QueryNode) -> None:
        if code in already:
            return  # the AST walk already reported this condition with a span
        diags.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                node=node.describe(),
            )
        )

    try:
        plan = canonicalize(tree, crs_of=ctx.crs_of)
    except GeoStreamsError:
        # CRS resolution failures surface through the AST walk (GS-CRS002).
        return diags

    by_fingerprint: dict[str, q.QueryNode] = {}
    for node in q.walk(plan):
        fp = node.fingerprint
        other = by_fingerprint.get(fp)
        if other is not None and other != node:
            emit(
                "GS-DAG001",
                f"fingerprint collision: {node.describe()} and {other.describe()} "
                f"both hash to {fp}",
                node,
            )
        by_fingerprint[fp] = node
        if isinstance(node, q.SpatialRestrict) and getattr(
            node.region, "is_empty_hint", False
        ):
            emit(
                "GS-SAT001",
                "folded spatial restrictions have an empty intersection — the "
                "query can never deliver a frame",
                node,
            )
        if isinstance(node, q.TemporalRestrict):
            if node.timeset.definitely_empty or _half_open_empty(node.timeset):
                emit(
                    "GS-SAT003",
                    "folded temporal restrictions are provably empty — the query "
                    "can never deliver a frame",
                    node,
                )
            elif node.on_sector and node.timeset.bounds()[1] < 0:
                emit(
                    "GS-SAT004",
                    "folded scan-sector window lies entirely before sector 0",
                    node,
                )
        if isinstance(node, q.ValueRestrict):
            if node.lo is not None and node.hi is not None and node.lo > node.hi:
                emit(
                    "GS-VAL002",
                    f"folded value restriction [{node.lo:g}, {node.hi:g}] is empty",
                    node,
                )
    return diags


# -- SLO-budget check -------------------------------------------------------------


def _check_slo(
    tree: q.QueryNode,
    ctx: StaticContext,
    slo: "SLOPolicy | float",
    calibration: CalibrationProfile | None,
    has_ingest_shedder: bool | None,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    budget = float(getattr(slo, "max_lag_s", slo))  # type: ignore[arg-type]
    escalates = bool(getattr(slo, "escalate_shedding", False))
    if escalates and has_ingest_shedder is False:
        diags.append(
            Diagnostic(
                code="GS-SLO002",
                severity=Severity.WARNING,
                message=(
                    "SLO policy escalates shedding on breach, but the server has "
                    "no ingest shedder to escalate"
                ),
            )
        )
    if ctx.profiles is None:
        return diags
    from ..query.cost import estimate_query

    profile = calibration if calibration is not None else CalibrationProfile.uncalibrated()
    try:
        estimate, _ = estimate_query(tree, ctx.profiles, calibration=profile)
    except GeoStreamsError:
        return diags  # unknown streams etc. are reported elsewhere
    seconds = estimate.seconds
    if seconds is not None and seconds > budget:
        calib = "calibrated" if calibration is not None else "seed-priced"
        diags.append(
            Diagnostic(
                code="GS-SLO001",
                severity=Severity.WARNING,
                message=(
                    f"{calib} per-frame cost estimate {seconds:.3f}s exceeds the "
                    f"SLO lag budget {budget:g}s — breaches are likely by "
                    "construction"
                ),
            )
        )
    return diags


# -- entry point ------------------------------------------------------------------


def analyze(
    query: "str | q.QueryNode",
    catalog: "StreamCatalog | None" = None,
    *,
    context: StaticContext | None = None,
    slo: "SLOPolicy | float | None" = None,
    calibration: CalibrationProfile | None = None,
    has_ingest_shedder: bool | None = None,
) -> DiagnosticReport:
    """Statically analyze one query; returns every provable finding.

    ``query`` may be text (diagnostics then carry source spans) or an
    algebra tree. ``catalog`` (or an explicit ``context``) supplies the
    stream facts — CRS, frame extents, value domains, cost profiles —
    that unlock the deeper checks; without it only structural checks
    run. ``slo`` (an :class:`~repro.obs.slo.SLOPolicy` or a plain lag
    budget in seconds) enables the cost-versus-budget warning, priced by
    ``calibration`` when given.
    """
    ctx = context
    if ctx is None:
        ctx = StaticContext.from_catalog(catalog) if catalog is not None else StaticContext()

    text: str | None = None
    spans: dict[int, tuple[int, int]] = {}
    if isinstance(query, str):
        text = query
        try:
            tree, spans = parse_query_spanned(query)
        except GeoStreamsError as exc:
            # QuerySyntaxError proper, but also node-construction errors
            # (e.g. an inverted TimeInterval) raised while the parser
            # builds the tree: either way the text has no analyzable AST.
            diag = Diagnostic(
                code="GS-SYN001",
                severity=Severity.ERROR,
                message=str(exc),
                span=_span_from_message(query, str(exc)),
            )
            return DiagnosticReport((diag,), text)
    else:
        tree = query

    checker = _Checker(ctx, spans)
    checker.visit(tree)
    diagnostics = list(checker.diagnostics)

    already = {d.code for d in diagnostics}
    diagnostics.extend(_check_canonical(tree, ctx, already))

    if slo is not None:
        diagnostics.extend(
            _check_slo(tree, ctx, slo, calibration, has_ingest_shedder)
        )

    return DiagnosticReport(tuple(diagnostics), text)


def _span_from_message(text: str, message: str) -> SourceSpan | None:
    """Best-effort span for syntax errors that mention a position."""
    import re

    match = re.search(r"position (\d+)", message)
    if match is None:
        return None
    start = int(match.group(1))
    if start >= len(text):
        return None
    return SourceSpan(start, min(len(text), start + 1))
