"""The one operator table: query-tree node -> fresh physical operator.

Both lowerings (pull ``plan_to_stream`` and the push ``PlanDAG``) build
their operators here, so the query layer itself never imports an
operator.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..core.valueset import NDVI_VALUES, ValueSet
from ..errors import PlanError
from ..operators.aggregate import RegionAggregate, TemporalAggregate
from ..operators.base import BinaryOperator, Operator
from ..operators.composition import StreamComposition, normalized_difference
from ..operators.reprojection import Reproject
from ..operators.restriction import (
    SpatialRestriction,
    TemporalRestriction,
    ValueRestriction,
)
from ..operators.spatial_transform import Coarsen, Magnify, Rotate
from ..operators.value_transform import (
    CountsToReflectance,
    FrameStretch,
    PointwiseTransform,
    Rescale,
)
from ..query import ast as q

__all__ = ["make_operator", "build_value_map", "build_composition", "VALUE_MAP_DEFAULTS"]

# Canonical parameter lists (name, default) per value-map kind. The
# canonicalizer materializes every parameter in this order so that
# e.g. reflectance() and reflectance(bits=10) hash identically.
VALUE_MAP_DEFAULTS: dict[str, tuple[tuple[str, float], ...]] = {
    "rescale": (("gain", 1.0), ("offset", 0.0)),
    "reflectance": (("bits", 10.0),),
    "gamma": (("exponent", 1.0),),
    "negate": (),
    "absolute": (),
}


def build_value_map(
    kind: str,
    params: Mapping[str, float] | Iterable[tuple[str, float]] = (),
) -> Operator:
    """Instantiate the operator for a named pointwise value transform."""
    table = dict(params)
    if kind == "rescale":
        return Rescale(table.get("gain", 1.0), table.get("offset", 0.0))
    if kind == "reflectance":
        return CountsToReflectance(bits=int(table.get("bits", 10.0)))
    if kind == "gamma":
        exponent = table.get("exponent", 1.0)
        return PointwiseTransform(
            lambda v: np.power(np.clip(v.astype(np.float64), 0.0, None), exponent),
            label=f"gamma({exponent:g})",
        )
    if kind == "negate":
        return PointwiseTransform(lambda v: -v.astype(np.float64), label="negate")
    if kind == "absolute":
        return PointwiseTransform(lambda v: np.abs(v.astype(np.float64)), label="abs")
    raise PlanError(f"unknown value transform kind {kind!r}")


def build_composition(gamma: str, timestamp_policy: str = "sector") -> StreamComposition:
    """Instantiate the binary composition operator for one γ kernel.

    The macro kernels ``ndvi``/``evi2`` expand to their band-math
    definitions with dedicated output value sets.
    """
    if gamma == "ndvi":
        return StreamComposition(
            normalized_difference,
            timestamp_policy=timestamp_policy,
            band="ndvi",
            output_value_set=NDVI_VALUES,
        )
    if gamma == "evi2":

        def kernel(n: np.ndarray, r: np.ndarray) -> np.ndarray:
            denom = n + 2.4 * r + 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                out = 2.5 * (n - r) / denom
            return np.where(np.isfinite(out), out, np.nan)

        return StreamComposition(
            kernel,
            timestamp_policy=timestamp_policy,
            band="evi2",
            output_value_set=ValueSet("evi2", np.float32, lo=-2.5, hi=2.5),
        )
    return StreamComposition(gamma, timestamp_policy=timestamp_policy)


def make_operator(node: q.QueryNode) -> Operator | BinaryOperator:
    """Fresh physical operator for one node of a canonical tree.

    Leaves (stream references, provably-empty streams) have none.
    """
    if isinstance(node, q.SpatialRestrict):
        return SpatialRestriction(node.region)
    if isinstance(node, q.TemporalRestrict):
        return TemporalRestriction(node.timeset, on_sector=node.on_sector)
    if isinstance(node, q.ValueRestrict):
        return ValueRestriction(lo=node.lo, hi=node.hi)
    if isinstance(node, q.ValueMap):
        return build_value_map(node.kind, node.params)
    if isinstance(node, q.Stretch):
        return FrameStretch(node.kind)
    if isinstance(node, q.Magnify):
        return Magnify(node.k)
    if isinstance(node, q.Coarsen):
        return Coarsen(node.k)
    if isinstance(node, q.Rotate):
        return Rotate(node.angle_deg)
    if isinstance(node, q.Reproject):
        return Reproject(node.dst_crs, method=node.method)
    if isinstance(node, q.Compose):
        return build_composition(node.gamma, node.timestamp_policy or "sector")
    if isinstance(node, q.TemporalAgg):
        return TemporalAggregate(node.window, node.func, node.mode)
    if isinstance(node, q.RegionAgg):
        return RegionAggregate(dict(node.regions), node.func)
    raise PlanError(f"{type(node).__name__} has no physical operator")
