"""Physical planning: lower a query tree onto operator pipelines.

The planner is a thin lowering over ``repro.plan``: the query tree is
canonicalized — commutative compositions ordered, adjacent restrictions
folded, regions resolved into their input CRS — and the canonical tree
is turned into a lazy GeoStream with fresh operator instances per call
(fresh so that concurrently registered queries never share mutable
state). The DSMS push executor lowers the same canonical tree, so
operator construction lives in exactly one place.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.stream import GeoStream
from ..errors import PlanError
from . import ast as q

__all__ = ["plan_query"]


def plan_query(
    node: q.QueryNode,
    catalog: Mapping[str, GeoStream] | Callable[[str], GeoStream],
    columnar: bool | None = None,
) -> GeoStream:
    """Build the executable GeoStream for a query tree.

    ``catalog`` resolves stream ids to source GeoStreams (a mapping or a
    resolver function). Fresh operator instances are created per call.
    ``columnar`` selects the operators' execution mode (None: the
    ``REPRO_COLUMNAR`` process default).
    """
    # Imported lazily: repro.plan itself imports the query package.
    from ..plan import canonicalize, plan_to_stream

    def resolve(stream_id: str) -> GeoStream:
        if callable(catalog):
            return catalog(stream_id)
        try:
            return catalog[stream_id]
        except KeyError:
            raise PlanError(f"unknown stream {stream_id!r}") from None

    # Resolve every referenced source up front: their CRSs and timestamp
    # policies feed canonicalization (and unknown streams fail early).
    sources = {sid: resolve(sid) for sid in q.source_ids(node)}
    plan = canonicalize(
        node,
        crs_of={sid: s.crs for sid, s in sources.items()},
        policy_of={sid: s.metadata.timestamp_policy for sid, s in sources.items()},
    )
    return plan_to_stream(plan, sources.__getitem__, columnar=columnar)
