"""Canonicalization: the normal form of a query tree.

Canonicalization is the final pass of the one rewriter. It returns nodes
of the same classes the parser and optimizer use, in a normal form where
structurally different but equivalent trees are *equal* (hence have
equal fingerprints), which is what subplan sharing keys on:

* commutative compositions (γ in ``+ * sup inf``) order their children
  deterministically by fingerprint;
* adjacent restrictions of the same kind fold into one (the optimizer's
  own ``merge-spatial``/``merge-temporal`` rules, plus value ranges by
  interval intersection);
* spatial-restriction regions are resolved into the child's CRS when the
  source CRSs are known (the planner's safety net, applied once at plan
  time instead of per lowering);
* value-map parameters are materialized against their declared defaults
  so ``reflectance()`` and ``reflectance(bits=10)`` hash identically;
* each composition's timestamp-matching policy is resolved to its
  leftmost input source's policy and recorded in the node.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from ..geo.crs import CRS
from ..query import ast as q
from ..query.optimizer import fold_spatial, fold_temporal, infer_crs
from .ops import VALUE_MAP_DEFAULTS

__all__ = ["canonicalize"]


def _leaf_policy(node: q.QueryNode, policy_of: Mapping[str, str]) -> str:
    """Timestamp policy of the leftmost source below ``node``.

    Operators preserve the policy, so a composed stream's policy is its
    leftmost source's (the rule of ``repro.operators.macros`` too).
    """
    cur = node
    while not isinstance(cur, q.StreamRef):
        if not cur.children:
            return "sector"
        cur = cur.children[0]
    return policy_of.get(cur.stream_id, "sector")


def canonicalize(
    node: q.QueryNode,
    *,
    crs_of: Mapping[str, CRS] | None = None,
    policy_of: Mapping[str, str] | None = None,
) -> q.QueryNode:
    """Normal form of a (typically optimized) query tree.

    ``crs_of`` and ``policy_of`` map source stream ids to their CRS and
    timestamp policy; a stream missing from ``policy_of`` counts as
    ``"sector"``. Canonicalizing a canonical tree returns an equal tree.
    """
    crs_map = crs_of or {}
    policy_map = policy_of or {}

    def visit(n: q.QueryNode) -> q.QueryNode:
        # Unchanged subtrees come back as the same objects, so their
        # cached fingerprints carry over.
        if isinstance(n, q.Compose):
            # Policy from the input subtree as written, *before* any
            # commutative reordering below or at this node.
            policy = n.timestamp_policy or _leaf_policy(n.left, policy_map)
            left, right = visit(n.left), visit(n.right)
            if n.gamma in q.COMMUTATIVE_GAMMAS and right.fingerprint < left.fingerprint:
                left, right = right, left
            if left is n.left and right is n.right and policy == n.timestamp_policy:
                return n
            return replace(n, left=left, right=right, timestamp_policy=policy)
        children = n.children
        if not children:
            return n
        child = visit(children[0])
        cur = n if child is children[0] else n.with_children(child)
        if isinstance(cur, q.SpatialRestrict):
            child_crs = infer_crs(child, crs_map)
            if child_crs is not None and cur.region.crs != child_crs:
                # Safety net: the optimizer normally maps regions across
                # CRSs; do it here too so unoptimized queries still run.
                cur = replace(cur, region=cur.region.transformed(child_crs))
            return fold_spatial(cur) or cur
        if isinstance(cur, q.TemporalRestrict):
            return fold_temporal(cur) or cur
        if isinstance(cur, q.ValueRestrict) and isinstance(child, q.ValueRestrict):
            lo, hi = cur.lo, cur.hi
            lo = child.lo if lo is None else (lo if child.lo is None else max(lo, child.lo))
            hi = child.hi if hi is None else (hi if child.hi is None else min(hi, child.hi))
            return q.ValueRestrict(child.child, lo, hi)
        if isinstance(cur, q.ValueMap):
            defaults = VALUE_MAP_DEFAULTS.get(cur.kind)
            if defaults is None:
                params = tuple(sorted(cur.params))
            else:
                params = tuple(
                    (name, float(cur.param(name, default))) for name, default in defaults
                )
            # Compared by repr, as fingerprints are: 10 == 10.0, but the
            # canonical parameter is the float.
            if repr(params) != repr(cur.params):
                cur = replace(cur, params=params)
        return cur

    return visit(node)
