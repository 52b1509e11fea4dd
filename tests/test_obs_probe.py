"""One stage probe, two executors: the ledger differential.

Pull ``plan_query`` and the push ``DSMSServer`` account each operator
step through the same :class:`~repro.obs.probe.StageProbe`, so for the
same query every observability mode must report the same per-stage
counters on both executors, deliver exactly what an unobserved run
delivers, and key its frame-trace hops by the plan's stage fingerprints.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro import obs
from repro.engine import iter_pipeline_operators
from repro.obs.trace import trace_source
from repro.operators import CountsToReflectance
from repro.query import parse_query, plan_query
from repro.server import DSMSServer

QUERIES = {
    "unary": "stretch(reflectance(goes.vis), 'linear')",
    "composition": "stretch(ndvi(goes.nir, goes.vis), 'linear')",
}

MODES = {
    "stats": {},
    "stats+trace": {"trace": True},
    "stats+frame_trace": {"frame_trace": True},
    "all": {"trace": True, "frame_trace": True},
}

COUNTERS = ("calls", "chunks_in", "chunks_out", "points_in", "points_out", "bytes_in", "bytes_out")


def _ledgers(collector):
    return {s.fingerprint: tuple(getattr(s, f) for f in COUNTERS) for s in collector}


def _digest(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def run_pull(catalog, query, mode=None):
    """Returns (ledgers, delivered digest, hop keys, plan stage fingerprints).

    ``mode`` None runs unobserved (no ledgers, no hops).
    """
    sources = {sid: trace_source(catalog.get(sid)) for sid in catalog.ids()}
    ledgers = hops = None
    with obs.observe(**mode) if mode is not None else nullcontext() as ob:
        stream = plan_query(parse_query(query), sources)
        chunks = stream.collect_chunks()
        if ob is not None:
            ledgers = _ledgers(ob.stats)
            if ob.frame_tracer is not None:
                trace = ob.frame_tracer.finalize_frame("pull", [chunks[-1].trace])
                hops = trace.stage_fingerprints()
    fps = {op.plan_fingerprint for op in iter_pipeline_operators(stream)}
    return ledgers, _digest(c.values for c in chunks), hops, fps


def run_push(catalog, query, mode=None):
    ledgers = hops = None
    with obs.observe(**mode) if mode is not None else nullcontext() as ob:
        server = DSMSServer(catalog)
        session = server.register(query, encode_png=False)
        server.run()
    if ob is not None:
        ledgers = _ledgers(ob.stats)
        if ob.frame_tracer is not None:
            hops = session.frame_traces()[-1].stage_fingerprints()
    rid = server._session_to_reg[session.session_id]
    fps = server.plan_dag.stage_fingerprints(rid)
    return ledgers, _digest(f.image.values for f in session.frames), hops, fps


@pytest.mark.parametrize("query", list(QUERIES.values()), ids=list(QUERIES))
def test_every_mode_and_executor_reports_the_same_work(catalog, query):
    _, pull_plain, _, _ = run_pull(catalog, query)
    _, push_plain, _, _ = run_push(catalog, query)
    assert pull_plain and push_plain
    reference = None
    for name, extra in MODES.items():
        mode = {"stats": True, **extra}
        for runner, plain in ((run_pull, pull_plain), (run_push, push_plain)):
            ledgers, delivered, hops, fps = runner(catalog, query, mode)
            cell = f"{runner.__name__}/{name}"
            assert set(ledgers) == fps, cell
            if reference is None:
                reference = ledgers
            assert ledgers == reference, cell
            assert delivered == plain, cell
            if mode.get("frame_trace"):
                assert hops == fps, cell


def test_pull_keys_unstamped_operators_by_name(catalog):
    # Hand-piped operators carry no plan stamp; their ledger is keyed by name.
    stream = catalog.get("goes.vis").pipe(CountsToReflectance())
    with obs.observe(stats=True) as ob:
        chunks = stream.collect_chunks()
    (ledger,) = ob.stats
    assert ledger.fingerprint == "pull:value-transform"
    assert ledger.chunks_in == len(chunks) and ledger.calls == len(chunks) + 1
