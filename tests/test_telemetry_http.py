"""The telemetry HTTP endpoint and the ``repro top`` renderer.

One DSMS run under full observability backs a module-scoped
:class:`TelemetryServer`; every test then talks to it over real HTTP
(loopback, ephemeral port) so routing, headers, and JSON serialization
are all exercised end to end. The payload schemas asserted here are the
wire contract `repro top --url` depends on — treat key changes as
breaking.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs import MetricStore
from repro.server import DSMSServer, StreamCatalog
from repro.server.telemetry import (
    events_payload,
    fetch_json,
    render_top,
    sparkline,
    timeseries_payload,
    trace_payload,
)

DAY_T0 = 72_000.0


def make_catalog() -> StreamCatalog:
    crs = goes_geostationary(-135.0)
    imager = GOESImager(
        scene=SyntheticEarth(seed=5),
        sector_lattice=western_us_sector(crs, width=16, height=8),
        n_frames=3,
        t0=DAY_T0,
    )
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    return catalog


@pytest.fixture(scope="module")
def served():
    """One observed DSMS run served over HTTP for the whole module."""
    with obs.observe(
        store=MetricStore(cadence_s=30.0), journal=True, frame_trace=True
    ) as ob:
        server = DSMSServer(make_catalog())
        server.register("reflectance(goes.vis)", encode_png=False)
        with server.serve_telemetry() as telemetry:
            server.run()
            yield telemetry, ob


@pytest.fixture()
def endpoint(served):
    """The module's endpoint, with its run's observation installed for
    the test (the autouse fixture in conftest.py installs an empty one)."""
    telemetry, ob = served
    prev = obs.install(ob)
    yield telemetry
    obs.install(prev)


def get_raw(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, dict(response.headers), response.read()


class TestEndpoints:
    def test_index_lists_endpoints(self, endpoint):
        doc = fetch_json(endpoint.url + "/")
        assert doc["service"] == "repro.telemetry"
        assert "/health" in doc["endpoints"]
        assert "/metrics" in doc["endpoints"]

    def test_metrics_is_prometheus_text_with_build_info(self, endpoint):
        status, headers, body = get_raw(endpoint.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert "# HELP repro_build_info" in text
        assert "# TYPE repro_build_info gauge" in text
        assert 'repro_build_info{' in text
        assert "dsms_chunks_scanned_total" in text

    def test_health_round_trip(self, endpoint):
        doc = fetch_json(endpoint.url + "/health")
        assert set(doc) == {
            "verdict",
            "reasons",
            "queries",
            "at",
            "dead_letters",
            "shed_pressure",
            "recent_swaps",
        }
        assert doc["verdict"] in ("healthy", "degraded", "unhealthy")
        [query] = doc["queries"]
        assert set(query) == {
            "query",
            "verdict",
            "reasons",
            "lag_s",
            "watermark",
            "epoch",
            "breaches",
        }
        assert query["query"] == 1
        assert doc["at"] >= DAY_T0

    def test_timeseries_round_trip(self, endpoint):
        doc = fetch_json(endpoint.url + "/timeseries?window=5")
        assert doc["samples_taken"] > 0
        assert doc["series"], "the observed run must have sampled series"
        for series in doc["series"]:
            assert set(series) == {"name", "labels", "kind", "points", "rollup"}
            for point in series["points"]:
                t, v = point
                assert t >= DAY_T0
            if series["rollup"] is not None:
                assert series["rollup"]["window"] <= 5
        names = {s["name"] for s in doc["series"]}
        assert "dsms_chunks_scanned_total" in names

    def test_timeseries_name_filter(self, endpoint):
        doc = fetch_json(endpoint.url + "/timeseries?name=dsms_chunks_scanned_total")
        assert doc["series"]
        assert {s["name"] for s in doc["series"]} == {"dsms_chunks_scanned_total"}

    def test_events_round_trip_and_filters(self, endpoint):
        doc = fetch_json(endpoint.url + "/events")
        assert set(doc) == {"capacity", "total", "events"}
        assert doc["total"] >= len(doc["events"]) > 0
        for event in doc["events"]:
            assert set(event) == {"seq", "t", "kind", "query", "epoch", "reason", "link"}
        seqs = [e["seq"] for e in doc["events"]]
        assert seqs == sorted(seqs)
        # kind filter + limit narrow the same stream.
        installs = fetch_json(endpoint.url + "/events?kind=epoch-install")
        assert {e["kind"] for e in installs["events"]} == {"epoch-install"}
        limited = fetch_json(endpoint.url + "/events?limit=1")
        assert len(limited["events"]) == 1
        assert limited["events"][0]["seq"] == seqs[-1]
        since = fetch_json(endpoint.url + f"/events?since={seqs[0]}")
        assert [e["seq"] for e in since["events"]] == seqs[1:]

    def test_trace_lookup_and_404(self, endpoint):
        recorder = obs.current().frame_tracer.recorder
        traces = [t for q in recorder.queries() for t in recorder.recent(q)]
        traces.extend(recorder.pinned)
        assert traces, "frame tracing was on; the run must have recorded"
        doc = fetch_json(endpoint.url + f"/traces/{traces[0].trace_id}")
        assert doc["trace_id"] == traces[0].trace_id or traces[0].trace_id in doc["trace_ids"]
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch_json(endpoint.url + "/traces/999999")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch_json(endpoint.url + "/traces/not-a-number")
        assert err.value.code == 400

    def test_unknown_endpoint_404s_as_json(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch_json(endpoint.url + "/nope")
        assert err.value.code == 404
        body = json.loads(err.value.read().decode("utf-8"))
        assert "unknown endpoint" in body["error"]

    def test_render_top_against_live_payloads(self, endpoint):
        health = fetch_json(endpoint.url + "/health")
        timeseries = fetch_json(endpoint.url + "/timeseries?window=10")
        events = fetch_json(endpoint.url + "/events?limit=5")["events"]
        text = render_top(health, timeseries, events, color=False, source=endpoint.url)
        assert "repro top" in text
        assert endpoint.url in text
        assert "q1" in text
        assert "recent events" in text
        assert "\x1b[" not in text  # --no-color means no ANSI at all
        colored = render_top(health, timeseries, events, color=True)
        assert "\x1b[" in colored


class TestPayloadBuilders:
    def test_none_store_and_journal_keep_schema(self):
        empty = timeseries_payload(None)
        assert empty == {
            "capacity": 0,
            "cadence_s": 0.0,
            "samples_taken": 0,
            "last_t": None,
            "series": [],
        }
        assert events_payload(None) == {"capacity": 0, "total": 0, "events": []}
        assert trace_payload(None, 1) is None


class TestSparkline:
    def test_fixed_width_and_monotone_glyphs(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=8)
        assert len(line) == 8
        assert line.startswith(" " * 4)
        glyphs = line.strip()
        assert glyphs[0] == "▁" and glyphs[-1] == "█"
        assert [ord(g) for g in glyphs] == sorted(ord(g) for g in glyphs)

    def test_flat_series_and_empty(self):
        assert sparkline([], width=6) == " " * 6
        flat = sparkline([5.0, 5.0, 5.0], width=3)
        assert flat == "▁▁▁"

    def test_window_clips_to_width(self):
        line = sparkline([float(i) for i in range(100)], width=10)
        assert len(line) == 10
        assert line[-1] == "█"
