"""Workloads: client populations served from the recorded downlink.

The load model is a closed loop in one thread. The benchmark plays the
satellite (the recorded downlink behind the catalog) and the clients
(request lines through ``DSMSServer.handle_request``); ``DSMSServer.run``
pulls the downlink as fast as it can serve it. Each client's query text
comes from the workload seed's RNG, so the program receives only
generated request lines and record bytes.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro import obs
from repro.core.chunk import PointChunk
from repro.core.columnar import resolve_columnar
from repro.core.image import assemble_frames
from repro.errors import GeoStreamsError
from repro.obs import MetricStore
from repro.obs.slo import SLOPolicy
from repro.query.optimizer import optimize
from repro.query.parser import parse_query
from repro.server import DSMSServer, format_query_request
from repro.server.telemetry import events_payload, health_payload, timeseries_payload

from downlink import SUB_SATELLITE_LON, Cursor, Downlink
from pace import BRACKET_SAMPLES, PullClock, Speedometer
from reference import Expected, check_session, pull, reference

# -- query populations ----------------------------------------------------------


# Rectangle sides as fractions of the sector, cycling with the client
# index, and the number of position strata per axis.
REGION_SIDES = (0.16, 0.20, 0.24, 0.28)
STRATA = 48


class Placement:
    """Seeded rectangle positions.

    Each block of ``STRATA`` clients gets a seeded permutation of the
    strata on each axis, and each client a seeded jitter across its x
    stratum. Lower edges sit at stratum centres spaced about two scan rows
    apart, so no two rectangles of a block end on the same row: every seed
    then serves the same mix of frame sizes without piling an arbitrary
    number of frame completions onto one chunk, and the latency tail does
    not hinge on the seed.
    """

    def __init__(self, rng: np.random.Generator, downlink: Downlink) -> None:
        self.rng = rng
        self.box = downlink.lattice.bbox
        self._perms: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def region(self, i: int) -> str:
        block = i // STRATA
        if block not in self._perms:
            self._perms[block] = (self.rng.permutation(STRATA), self.rng.permutation(STRATA))
        px, py = self._perms[block]
        sides = REGION_SIDES
        w, h = sides[(i // 4) % len(sides)], sides[(i // 16) % len(sides)]
        x0 = (int(px[i % STRATA]) + float(self.rng.uniform())) / STRATA * (1.0 - w)
        y0 = (int(py[i % STRATA]) + 0.5) / STRATA * (1.0 - max(sides))
        box = self.box
        return (
            f"bbox({box.xmin + box.width * x0!r}, {box.ymin + box.height * y0!r}, "
            f"{box.xmin + box.width * (x0 + w)!r}, {box.ymin + box.height * (y0 + h)!r}, "
            f"crs='geos:{SUB_SATELLITE_LON:g}')"
        )


def regional_query(i: int, placement: Placement) -> str:
    """Client ``i`` of a regional mix; the kind cycles so every seed has the same mix."""
    region = placement.region(i)
    kind = i % 4
    if kind == 0:
        return f"within(reflectance(goes.vis), {region})"
    if kind == 1:
        return f"within(stretch(reflectance(goes.nir), 'linear'), {region})"
    if kind == 2:
        return (
            "within(stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)), "
            f"'linear'), {region})"
        )
    return f"ragg(reflectance(goes.vis), 'mean', 'roi{i}', {region})"


# The four products the workload is about, plus a plain linear stretch.
# The fifth client puts the latency median inside one group of similar
# frames (the bilinear, NDVI and stretch products) instead of on the edge
# between two groups, where it would jump with every small change.
FULL_SECTOR_PRODUCTS = (
    "stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)), 'linear')",
    "stretch(reflectance(goes.vis), 'linear')",
    "reproject(reflectance(goes.vis), 'utm:10', method='bilinear')",
    "reproject(equalize(reflectance(goes.nir)), 'utm:10', method='bicubic')",
    "tagg(reflectance(goes.vis), 'mean', 3)",
)


@dataclass
class Client:
    """One client: its query, format and the frames [first, end) it is live."""

    text: str
    fmt: str
    first_frame: int
    end_frame: int
    expected: Expected | None = None


@dataclass(frozen=True)
class Workload:
    """A client population, its sector and how the server is configured."""

    name: str
    width: int
    height: int
    frames: int
    clients: int
    fmt: str
    columnar: bool | None  # None: the shipped default (REPRO_COLUMNAR unset)
    observed: bool = False
    churn_per_period: int = 0  # clients replaced after each frame period
    queries: Callable[[int, Placement], str] = regional_query

    @property
    def mode(self) -> dict:
        return {
            "columnar": resolve_columnar(self.columnar),
            "columnar_explicit": self.columnar is not None,
            "observers": (
                "stats,frame_trace,store,journal,slo" if self.observed else "none"
            ),
            "format": self.fmt,
            "sector": [self.width, self.height],
            "frames": self.frames,
            "clients": self.clients,
            "churn_per_period": self.churn_per_period,
        }

    def script(self, seed: int, downlink: Downlink) -> tuple[list[Client], list[tuple[list[int], list[int]]]]:
        """Clients plus, per frame period, (leaving, joining) client indices."""
        rng = np.random.default_rng(seed)
        placement = Placement(rng, downlink)
        clients = [
            Client(self.queries(i, placement), self.fmt, 0, self.frames)
            for i in range(self.clients)
        ]
        events: list[tuple[list[int], list[int]]] = []
        if self.churn_per_period:
            live = list(range(self.clients))
            for period in range(1, self.frames):
                leaving = sorted(int(i) for i in rng.choice(live, self.churn_per_period, replace=False))
                for i in leaving:
                    clients[i].end_frame = period
                    live.remove(i)
                joining = []
                for _ in range(self.churn_per_period):
                    i = len(clients)
                    clients.append(Client(self.queries(i, placement), self.fmt, period, self.frames))
                    joining.append(i)
                    live.append(i)
                events.append((leaving, joining))
        return clients, events


def _fixed_products(i: int, placement: Placement) -> str:
    return FULL_SECTOR_PRODUCTS[i % len(FULL_SECTOR_PRODUCTS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fanout_regions", 256, 128, 6, 48, "png", None),
        Workload(
            "full_sector_products", 256, 128, 6, 5, "png", True, queries=_fixed_products
        ),
        Workload("query_churn", 64, 32, 24, 96, "raw", None, churn_per_period=24),
        Workload("fanout_observed", 256, 128, 6, 48, "png", None, observed=True),
    )
}

# Stream-time lag objective for the observed workload: one frame period.
SLO_MAX_LAG_S = 1800.0


# -- one pass of a workload -------------------------------------------------------


@dataclass
class Iteration:
    """What one server lifetime measured and whether its output was right."""

    run_s: float = 0.0  # inside run(), at reference speed
    run_raw_s: float = 0.0  # wall seconds inside run(), yardstick excluded
    records_scanned: int = 0
    points_scanned: int = 0
    latencies: list[float] = field(default_factory=list)
    register_s: list[float] = field(default_factory=list)
    deregister_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    frames: int = 0
    records: int = 0
    prune_fraction: float = 0.0
    plan_stats: dict = field(default_factory=dict)
    obs_counts: dict = field(default_factory=dict)


def _watch_latency(session, clock: PullClock, samples: list[tuple[float, float]]) -> None:
    """Record, per delivered frame, (when, time since the server's last pull).

    The wrapper shadows the session's bound ``receive`` and ``close`` (the
    fan-out calls them through the instance); it adds one length check
    per delivered chunk.
    """
    frames = session.frames
    for attr in ("receive", "close"):
        original = getattr(session, attr)

        def timed(*args, _original=original):
            n = len(frames)
            _original(*args)
            if len(frames) != n:
                now = perf_counter()
                samples.extend([(now, now - clock.last_pull)] * (len(frames) - n))

        setattr(session, attr, timed)


class Bench:
    """A workload bound to one seed: its set-up state and its iterations."""

    def __init__(self, workload: Workload, seed: int, corrupt_reference: bool = False,
                 drop_period: int | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.corrupt_reference = corrupt_reference
        self.drop_period = drop_period
        self.synthesize_s = 0.0

    # -- set-up --------------------------------------------------------------------

    def setup(self, speed: Speedometer) -> None:
        """Synthesize, compute reference digests, start a server.

        Yardstick samples are taken throughout; ``synthesize_s`` is at
        reference speed.
        """
        w = self.workload
        spent0 = speed.spent
        t0 = perf_counter()
        self.downlink = Downlink(self.seed, w.width, w.height, w.frames, speed)
        t1 = perf_counter()
        self.synthesize_s = (t1 - t0 - (speed.spent - spent0)) * speed.scale_between(t0, t1)
        self.clients, self.events = w.script(self.seed, self.downlink)
        self.decoded = self.downlink.decode()
        crs_of = {sid: m.crs for sid, m in self.downlink.metadata.items()}
        self.trees = {}
        for client in self.clients:
            speed.maybe_sample()
            tree = self.trees.get(client.text)
            if tree is None:
                tree = self.trees[client.text] = optimize(parse_query(client.text), crs_of).node
            client.expected = reference(
                tree, self.downlink.metadata, self.decoded, self.downlink.height,
                client.first_frame, client.end_frame,
            )
            if w.churn_per_period and len(client.expected.frames) + len(client.expected.records) != (
                client.end_frame - client.first_frame
            ):
                raise RuntimeError("churn queries must yield one output per frame period")
        if self.corrupt_reference:
            victim = next(c for c in self.clients if c.expected.frames)
            victim.expected.frames[0] = bytes(16)
        # The initial population registers on a fresh server, as a run's would.
        server = DSMSServer(self.downlink.catalog(Cursor()), columnar=w.columnar)
        for client in self.clients[: w.clients]:
            server.handle_request(format_query_request(client.text, client.fmt))

    # -- one iteration ---------------------------------------------------------------

    def iterate(self, observed: bool | None = None) -> Iteration:
        """One server lifetime: register, scan the downlink, verify, deregister.

        Times are taken at reference speed (see ``pace``).
        """
        w = self.workload
        observed = w.observed if observed is None else observed
        it = Iteration()
        cursor = Cursor()
        speed = Speedometer()
        clock = PullClock(speed)
        # (when, raw seconds), scaled to reference speed once the
        # yardstick samples around each one exist.
        lags: list[tuple[float, float]] = []
        registers: list[tuple[float, float]] = []
        deregisters: list[tuple[float, float]] = []

        def bracket() -> None:
            speed.sample(BRACKET_SAMPLES)

        catalog = self.downlink.catalog(cursor, clock)
        store = MetricStore() if observed else None
        context = (
            obs.observe(stats=True, frame_trace=True, store=store, journal=True)
            if observed else nullcontext()
        )
        sessions: dict[int, object] = {}
        finished: list[tuple[Client, object]] = []
        gc.collect()
        with context as ob:
            server = DSMSServer(
                catalog,
                columnar=w.columnar,
                slo=SLOPolicy(max_lag_s=SLO_MAX_LAG_S) if observed else None,
            )

            def register(index: int) -> None:
                client = self.clients[index]
                line = format_query_request(client.text, client.fmt)
                it.attempted += 1
                t0 = perf_counter()
                try:
                    session = server.handle_request(line)
                except GeoStreamsError:
                    # A rejected client also misses every output it expected.
                    missed = len(client.expected.frames) + len(client.expected.records)
                    it.attempted += missed
                    it.failed += 1 + missed
                    return
                t1 = perf_counter()
                registers.append((t1, t1 - t0))
                _watch_latency(session, clock, lags)
                sessions[index] = session

            def deregister(index: int) -> None:
                session = sessions.pop(index, None)
                if session is None:
                    return
                finished.append((self.clients[index], session))
                it.attempted += 1
                t0 = perf_counter()
                try:
                    server.handle_request(f"DELETE /query/{session.session_id} HTTP/1.1")
                except GeoStreamsError:
                    it.failed += 1
                    return
                t1 = perf_counter()
                deregisters.append((t1, t1 - t0))

            # Each batch of request lines is bracketed by yardstick samples
            # (see pace); none runs between requests, so each request finds
            # the caches its predecessor left.
            bracket()
            for index in range(w.clients):
                register(index)
            bracket()
            if w.churn_per_period:
                periods = [(p, 2 * self.downlink.height) for p in range(w.frames)]
            else:
                periods = [(0, None)]
            for p, max_chunks in periods:
                if p != self.drop_period:
                    cursor.frame = p
                    before = server.router_stats.chunks_scanned
                    spent0 = speed.spent
                    t0 = perf_counter()
                    try:
                        server.run(max_chunks=max_chunks, close=max_chunks is None)
                    except GeoStreamsError:
                        it.failed += 1
                    t1 = perf_counter()
                    raw = t1 - t0 - (speed.spent - spent0)
                    it.run_s += raw * speed.scale_between(t0, t1)
                    it.run_raw_s += raw
                    it.records_scanned += server.router_stats.chunks_scanned - before
                if p < len(self.events):
                    leaving, joining = self.events[p]
                    bracket()
                    for index in leaving:
                        deregister(index)
                    for index in joining:
                        register(index)
                    bracket()
            it.prune_fraction = server.router_stats.prune_fraction
            stats = server.plan_stats
            it.plan_stats = {
                "stage_executions": stats.stage_executions,
                "subplan_hits": stats.subplan_hits,
                "chunks_saved": stats.chunks_saved,
            }
            if observed:
                t0 = perf_counter()
                health_payload(server, store=ob.store, journal=ob.journal)
                timeseries_payload(ob.store)
                events_payload(ob.journal)
                it.obs_counts = {
                    "payload_s": perf_counter() - t0,
                    "samples": ob.store.samples_taken,
                    "events": ob.journal.total,
                    "stages": len(ob.stats.stages),
                    "traces": sum(
                        1 for s in sessions.values() for f in s.frames if f.trace is not None
                    ),
                }
            bracket()
            for index in list(sessions):
                deregister(index)
            bracket()
        for client, session in finished:
            attempted, failed = check_session(session, client.expected, png=client.fmt == "png")
            it.attempted += attempted
            it.failed += failed
            it.frames += len(session.frames)
            it.records += len(session.records)
        for raw, out in ((lags, it.latencies), (registers, it.register_s),
                         (deregisters, it.deregister_s)):
            out.extend(seconds * speed.scale_at(t) for t, seconds in raw)
        # Source accounting: every recorded row is scanned exactly once.
        it.failed += abs(self.downlink.n_records - it.records_scanned)
        it.points_scanned = it.records_scanned * self.downlink.width
        return it

    # -- the pull executor on the same clients ------------------------------------

    def pull_s(self, speed: Speedometer) -> float:
        """Seconds for the pull executor to serve every client's live frames.

        Same queries (the optimizer's output trees), same execution mode as
        the server, over the downlink decoded in set-up, with frames
        assembled as a session would; no PNG encoding. Taken at reference
        speed, with a yardstick sample between clients.
        """
        columnar = bool(self.workload.columnar)
        speed.sample(BRACKET_SAMPLES)
        spent0 = speed.spent
        t0 = perf_counter()
        for client in self.clients:
            speed.maybe_sample()
            chunks = pull(
                self.trees[client.text], self.downlink.metadata, self.decoded,
                self.downlink.height, client.first_frame, client.end_frame,
                columnar=columnar,
            )
            if chunks and not isinstance(chunks[0], PointChunk):
                for _ in assemble_frames(chunks):
                    pass
        t1 = perf_counter()
        speed.sample(BRACKET_SAMPLES)
        return (t1 - t0 - (speed.spent - spent0)) * speed.scale_between(t0, t1)
