"""Per-query watermarks and delivery-lag SLO monitoring.

A query's *watermark* is the event time (stream time) of the newest frame
delivered to any of its sessions. The monitor tracks two lags per query:

* **event lag** — stream clock minus watermark: how far behind the live
  scan the query's deliveries are, in stream seconds.
* **clock lag** — recovery-clock seconds since the query last delivered.
  Under an injected ``stall`` fault the :class:`~repro.faults.recovery.
  SimClock` jumps deterministically, so breaches are reproducible in
  tests without real sleeping.

A breach fires the policy callback once per rising edge (hysteresis:
``relax_after`` consecutive healthy observations re-arm it) and, when
``escalate_shedding`` is set, leans on the DSMS's existing
``AdaptiveLoadShedder.escalate``/``relax`` pressure valve. Metrics are
published under ``repro_slo_*`` when the registry is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .context import current
from .registry import get_registry, metrics_enabled

__all__ = ["SLOPolicy", "SLOBreach", "SLOMonitor"]

LAG_UNSET = float("-inf")


@dataclass(frozen=True)
class SLOBreach:
    """One rising-edge breach of a query's delivery-lag SLO."""

    query: int
    lag_s: float
    kind: str  # "event" (stream-time lag) | "clock" (wall/sim-clock lag)
    watermark: float | None
    stream_t: float | None


@dataclass
class SLOPolicy:
    """Declared delivery-lag objective for registered queries."""

    max_lag_s: float
    callback: Optional[Callable[[SLOBreach], None]] = None
    escalate_shedding: bool = True
    relax_after: int = 4  # healthy observations before the breach re-arms


@dataclass
class _QueryState:
    watermark: float = LAG_UNSET
    breached: bool = False
    healthy_streak: int = 0
    breaches: int = 0


class SLOMonitor:
    """Evaluates one :class:`SLOPolicy` across every registered query."""

    def __init__(self, policy: SLOPolicy) -> None:
        if policy.max_lag_s <= 0:
            raise ValueError("SLO max_lag_s must be positive")
        self.policy = policy
        self.breaches: list[SLOBreach] = []
        self._states: dict[int, _QueryState] = {}

    def _state(self, query: int) -> _QueryState:
        state = self._states.get(query)
        if state is None:
            state = self._states[query] = _QueryState()
        return state

    def watermark(self, query: int) -> float | None:
        state = self._states.get(query)
        if state is None or state.watermark == LAG_UNSET:
            return None
        return state.watermark

    def breach_count(self, query: int | None = None) -> int:
        if query is not None:
            state = self._states.get(query)
            return state.breaches if state else 0
        return len(self.breaches)

    def is_breached(self, query: int) -> bool:
        state = self._states.get(query)
        return bool(state and state.breached)

    def observe(
        self,
        query: int,
        *,
        watermark: float | None = None,
        stream_t: float | None = None,
        clock_lag_s: float | None = None,
    ) -> SLOBreach | None:
        """Update one query's lag picture; returns a breach on rising edge.

        ``watermark`` is the newest delivered event time, ``stream_t`` the
        current stream clock (their difference is the event lag), and
        ``clock_lag_s`` the seconds since the query last delivered on the
        recovery clock (None when no recovery clock is installed).
        """
        state = self._state(query)
        if watermark is not None:
            state.watermark = max(state.watermark, watermark)

        lags: list[tuple[str, float]] = []
        if stream_t is not None and state.watermark != LAG_UNSET:
            lags.append(("event", stream_t - state.watermark))
        if clock_lag_s is not None:
            lags.append(("clock", clock_lag_s))
        if not lags:
            return None

        kind, lag = max(lags, key=lambda kv: kv[1])
        over = lag > self.policy.max_lag_s
        self._publish(query, lag, state)

        if not over:
            if state.breached:
                state.healthy_streak += 1
                if state.healthy_streak >= self.policy.relax_after:
                    state.breached = False
                    state.healthy_streak = 0
                    self._publish(query, lag, state)
                    ob = current()
                    journal = ob.journal
                    if journal is not None:
                        journal.append(
                            "slo-recover",
                            query=query,
                            reason=f"{kind} lag {lag:.3f}s back under "
                            f"{self.policy.max_lag_s:g}s",
                            t=stream_t,
                        )
                    ftracer = ob.frame_tracer
                    if ftracer is not None:
                        ftracer.on_recover(query)
            return None
        state.healthy_streak = 0
        if state.breached:
            return None  # still inside the same breach episode
        state.breached = True
        state.breaches += 1
        breach = SLOBreach(
            query=query,
            lag_s=lag,
            kind=kind,
            watermark=self.watermark(query),
            stream_t=stream_t,
        )
        self.breaches.append(breach)
        self._publish(query, lag, state)
        if metrics_enabled():
            get_registry().counter("repro_slo_breaches_total", query=query).inc()
        edge = f"slo-breach:{kind}-lag:{lag:.3f}s>{self.policy.max_lag_s:g}s"
        ob = current()
        journal = ob.journal
        if journal is not None:
            # The link doubles as the flight-recorder pin reason so the
            # journal entry clicks through to the pinned capture.
            journal.append("slo-breach", query=query, reason=edge, link=edge, t=stream_t)
        ftracer = ob.frame_tracer
        if ftracer is not None:
            # Auto-pin the breaching query's latest frame trace and force
            # sampling on until the monitor declares it healthy again.
            ftracer.on_breach(query, reason=edge)
        if self.policy.callback is not None:
            self.policy.callback(breach)
        return breach

    def _publish(self, query: int, lag: float, state: _QueryState) -> None:
        if not metrics_enabled():
            return
        reg = get_registry()
        if state.watermark != LAG_UNSET:
            reg.gauge("repro_slo_watermark_seconds", query=query).set(state.watermark)
        reg.gauge("repro_slo_lag_seconds", query=query).set(lag)
        reg.gauge("repro_slo_breached", query=query).set(1.0 if state.breached else 0.0)
