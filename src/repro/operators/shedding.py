"""Load shedding for overload conditions.

The paper's introduction situates GeoStreams within DSMS research whose
techniques include "adaptive query processing, operator scheduling, and
load shedding". For image streams, shedding whole *frames* (scan sectors)
is the natural unit — dropping arbitrary points would corrupt the lattice
invariants every downstream operator relies on. Two policies:

* :class:`FrameSubsampler` — static policy: keep every k-th frame
  (temporal decimation of the product's refresh rate).
* :class:`AdaptiveLoadShedder` — dynamic policy: a token bucket of
  downstream *point* budget per frame period; when arrears build up
  (processing is slower than the downlink), whole frames are dropped
  until the budget recovers. Every shed frame is counted, so benches can
  trade output completeness against sustained throughput explicitly.

Both are non-blocking (0 buffered points): shedding is a gate, not a
buffer.
"""

from __future__ import annotations

from typing import Iterable

from ..core.chunk import Chunk, GridChunk, PointChunk
from ..errors import OperatorError
from ..obs.context import current
from ..obs.registry import get_registry, metrics_enabled
from .base import Operator

__all__ = ["FrameSubsampler", "AdaptiveLoadShedder"]


def _publish_shed_metrics(op: "Operator", shed: bool, credit: float | None = None) -> None:
    """Registry publication shared by both shedding policies.

    Called only behind a ``metrics_enabled()`` check, so the disabled hot
    path never touches the registry.
    """
    registry = get_registry()
    registry.counter("shed_frames_seen_total", policy=op.name).inc()
    if shed:
        registry.counter("shed_frames_dropped_total", policy=op.name).inc()
    if credit is not None:
        registry.gauge("shed_credit_points", policy=op.name).set(credit)


class FrameSubsampler(Operator):
    """Keep one frame in every ``keep_every`` (drop the rest entirely)."""

    name = "frame-subsampler"

    def __init__(self, keep_every: int, phase: int = 0) -> None:
        super().__init__()
        if keep_every < 1:
            raise OperatorError(f"keep_every must be >= 1, got {keep_every}")
        self.keep_every = keep_every
        self.phase = phase % keep_every
        self.frames_seen = 0
        self.frames_shed = 0
        self._current: int | None = None
        self._keep_current = True

    def _reset_state(self) -> None:
        self.frames_seen = 0
        self.frames_shed = 0
        self._current = None
        self._keep_current = True

    def _frame_key(self, chunk: Chunk) -> int | None:
        if isinstance(chunk, GridChunk) and chunk.frame is not None:
            return chunk.frame.frame_id
        if isinstance(chunk, GridChunk):
            return chunk.sector
        return None

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            # Point streams have no frames; subsampling keeps every chunk.
            yield chunk
            return
        key = self._frame_key(chunk)
        if key != self._current:
            self._current = key
            self._keep_current = (self.frames_seen % self.keep_every) == self.phase
            self.frames_seen += 1
            if not self._keep_current:
                self.frames_shed += 1
            if metrics_enabled():
                _publish_shed_metrics(self, shed=not self._keep_current)
        if self._keep_current:
            yield chunk

    def __repr__(self) -> str:
        return f"FrameSubsampler(keep_every={self.keep_every})"


class AdaptiveLoadShedder(Operator):
    """Token-bucket frame shedding driven by a downstream point budget.

    Parameters
    ----------
    points_per_frame_budget:
        How many points downstream processing can absorb per frame period.
        The budget accrues when a frame starts; frames whose points would
        overdraw the bucket are shed whole.
    max_credit:
        Cap on saved-up budget (prevents unbounded burst after idle gaps).
    """

    name = "adaptive-load-shedder"

    def __init__(
        self,
        points_per_frame_budget: float,
        max_credit: float | None = None,
    ) -> None:
        super().__init__()
        if points_per_frame_budget <= 0:
            raise OperatorError("budget must be positive")
        self.budget = float(points_per_frame_budget)
        self.max_credit = (
            float(max_credit) if max_credit is not None else 2.0 * self.budget
        )
        # Start empty: the first frame period's refill is the first income,
        # so the long-run keep fraction is exactly budget / frame-size.
        self._credit = 0.0
        self._current: int | None = None
        self._keep_current = True
        self.frames_seen = 0
        self.frames_shed = 0
        self.points_shed = 0
        # Pressure divides the per-frame refill; the DSMS escalates it
        # under sustained source stalls (graceful degradation: shed more,
        # stay live) and relaxes it once the feed recovers.
        self._pressure = 1.0
        self.escalations = 0
        # When an adaptive re-planner manages the shed rate, the blind
        # reflexive signals (stall detector, SLO breach edges) are
        # superseded: pressure is pinned to the value the planner derived
        # from the current epoch's calibrated cost.
        self.managed = False

    def _reset_state(self) -> None:
        self._credit = 0.0
        self._current = None
        self._keep_current = True
        self.frames_seen = 0
        self.frames_shed = 0
        self.points_shed = 0
        self._pressure = 1.0
        self.escalations = 0
        self.managed = False

    # -- overload response (driven by the DSMS under sustained stall) --------

    @property
    def pressure(self) -> float:
        return self._pressure

    def escalate(self, factor: float = 2.0) -> None:
        """Cut the effective refill budget (bounded so it can recover)."""
        if factor <= 1.0:
            raise OperatorError(f"escalation factor must be > 1, got {factor}")
        if self.managed:
            return  # the re-planner owns the shed rate (open loop superseded)
        self._pressure = min(self._pressure * factor, 64.0)
        self.escalations += 1
        if metrics_enabled():
            get_registry().counter(
                "repro_faults_shed_escalations_total", policy=self.name
            ).inc()
        journal = current().journal
        if journal is not None:
            journal.append(
                "shed-escalate",
                reason=f"policy={self.name} pressure={self._pressure:g}",
            )

    def relax(self) -> None:
        """Undo escalation once the feed looks healthy again."""
        if self.managed:
            return
        if self._pressure > 1.0:
            journal = current().journal
            if journal is not None:
                journal.append(
                    "shed-relax",
                    reason=f"policy={self.name} pressure={self._pressure:g}->1",
                )
        self._pressure = 1.0

    def set_managed(self, pressure: float) -> None:
        """Pin the shed rate to a planner-derived value (see AdaptivePolicy).

        An epoch transition that changes the shed rate calls this with
        the pressure the *new* plan's calibrated cost supports; from then
        on the reflexive escalate/relax valves are no-ops until
        :meth:`release_managed`.
        """
        if pressure <= 0:
            raise OperatorError(f"managed pressure must be positive, got {pressure}")
        self._pressure = min(pressure, 64.0)
        self.managed = True
        journal = current().journal
        if journal is not None:
            journal.append(
                "shed-managed",
                reason=f"policy={self.name} pressure={self._pressure:g}",
            )

    def release_managed(self) -> None:
        """Return the shed rate to reflexive stall/SLO control."""
        self.managed = False

    def _frame_points_estimate(self, chunk: GridChunk) -> int:
        if chunk.frame is not None:
            return chunk.frame.lattice.n_points
        return chunk.n_points

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            yield chunk
            return
        key = chunk.frame.frame_id if chunk.frame is not None else chunk.sector
        if key != self._current:
            self._current = key
            self.frames_seen += 1
            self._credit = min(self._credit + self.budget / self._pressure, self.max_credit)
            # Deficit accounting: a frame is admitted whenever the bucket
            # is positive and may drive it into debt, which future frame
            # periods repay. The long-run keep fraction then converges to
            # budget / frame-size regardless of how the cap relates to the
            # frame size.
            if self._credit > 0:
                self._keep_current = True
                self._credit -= self._frame_points_estimate(chunk)
            else:
                self._keep_current = False
                self.frames_shed += 1
            if metrics_enabled():
                _publish_shed_metrics(
                    self, shed=not self._keep_current, credit=self._credit
                )
        if self._keep_current:
            yield chunk
        else:
            self.points_shed += chunk.n_points
            if metrics_enabled():
                get_registry().counter(
                    "shed_points_dropped_total", policy=self.name
                ).inc(chunk.n_points)

    @property
    def shed_fraction(self) -> float:
        return self.frames_shed / self.frames_seen if self.frames_seen else 0.0

    def __repr__(self) -> str:
        return f"AdaptiveLoadShedder(budget={self.budget:g})"
