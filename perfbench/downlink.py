"""The recorded downlink: raw imager records, synthesized once per seed.

The DSMS under test never sees the synthetic scene. Set-up runs the GOES
imager simulator to completion and keeps its GVAR-like record bytes;
every measured run replays those bytes through ``StreamGenerator.
decode_stream`` behind ``StreamCatalog.register``, so the imager's cost
lands in set-up and never in a scan figure.

``Cursor`` lets a workload resume the downlink at a frame boundary:
``DSMSServer.run`` re-opens catalog streams on every call, and each open
starts at the cursor's frame.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.chunk import Chunk
from repro.core.stream import GeoStream
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, StreamGenerator, SyntheticEarth, western_us_sector
from repro.server import StreamCatalog

from pace import PullClock, Speedometer

# Scan start at 20:00 UTC, so the visible band is sunlit over the sector.
SCAN_T0 = 72_000.0
SUB_SATELLITE_LON = -135.0


class Cursor:
    """Frame at which the next open of every band stream starts."""

    def __init__(self) -> None:
        self.frame = 0


class Downlink:
    """Raw records of every band for ``n_frames`` scans of one sector."""

    def __init__(self, seed: int, width: int, height: int, n_frames: int,
                 speed: Speedometer) -> None:
        crs = goes_geostationary(SUB_SATELLITE_LON)
        self.lattice = western_us_sector(crs, width=width, height=height)
        self.imager = GOESImager(
            scene=SyntheticEarth(seed=seed),
            lon_0=SUB_SATELLITE_LON,
            sector_lattice=self.lattice,
            n_frames=n_frames,
            t0=SCAN_T0,
        )
        self.records: dict[str, list[bytes]] = {}
        for band in self.imager.bands:
            records = self.records[band] = []
            for record in self.imager.raw_records(band):
                records.append(record)
                speed.maybe_sample()
        self.metadata = {
            f"goes.{band}": self.imager.stream(band).metadata
            for band in self.imager.bands
        }

    @property
    def width(self) -> int:
        return self.lattice.width

    @property
    def height(self) -> int:
        return self.lattice.height

    @property
    def n_records(self) -> int:
        return sum(len(recs) for recs in self.records.values())

    def _records_of(self, stream_id: str) -> list[bytes]:
        return self.records[self.metadata[stream_id].band]

    def decode(self) -> dict[str, list[Chunk]]:
        """Every band decoded once (the reference executor's input)."""
        generator = StreamGenerator(self.imager.navigation(), self.imager.organization)
        return {
            sid: list(generator.decode_stream(self._records_of(sid)))
            for sid in self.metadata
        }

    def catalog(self, cursor: Cursor, clock: PullClock | None = None) -> StreamCatalog:
        """A catalog whose streams decode the recorded bytes from ``cursor``."""
        catalog = StreamCatalog()
        generator = StreamGenerator(self.imager.navigation(), self.imager.organization)
        for sid, metadata in self.metadata.items():
            records = self._records_of(sid)

            def open_stream(records: list[bytes] = records) -> Iterator[Chunk]:
                start = cursor.frame * self.height
                chunks = generator.decode_stream(records[start:])
                return clock.stamp(chunks) if clock is not None else chunks

            catalog.register(GeoStream(metadata, open_stream), self.lattice.bbox)
        return catalog
