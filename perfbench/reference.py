"""Reference outputs and the correctness gate.

The reference for a client is the pull executor (``plan_query``) run in
per-point mode, the repository's correctness oracle, on the optimizer's
output tree for the client's query: that tree is what the server
executes. It reads the recorded downlink decoded once, restricted to the
frame periods the client was live. Each delivered frame is reduced to a
digest of its values, lattice, band, timestamp and sector; each record to
its exact field tuple. ``check_session`` compares a session's deliveries
with the reference position by position, so a missing, duplicated,
reordered or wrong frame or record is one failure each, and a frame whose
``seq`` is not its position is a failure too.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.core.chunk import Chunk, PointChunk
from repro.core.image import RasterImage, assemble_frames
from repro.core.stream import GeoStream, StreamMetadata
from repro.query import ast as q
from repro.query.planner import plan_query

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
RecordKey = tuple[str, str, str, str, str, "int | None"]


def frame_digest(image: RasterImage) -> bytes:
    """Digest of everything a delivered frame carries except its encoding."""
    values = np.ascontiguousarray(image.values)
    h = hashlib.blake2b(digest_size=16)
    h.update(values.dtype.str.encode())
    h.update(struct.pack(">3q", *values.shape[:2], values.ndim))
    h.update(values.tobytes())
    box = image.lattice.bbox
    h.update(struct.pack(">4d", box.xmin, box.ymin, box.xmax, box.ymax))
    h.update(repr((image.band, image.t, image.sector, image.lattice.crs.name)).encode())
    return h.digest()


def record_key(x: float, y: float, value: float, t: float, band: str, sector) -> RecordKey:
    """Bit-exact, NaN-safe comparison key of one delivered record."""
    return (float(x).hex(), float(y).hex(), float(value).hex(), float(t).hex(), band, sector)


@dataclass
class Expected:
    """What one client should receive: frame digests or record keys."""

    frames: list[bytes]
    records: list[RecordKey]


def pull(
    tree: q.QueryNode,
    metadata: dict[str, StreamMetadata],
    decoded: dict[str, list[Chunk]],
    rows_per_frame: int,
    first_frame: int,
    end_frame: int,
    columnar: bool = False,
) -> list[Chunk]:
    """Pull-executor output chunks of ``tree`` over frames [first_frame, end_frame)."""
    lo, hi = first_frame * rows_per_frame, end_frame * rows_per_frame
    sources = {
        sid: GeoStream.from_chunks(meta, decoded[sid][lo:hi])
        for sid, meta in metadata.items()
    }
    return plan_query(tree, sources, columnar=columnar).collect_chunks()


def reference(
    tree: q.QueryNode,
    metadata: dict[str, StreamMetadata],
    decoded: dict[str, list[Chunk]],
    rows_per_frame: int,
    first_frame: int,
    end_frame: int,
) -> Expected:
    """Digests of the per-point pull output over frames [first_frame, end_frame)."""
    chunks = pull(tree, metadata, decoded, rows_per_frame, first_frame, end_frame)
    points = [c for c in chunks if isinstance(c, PointChunk)]
    if points and len(points) != len(chunks):
        raise ValueError("query mixes raster and point output")
    records = [
        record_key(c.x[i], c.y[i], np.asarray(c.values, dtype=float)[i], c.t[i], c.band, c.sector)
        for c in points
        for i in range(c.n_points)
    ]
    frames = [] if points else [frame_digest(img) for img in assemble_frames(chunks)]
    return Expected(frames=frames, records=records)


def check_session(session, expected: Expected, png: bool) -> tuple[int, int]:
    """(attempted, failed) for one session against its reference.

    Attempted counts the expected frames and records; every position
    where delivery and reference disagree, and every surplus delivery,
    is one failure.
    """
    failed = 0
    got = session.frames
    for i in range(max(len(got), len(expected.frames))):
        if i >= len(got) or i >= len(expected.frames):
            failed += 1
            continue
        frame = got[i]
        ok = frame.seq == i and frame_digest(frame.image) == expected.frames[i]
        if png:
            ok = ok and _png_header_ok(frame.png, frame.image)
        else:
            ok = ok and frame.png == b""
        failed += not ok
    records = [
        record_key(r.x, r.y, r.value, r.t, r.band, r.sector) for r in session.records
    ]
    for i in range(max(len(records), len(expected.records))):
        if i >= len(records) or i >= len(expected.records):
            failed += 1
        elif records[i] != expected.records[i]:
            failed += 1
    return len(expected.frames) + len(expected.records), failed


def _png_header_ok(png: bytes, image: RasterImage) -> bool:
    """A PNG stream whose IHDR names the frame's width and height."""
    if not png.startswith(PNG_SIGNATURE) or png[12:16] != b"IHDR":
        return False
    width, height = struct.unpack(">II", png[16:24])
    return (height, width) == image.shape
