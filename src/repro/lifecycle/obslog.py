"""Crash-safe, append-only observation log.

Serving appends one :class:`ObservationRecord` per piece of ground
truth a client reports — the features the prediction was made from,
what the model said, and what actually happened. The retrain job reads
the log back incrementally; together they close the serving→training
loop, so the format has to survive the writer dying at any byte.

The discipline mirrors :class:`~repro.experiments.cache.DiskCache`:
every record is framed (magic, length, CRC32) and fsync'd before the
append is acknowledged, and a record is *committed* only when its full
frame is on disk with a matching checksum. Recovery at open scans each
segment, keeps the longest prefix of complete records, quarantines the
torn tail bytes to a ``*.torn-*`` file for diagnosis, and truncates —
exactly like DiskCache quarantines corrupt pickles instead of serving
them. Segments rotate at a size bound so recovery and incremental
consumption stay cheap.

The ``lifecycle.log_append`` fault site fires *mid-frame* — after the
header and the first half of the payload are flushed, before the rest —
so chaos plans (and the crash tests, which ``os._exit`` there) tear a
record exactly the way a dying writer would. An in-process fault is
self-healing: the append truncates back to the last committed offset
and re-raises, so the log object stays usable and no reader ever sees
a half-written record.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import threading
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, IO, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..faults import FaultInjector, get_injector

__all__ = [
    "ObservationLog",
    "ObservationRecord",
    "read_segment_records",
]

#: Frame magic: identifies the start of a committed record.
_MAGIC = b"T3LG"
#: Frame header: magic + payload length (u32) + payload CRC32 (u32).
_HEADER = struct.Struct("<4sII")
#: Upper bound on one serialized record; larger lengths in a header mean
#: the header itself is garbage (torn tail), not a huge record.
MAX_RECORD_BYTES = 16 << 20

_SEGMENT_PREFIX = "obs-"
_SEGMENT_SUFFIX = ".seg"


@dataclass(frozen=True)
class ObservationRecord:
    """One served prediction paired with its observed ground truth."""

    instance: str
    #: Per-pipeline feature vectors the prediction was computed from
    #: (``(n_pipelines, n_features)`` float64; one summed row for
    #: per-query models).
    vectors: np.ndarray
    #: Pipeline input cardinalities (``None`` for per-query models).
    cards: Optional[np.ndarray]
    predicted_seconds: float
    #: The active model's per-pipeline predictions; the retrainer uses
    #: their proportions to distribute the observed total over
    #: pipelines (real systems observe query totals, not stage times).
    pipeline_seconds: Tuple[float, ...]
    observed_seconds: float
    #: ``name@version`` of the model that produced the prediction.
    model_key: str
    #: Assigned by :meth:`ObservationLog.append`; -1 until logged.
    sequence: int = -1

    def validate(self) -> None:
        vectors = self.vectors
        if not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
            raise ConfigurationError(
                "observation vectors must be a 2-D feature matrix")
        if not np.all(np.isfinite(vectors)):
            raise ConfigurationError(
                "observation vectors must be finite")
        if self.cards is not None and len(self.cards) != len(vectors):
            raise ConfigurationError(
                "observation cards must align with vectors")
        if not (np.isfinite(self.observed_seconds)
                and self.observed_seconds >= 0.0):
            raise ConfigurationError(
                "observed_seconds must be finite and non-negative, got "
                f"{self.observed_seconds!r}")

    def to_payload(self) -> Dict[str, object]:
        return {
            "instance": self.instance,
            "vectors": np.ascontiguousarray(self.vectors, dtype=np.float64),
            "cards": (None if self.cards is None
                      else np.ascontiguousarray(self.cards,
                                                dtype=np.float64)),
            "predicted_seconds": float(self.predicted_seconds),
            "pipeline_seconds": tuple(float(t)
                                      for t in self.pipeline_seconds),
            "observed_seconds": float(self.observed_seconds),
            "model_key": self.model_key,
            "sequence": int(self.sequence),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ObservationRecord":
        return cls(**payload)  # type: ignore[arg-type]


def _scan_segment(data: bytes) -> Tuple[int, int]:
    """(complete records, committed byte offset) of one segment image.

    Anything past the returned offset — a torn frame, a corrupt CRC, or
    trailing garbage — is *not* committed.
    """
    offset, records = 0, 0
    size = len(data)
    while True:
        if size - offset < _HEADER.size:
            return records, offset
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC or length > MAX_RECORD_BYTES:
            return records, offset
        end = offset + _HEADER.size + length
        if end > size:
            return records, offset
        payload = data[offset + _HEADER.size:end]
        if zlib.crc32(payload) != crc:
            return records, offset
        records += 1
        offset = end


def read_segment_records(path: Union[str, Path]) -> List[ObservationRecord]:
    """Decode every committed record of one segment file.

    Read-only and torn-tolerant: a torn tail simply ends the scan (the
    owning :class:`ObservationLog` quarantines it at open).
    """
    data = Path(path).read_bytes()
    _, committed = _scan_segment(data)
    records: List[ObservationRecord] = []
    offset = 0
    while offset < committed:
        _, length, _ = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = pickle.loads(data[start:start + length])
        records.append(ObservationRecord.from_payload(payload))
        offset = start + length
    return records


class ObservationLog:
    """Segmented append-only log with torn-tail recovery.

    Thread-safe: appends serialize on one lock. Readers never share the
    writer's file handle — they read committed segment files.
    """

    def __init__(self, directory: Union[str, Path],
                 max_segment_bytes: int = 1 << 20,
                 sync: bool = True,
                 injector: Optional[FaultInjector] = None):
        if max_segment_bytes < _HEADER.size + 1:
            raise ConfigurationError(
                "max_segment_bytes is smaller than one record frame")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = int(max_segment_bytes)
        self.sync = bool(sync)
        self._injector = injector or get_injector()
        self._lock = threading.Lock()
        self._handle: Optional[IO[bytes]] = None
        self._records: Dict[str, int] = {}   # segment name -> records
        self._offset = 0                     # committed bytes, tail segment
        self._sequence = 0
        self._closed = False
        self.torn_tails_quarantined = 0
        self.rotations = 0
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _segment_paths(self) -> List[Path]:
        return sorted(self.directory.glob(
            f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    def _recover(self) -> None:
        """Scan every segment, quarantine torn tails, open the last for
        append (or start a fresh one)."""
        paths = self._segment_paths()
        for path in paths:
            data = path.read_bytes()
            records, committed = _scan_segment(data)
            if committed < len(data):
                target = path.with_name(
                    f"{path.name}.torn-{uuid.uuid4().hex[:8]}")
                target.write_bytes(data[committed:])
                with path.open("r+b") as handle:
                    handle.truncate(committed)
                self.torn_tails_quarantined += 1
            self._records[path.name] = records
            self._sequence += records
        if paths:
            tail = paths[-1]
            self._offset = tail.stat().st_size
            self._handle = tail.open("r+b")
            self._handle.seek(self._offset)
            self._tail = tail
        else:
            self._start_segment(0)

    def _start_segment(self, index: int) -> None:
        path = self._segment_path(index)
        self._handle = path.open("a+b")
        self._offset = 0
        self._records[path.name] = 0
        self._tail = path

    # -- appending ---------------------------------------------------------

    def append(self, record: ObservationRecord) -> int:
        """Durably append one record; returns its sequence number.

        Either the whole frame is committed (flushed, fsync'd when
        ``sync``) or the segment is restored to its previous committed
        length — an append can fail, but it cannot half-write.
        """
        record.validate()
        with self._lock:
            if self._closed:
                raise ConfigurationError("observation log is closed")
            payload = pickle.dumps(
                dataclasses.replace(record,
                                    sequence=self._sequence).to_payload(),
                protocol=pickle.HIGHEST_PROTOCOL)
            frame = _HEADER.pack(_MAGIC, len(payload),
                                 zlib.crc32(payload)) + payload
            if self._offset and \
                    self._offset + len(frame) > self.max_segment_bytes:
                self._rotate_locked()
            handle = self._handle
            committed = self._offset
            split = len(frame) // 2
            try:
                handle.write(frame[:split])
                # Flush the torn prefix so a crash at the fault site
                # leaves it on disk — the exact tear recovery must heal.
                handle.flush()
                self._injector.fire("lifecycle.log_append")
                handle.write(frame[split:])
                handle.flush()
                if self.sync:
                    os.fsync(handle.fileno())
            except BaseException:
                self._repair_locked(committed)
                raise
            self._offset = committed + len(frame)
            self._records[self._tail.name] += 1
            sequence = self._sequence
            self._sequence += 1
            return sequence

    def _repair_locked(self, committed: int) -> None:
        """Truncate the tail segment back to its last committed byte."""
        try:
            self._handle.flush()
        except OSError:
            pass
        self._handle.seek(committed)
        self._handle.truncate(committed)
        self._offset = committed

    def _rotate_locked(self) -> None:
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        self._handle.close()
        self.rotations += 1
        self._start_segment(len(self._segment_paths()))

    def rotate(self) -> Path:
        """Seal the tail segment and start a new one (returns the new)."""
        with self._lock:
            if self._closed:
                raise ConfigurationError("observation log is closed")
            self._rotate_locked()
            return self._tail

    # -- reading -----------------------------------------------------------

    def segments(self) -> List[Path]:
        """Segment files, oldest first (the last one is still growing)."""
        with self._lock:
            return self._segment_paths()

    def segment_records(self) -> Dict[str, int]:
        """Committed record count per segment name — the retrainer's
        incremental-consume cursor is diffed against this."""
        with self._lock:
            return dict(self._records)

    def read_all(self) -> List[ObservationRecord]:
        with self._lock:
            self._handle.flush()
            paths = self._segment_paths()
        records: List[ObservationRecord] = []
        for path in paths:
            records.extend(read_segment_records(path))
        return records

    # -- lifecycle ---------------------------------------------------------

    @property
    def sequence(self) -> int:
        """Sequence number the next append will receive."""
        with self._lock:
            return self._sequence

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "records": self._sequence,
                "segments": len(self._records),
                "rotations": self.rotations,
                "torn_tails_quarantined": self.torn_tails_quarantined,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            if self.sync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "ObservationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
