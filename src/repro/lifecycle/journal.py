"""Write-ahead interaction journal: append-only checksummed segments.

The journal is the lifecycle's durability root: every catalog mutation —
interactions, re-prices, new users, new items — is appended here *before*
any index build consumes it, so a crash anywhere downstream can always be
repaired by replaying the journal against the last-good version.

On-disk layout (one directory)::

    journal/
      segment-00000000.wal      sealed, immutable
      segment-00000001.wal      sealed, immutable
      segment-00000002.open     active segment, append-only

Each segment starts with a 10-byte magic and holds framed records::

    [ payload_len: uint32 | crc32(payload): uint32 | payload bytes ]

The payload is the event's compact JSON (sorted keys), so records are
inspectable with nothing but ``struct`` and ``json``; the CRC makes every
record independently verifiable.  Events carry a contiguous ``seq`` —
assigned by the writer, validated on replay — which is what makes replay
*resumable*: a version manifest records the last folded ``seq`` and a
rebuild replays strictly after it.

Durability and crash behavior:

* Appends are flushed (and optionally fsynced) per batch; a SIGKILL can
  lose at most the final in-flight record, leaving a **torn tail** —
  a record whose declared length exceeds the bytes on disk.
* **Sealed segments are immutable**: rotation fsyncs the open segment and
  atomically renames ``.open`` → ``.wal`` (the staging+rename pattern the
  archive layer uses).  Any damage inside a sealed segment is real
  corruption and replay raises :class:`JournalCorrupted` naming the
  segment and record.
* The **open segment** may legitimately end in a torn record.  Replay
  drops it; the writer truncates it on reopen and keeps appending into
  the same segment, so the post-recovery byte stream is identical to the
  stream an uncrashed writer would have produced — the property the
  lifecycle crash drill pins bit-for-bit.
* A CRC mismatch is *never* tolerated, tail or not: torn means short,
  corrupt means wrong, and the two get different treatment.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

SEGMENT_MAGIC = b"REPROWAL1\n"
RECORD_HEADER = struct.Struct("<II")  # payload_len, crc32(payload)

_SEALED_RE = re.compile(r"^segment-(\d{8})\.wal$")
_OPEN_RE = re.compile(r"^segment-(\d{8})\.open$")

#: event kinds the fold-in consumes (anything else is rejected at append)
EVENT_KINDS = ("interaction", "reprice", "add_user", "add_item")


class JournalCorrupted(RuntimeError):
    """A sealed record failed its checksum or framing — names the record."""

    def __init__(self, segment: str, record: int, reason: str) -> None:
        super().__init__(
            f"journal segment {segment!r} record {record} is corrupt: {reason}"
        )
        self.segment = segment
        self.record = record
        self.reason = reason


@dataclass(frozen=True)
class Event:
    """One journaled catalog mutation.

    ``seq`` is the journal-assigned global sequence number (contiguous
    from 0).  Field use by kind:

    ===============  ====================================================
    ``interaction``  ``user`` bought/clicked ``item``
    ``reprice``      ``item``'s raw price becomes ``price``
    ``add_user``     ``user`` is the new id (must equal the next user id)
    ``add_item``     ``item`` is the new id, with ``category``/``price``
    ===============  ====================================================
    """

    seq: int
    kind: str
    user: int = -1
    item: int = -1
    price: Optional[float] = None
    category: int = -1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r} (have {EVENT_KINDS})")
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")

    def to_payload(self) -> bytes:
        """Canonical JSON bytes — the exact bytes the CRC covers."""
        fields: Dict = {"seq": self.seq, "kind": self.kind}
        if self.user >= 0:
            fields["user"] = self.user
        if self.item >= 0:
            fields["item"] = self.item
        if self.price is not None:
            fields["price"] = float(self.price)
        if self.category >= 0:
            fields["category"] = self.category
        return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "Event":
        fields = json.loads(payload.decode("utf-8"))
        return cls(
            seq=int(fields["seq"]),
            kind=str(fields["kind"]),
            user=int(fields.get("user", -1)),
            item=int(fields.get("item", -1)),
            price=fields.get("price"),
            category=int(fields.get("category", -1)),
        )


def encode_record(payload: bytes) -> bytes:
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_segment(
    path: str,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, bytes]], Optional[int]]:
    """Parse a segment file into raw records.

    Returns ``(offsets, records, torn_at)`` where ``offsets`` holds one
    ``(byte_offset, payload_len)`` per *complete* record, ``records`` its
    ``(stored_crc, payload)``, and ``torn_at`` is the byte offset of an
    incomplete trailing record (``None`` when the file ends cleanly).  CRC
    validity is NOT checked here — framing only — so the corruption drill
    can locate records inside a damaged file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise JournalCorrupted(path, -1, "bad segment magic")
    offsets: List[Tuple[int, int]] = []
    records: List[Tuple[int, bytes]] = []
    pos = len(SEGMENT_MAGIC)
    while pos < len(data):
        if pos + RECORD_HEADER.size > len(data):
            return offsets, records, pos  # torn header
        length, crc = RECORD_HEADER.unpack_from(data, pos)
        if pos + RECORD_HEADER.size + length > len(data):
            return offsets, records, pos  # torn payload
        records.append((crc, data[pos + RECORD_HEADER.size : pos + RECORD_HEADER.size + length]))
        offsets.append((pos, length))
        pos += RECORD_HEADER.size + length
    return offsets, records, None


def segment_record_offsets(path: str) -> List[Tuple[int, int]]:
    """``(byte_offset, payload_len)`` of each complete record (drill helper)."""
    return _scan_segment(path)[0]


def _read_segment(path: str, tolerate_torn_tail: bool) -> Tuple[List[Event], Optional[int]]:
    """:func:`read_segment` plus the torn tail's byte offset, in one read of the file."""
    offsets, records, torn_at = _scan_segment(path)
    if torn_at is not None and not tolerate_torn_tail:
        raise JournalCorrupted(
            path, len(offsets), f"truncated record at byte {torn_at}"
        )
    events: List[Event] = []
    for i, (crc, payload) in enumerate(records):
        if zlib.crc32(payload) != crc:
            raise JournalCorrupted(path, i, "payload checksum mismatch")
        try:
            events.append(Event.from_payload(payload))
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            raise JournalCorrupted(path, i, f"undecodable payload: {error}") from error
    return events, torn_at


def read_segment(path: str, tolerate_torn_tail: bool = False) -> List[Event]:
    """Decode a segment's events, verifying every record's CRC.

    A torn trailing record is dropped when ``tolerate_torn_tail`` (the open
    segment after a crash) and raises :class:`JournalCorrupted` otherwise
    (sealed segments end cleanly by construction).  A CRC mismatch always
    raises, naming the segment and 0-based record index.
    """
    return _read_segment(path, tolerate_torn_tail)[0]


def _segment_files(directory: str) -> Tuple[List[Tuple[int, str]], Optional[Tuple[int, str]]]:
    """Sorted sealed segments plus the open segment (at most one)."""
    sealed: List[Tuple[int, str]] = []
    open_segments: List[Tuple[int, str]] = []
    if not os.path.isdir(directory):
        return [], None
    for entry in sorted(os.listdir(directory)):
        match = _SEALED_RE.match(entry)
        if match:
            sealed.append((int(match.group(1)), os.path.join(directory, entry)))
            continue
        match = _OPEN_RE.match(entry)
        if match:
            open_segments.append((int(match.group(1)), os.path.join(directory, entry)))
    if len(open_segments) > 1:
        raise JournalCorrupted(
            open_segments[1][1], -1, "multiple open segments (rotation invariant broken)"
        )
    return sealed, (open_segments[0] if open_segments else None)


def _read_segments(
    sealed: List[Tuple[int, str]], open_segment: Optional[Tuple[int, str]]
) -> Iterator[Tuple[List[Event], Optional[int]]]:
    """Each segment's ``(events, torn_at)`` in journal order, each file read once.

    Sealed segments must be pristine; the open segment — yielded last —
    may end torn.  Sequence numbers are validated to be contiguous across
    segment boundaries: a gap means a segment went missing and raises
    :class:`JournalCorrupted` rather than silently skipping data.
    """
    ordered = [(path, False) for _sid, path in sealed]
    if open_segment is not None:
        ordered.append((open_segment[1], True))
    expected: Optional[int] = None
    for path, is_open in ordered:
        events, torn_at = _read_segment(path, tolerate_torn_tail=is_open)
        for i, event in enumerate(events):
            if expected is not None and event.seq != expected:
                raise JournalCorrupted(
                    path, i, f"sequence gap: expected seq {expected}, found {event.seq}"
                )
            expected = event.seq + 1
        yield events, torn_at


def replay(directory: str, after_seq: int = -1) -> List[Event]:
    """Every journaled event with ``seq > after_seq``, in order.

    Validated as :func:`_read_segments` describes; a torn tail is dropped.
    """
    segments = _read_segments(*_segment_files(directory))
    return [event for events, _torn in segments for event in events if event.seq > after_seq]


def last_seq(directory: str) -> int:
    """Highest valid seq in the journal (``-1`` when empty)."""
    events = replay(directory)
    return events[-1].seq if events else -1


def journal_digest(directory: str) -> str:
    """SHA-256 over every valid record payload, in order.

    Two journals with the same digest hold bit-identical event streams —
    the equality the crash drill asserts between a crashed-and-recovered
    run and an uncrashed reference run.
    """
    digest = hashlib.sha256()
    for event in replay(directory):
        digest.update(event.to_payload())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class JournalStats:
    """Writer-side accounting (scraped into ``lifecycle_journal_lag``)."""

    appended: int = 0
    rotations: int = 0
    recovered_torn_bytes: int = 0
    last_seq: int = -1


class JournalWriter:
    """Appender over a journal directory; one writer at a time.

    ``segment_records`` bounds records per segment (rotation is automatic,
    and — because it triggers at a fixed record count — segment boundaries
    are a pure function of ``seq``, which keeps crashed-and-recovered
    journals bit-identical to uncrashed ones).  ``fsync=True`` adds an
    ``os.fsync`` per append batch for machine-crash durability; the
    default flushes to the OS page cache, which survives process death.
    """

    def __init__(
        self,
        directory: str,
        segment_records: int = 4096,
        fsync: bool = False,
    ) -> None:
        if segment_records < 1:
            raise ValueError(f"segment_records must be >= 1, got {segment_records}")
        self.directory = directory
        self.segment_records = int(segment_records)
        self.fsync = bool(fsync)
        os.makedirs(directory, exist_ok=True)
        self.stats = JournalStats()
        self._fh = None
        self._open_records = 0
        self._open_id = 0
        self._recover()

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Attach to the existing journal: validate, truncate a torn tail,
        reopen the open segment (or start the next one)."""
        sealed, open_segment = _segment_files(self.directory)
        next_id = (sealed[-1][0] + 1) if sealed else 0
        if open_segment is not None and open_segment[0] != next_id:
            raise JournalCorrupted(
                open_segment[1], -1,
                f"open segment id {open_segment[0]} does not follow sealed {next_id - 1}",
            )
        # One pass over every file, the open segment last: raises
        # JournalCorrupted on real damage or a missing segment.
        events, torn_at = [], None
        for events, torn_at in _read_segments(sealed, open_segment):
            if events:
                self.stats.last_seq = events[-1].seq
        self._open_id = next_id
        if open_segment is not None:
            path = open_segment[1]
            if torn_at is not None:
                with open(path, "r+b") as fh:
                    size = fh.seek(0, os.SEEK_END)
                    fh.truncate(torn_at)
                self.stats.recovered_torn_bytes += size - torn_at
            self._open_records = len(events)
            self._fh = open(path, "ab")
        else:
            self._start_segment()

    def _open_path(self) -> str:
        return os.path.join(self.directory, f"segment-{self._open_id:08d}.open")

    def _sealed_path(self, segment_id: int) -> str:
        return os.path.join(self.directory, f"segment-{segment_id:08d}.wal")

    def _start_segment(self) -> None:
        self._fh = open(self._open_path(), "wb")
        self._fh.write(SEGMENT_MAGIC)
        self._fh.flush()
        self._open_records = 0

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self.stats.last_seq + 1

    def append(self, event: Event) -> Event:
        """Durably append one event; its ``seq`` must be :attr:`next_seq`."""
        if self._fh is None:
            raise ValueError("journal writer is closed")
        if event.seq != self.next_seq:
            raise ValueError(
                f"event seq {event.seq} is not the journal's next seq {self.next_seq}"
            )
        self._fh.write(encode_record(event.to_payload()))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.stats.appended += 1
        self.stats.last_seq = event.seq
        self._open_records += 1
        if self._open_records >= self.segment_records:
            self.rotate()
        return event

    def append_fields(self, kind: str, **fields) -> Event:
        """Build an event with the next seq and append it."""
        return self.append(Event(seq=self.next_seq, kind=kind, **fields))

    def rotate(self) -> Optional[str]:
        """Seal the open segment (fsync + atomic rename) and start the next.

        No-op on an empty open segment.  Returns the sealed path.
        """
        if self._fh is None:
            raise ValueError("journal writer is closed")
        if self._open_records == 0:
            return None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        sealed = self._sealed_path(self._open_id)
        os.replace(self._open_path(), sealed)
        self._open_id += 1
        self._start_segment()
        self.stats.rotations += 1
        return sealed

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
