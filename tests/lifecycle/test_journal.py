"""Write-ahead journal: framing, rotation, torn tails, corruption drills.

The property everything downstream leans on: after any crash, reopening
the journal and replaying yields exactly the events an uncrashed run
would have — bit-identical, verified via ``journal_digest``.
"""

import os

import numpy as np
import pytest

from repro.lifecycle.journal import (
    RECORD_HEADER,
    Event,
    JournalCorrupted,
    JournalWriter,
    encode_record,
    journal_digest,
    last_seq,
    read_segment,
    replay,
    segment_record_offsets,
)


def make_events(count, start=0):
    events = []
    for i in range(count):
        seq = start + i
        if i % 7 == 3:
            events.append(Event(seq=seq, kind="reprice", item=i % 5, price=1.5 * i))
        elif i % 7 == 5:
            events.append(Event(seq=seq, kind="add_item", item=100 + i, price=9.0, category=1))
        else:
            events.append(Event(seq=seq, kind="interaction", user=i % 11, item=i % 13))
    return events


def segments(directory, suffix):
    return sorted(f for f in os.listdir(directory) if f.endswith(suffix))


def corrupt_journal(segment_path, record=None, seed=0, truncate=False):
    """Damage one record of a journal segment file, in place.

    Default mode flips one payload byte of record ``record`` (seeded choice
    when not given), leaving the stored CRC32 intact so a replay raises
    ``JournalCorrupted`` naming exactly that record.  ``truncate=True``
    instead cuts the file partway through the *final* record — the
    torn-tail shape a SIGKILL mid-append leaves, which replay must
    tolerate (for an open segment) rather than error on.  Returns the
    0-based index of the damaged record.
    """
    offsets = segment_record_offsets(segment_path)
    if not offsets:
        raise ValueError(f"no records to corrupt in journal segment {segment_path!r}")
    rng = np.random.default_rng(seed)
    if truncate:
        index = len(offsets) - 1
        offset, length = offsets[index]
        # Keep the header plus a strict prefix of the payload: the torn
        # shape of an append that died mid-write.
        keep = offset + RECORD_HEADER.size + int(rng.integers(max(1, length)))
        with open(segment_path, "r+b") as fh:
            fh.truncate(keep)
        return index
    index = int(rng.integers(len(offsets))) if record is None else int(record)
    if not 0 <= index < len(offsets):
        raise ValueError(f"record {index} out of range (segment has {len(offsets)})")
    offset, length = offsets[index]
    with open(segment_path, "r+b") as fh:
        fh.seek(offset + RECORD_HEADER.size + int(rng.integers(max(1, length))))
        original = fh.read(1)[0]
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([original ^ 0xFF]))
    return index


class TestEvent:
    def test_payload_round_trip(self):
        event = Event(seq=4, kind="add_item", item=12, price=3.25, category=2)
        assert Event.from_payload(event.to_payload()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Event(seq=0, kind="checkout")

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError, match="seq"):
            Event(seq=-1, kind="interaction", user=0, item=0)


class TestWriterReplay:
    def test_round_trip(self, tmp_path):
        events = make_events(20)
        with JournalWriter(str(tmp_path)) as writer:
            for event in events:
                writer.append(event)
        assert replay(str(tmp_path)) == events
        assert last_seq(str(tmp_path)) == 19

    def test_after_seq_filter(self, tmp_path):
        events = make_events(10)
        with JournalWriter(str(tmp_path)) as writer:
            for event in events:
                writer.append(event)
        assert replay(str(tmp_path), after_seq=6) == events[7:]

    def test_seq_must_be_contiguous(self, tmp_path):
        with JournalWriter(str(tmp_path)) as writer:
            writer.append(Event(seq=0, kind="interaction", user=0, item=0))
            with pytest.raises(ValueError, match="next seq"):
                writer.append(Event(seq=5, kind="interaction", user=0, item=0))

    def test_rotation_seals_segments(self, tmp_path):
        with JournalWriter(str(tmp_path), segment_records=4) as writer:
            for event in make_events(10):
                writer.append(event)
        assert segments(str(tmp_path), ".wal") == [
            "segment-00000000.wal",
            "segment-00000001.wal",
        ]
        assert segments(str(tmp_path), ".open") == ["segment-00000002.open"]
        assert writer.stats.rotations == 2
        assert len(replay(str(tmp_path))) == 10

    def test_reopen_resumes_sequence(self, tmp_path):
        with JournalWriter(str(tmp_path), segment_records=4) as writer:
            for event in make_events(6):
                writer.append(event)
        with JournalWriter(str(tmp_path), segment_records=4) as writer:
            assert writer.next_seq == 6
            for event in make_events(3, start=6):
                writer.append(event)
        assert last_seq(str(tmp_path)) == 8

    def test_append_fields_assigns_next_seq(self, tmp_path):
        with JournalWriter(str(tmp_path)) as writer:
            first = writer.append_fields("interaction", user=1, item=2)
            second = writer.append_fields("reprice", item=2, price=4.5)
        assert (first.seq, second.seq) == (0, 1)


class TestTornTail:
    def write_then_tear(self, directory, count=9, segment_records=4):
        with JournalWriter(str(directory), segment_records=segment_records) as writer:
            for event in make_events(count):
                writer.append(event)
        open_segment = os.path.join(
            str(directory), segments(str(directory), ".open")[0]
        )
        torn_record = corrupt_journal(open_segment, truncate=True)
        return open_segment, torn_record

    def test_replay_tolerates_torn_final_record(self, tmp_path):
        self.write_then_tear(tmp_path, count=9, segment_records=4)
        # Records 0-7 are sealed; the open segment held seq 8, now torn.
        assert [e.seq for e in replay(str(tmp_path))] == list(range(8))

    def test_sealed_segment_must_end_cleanly(self, tmp_path):
        with JournalWriter(str(tmp_path), segment_records=4) as writer:
            for event in make_events(4):
                writer.append(event)
        sealed = os.path.join(str(tmp_path), segments(str(tmp_path), ".wal")[0])
        corrupt_journal(sealed, truncate=True)
        with pytest.raises(JournalCorrupted, match="truncated record"):
            replay(str(tmp_path))

    def test_recovery_is_bit_identical_to_uncrashed_run(self, tmp_path):
        crashed = tmp_path / "crashed"
        reference = tmp_path / "reference"
        events = make_events(11)

        # Crashed run: 9 events land, the 9th is torn mid-payload by the
        # "kill"; recovery truncates it and the stream is re-driven.
        crashed.mkdir()
        with JournalWriter(str(crashed), segment_records=4) as writer:
            for event in events[:9]:
                writer.append(event)
        open_segment = os.path.join(str(crashed), segments(str(crashed), ".open")[0])
        corrupt_journal(open_segment, truncate=True)
        with JournalWriter(str(crashed), segment_records=4) as writer:
            assert writer.stats.recovered_torn_bytes > 0
            for event in events:
                if event.seq >= writer.next_seq:
                    writer.append(event)

        reference.mkdir()
        with JournalWriter(str(reference), segment_records=4) as writer:
            for event in events:
                writer.append(event)

        assert journal_digest(str(crashed)) == journal_digest(str(reference))
        # Stronger than digest equality: the files themselves match.
        assert segments(str(crashed), ".wal") == segments(str(reference), ".wal")
        for name in segments(str(crashed), ".wal") + segments(str(crashed), ".open"):
            a = (crashed / name).read_bytes()
            b = (reference / name).read_bytes()
            assert a == b, f"segment {name} diverged after recovery"


class TestCorruption:
    def seal_one_segment(self, directory, count=6):
        with JournalWriter(str(directory), segment_records=count) as writer:
            for event in make_events(count):
                writer.append(event)
        return os.path.join(str(directory), segments(str(directory), ".wal")[0])

    def test_flip_names_the_bad_record(self, tmp_path):
        sealed = self.seal_one_segment(tmp_path)
        victim = corrupt_journal(sealed, record=3)
        assert victim == 3
        with pytest.raises(JournalCorrupted, match="record 3.*checksum") as info:
            replay(str(tmp_path))
        assert info.value.record == 3
        assert info.value.segment == sealed

    def test_seeded_flip_is_reproducible(self, tmp_path):
        a = self.seal_one_segment(tmp_path / "a")
        b = self.seal_one_segment(tmp_path / "b")
        assert corrupt_journal(a, seed=11) == corrupt_journal(b, seed=11)

    def test_corruption_detected_even_in_open_segment(self, tmp_path):
        with JournalWriter(str(tmp_path)) as writer:
            for event in make_events(5):
                writer.append(event)
        open_segment = os.path.join(str(tmp_path), segments(str(tmp_path), ".open")[0])
        corrupt_journal(open_segment, record=1)
        # Torn tails are tolerated; checksum mismatches never are.
        with pytest.raises(JournalCorrupted, match="record 1"):
            replay(str(tmp_path))

    def test_missing_segment_is_a_sequence_gap(self, tmp_path):
        with JournalWriter(str(tmp_path), segment_records=3) as writer:
            for event in make_events(9):
                writer.append(event)
        os.remove(os.path.join(str(tmp_path), "segment-00000001.wal"))
        with pytest.raises(JournalCorrupted, match="sequence gap"):
            replay(str(tmp_path))

    def test_missing_segment_is_refused_when_a_writer_opens(self, tmp_path):
        """The writer's one recovery pass keeps replay's cross-segment check."""
        with JournalWriter(str(tmp_path), segment_records=3) as writer:
            for event in make_events(10):
                writer.append(event)
        os.remove(os.path.join(str(tmp_path), "segment-00000001.wal"))
        with pytest.raises(JournalCorrupted, match="sequence gap: expected seq 3, found 6") as info:
            JournalWriter(str(tmp_path), segment_records=3)
        assert info.value.segment.endswith("segment-00000002.wal") and info.value.record == 0

    def test_writer_takes_last_seq_from_the_last_nonempty_segment(self, tmp_path):
        with JournalWriter(str(tmp_path), segment_records=3) as writer:
            for event in make_events(6):  # rotates on the 6th: the open segment is empty
                writer.append(event)
        assert segments(str(tmp_path), ".open") == ["segment-00000002.open"]
        with JournalWriter(str(tmp_path), segment_records=3) as writer:
            assert writer.next_seq == 6 and writer.stats.last_seq == last_seq(str(tmp_path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "segment-00000000.wal"
        path.write_bytes(b"NOTAWAL!!\n" + encode_record(b"{}"))
        with pytest.raises(JournalCorrupted, match="magic"):
            read_segment(str(path))

    def test_record_offsets_locate_every_record(self, tmp_path):
        sealed = self.seal_one_segment(tmp_path, count=4)
        offsets = segment_record_offsets(sealed)
        assert len(offsets) == 4
        assert offsets == sorted(offsets)

    def test_digest_changes_with_content(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for directory, count in ((a, 5), (b, 6)):
            directory.mkdir()
            with JournalWriter(str(directory)) as writer:
                for event in make_events(count):
                    writer.append(event)
        assert journal_digest(str(a)) != journal_digest(str(b))
