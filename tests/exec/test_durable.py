"""The durable-file protocol, proven once.

:mod:`repro.exec.durable` is the one reader, appender and atomic writer
under the journal, the store's commit log, the shard files and the
coordinator queue. These tests damage a small CRC log at every byte
offset — truncated there, or with any single bit flipped there — and
check that recovery never raises, keeps every record that ended before
the damage, and that resuming and appending continues the kept prefix.
"""

from __future__ import annotations

import os

import pytest

from repro.coord.queue import QueueConfig, WorkQueue
from repro.exec import durable
from repro.exec.durable import (
    Damage,
    append,
    atomic_write,
    encode_line,
    publish,
    read_prefix,
    truncate,
)
from repro.exec.journal import JournalWriter, read_journal
from repro.store import ResultsStore, build_epoch

#: ``café`` encodes as ``caf\u00e9``: an ``e``→``E`` flip in the escape
#: leaves the canonical body, and so the CRC, unchanged.
RECORDS = [
    {"seq": 0, "kind": "begin", "payload": {}},
    {"seq": 1, "kind": "unit", "payload": {"site": "café", "n": 12}},
    {"seq": 2, "kind": "commit", "payload": {"ok": True}},
    {"seq": 3, "kind": "end", "payload": {"rows": [1, 2]}},
]


def check(record, index):
    """An owner's rule, as the journal has it: positions are sequential."""
    if record.get("seq") != index:
        raise Damage(f"sequence break at {index}")
    return record


def line_ends(records):
    ends, offset = [], 0
    for record in records:
        offset += len(encode_line(record))
        ends.append(offset)
    return ends


def assert_resumes(path, kept):
    """Cut back to the prefix, append one record, read prefix + record."""
    prefix = read_prefix(path, check)
    truncate(path, prefix.end)
    extra = {"seq": len(kept), "kind": "resumed", "payload": {}}
    append(path, encode_line(extra))
    assert read_prefix(path, check).records == kept + [extra]


class DescribeLines:
    def test_round_trips_a_record(self):
        assert durable.decode_line(encode_line(RECORDS[1])) == RECORDS[1]

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"\xff\xfe", "unparseable line"),
            (b'{"crc": 1, "rec": {"a"', "unparseable line"),
            (b"[1, 2]", "malformed envelope"),
            (b'{"crc": 1, "rec": 2}', "malformed envelope"),
            (b'{"crc": 1, "rec": {}, "x": 0}', "malformed envelope"),
            (b'{"crc": 1, "rec": {}}', "CRC mismatch"),
        ],
    )
    def test_names_the_damage(self, line, reason):
        with pytest.raises(Damage, match=reason):
            durable.decode_line(line)


class DescribeReadPrefix:
    def test_missing_file_is_an_empty_prefix(self, tmp_path):
        prefix = read_prefix(tmp_path / "absent", check)
        assert (prefix.records, prefix.end, prefix.torn) == ([], 0, False)

    def test_end_counts_the_blank_lines_it_skipped(self, tmp_path):
        path = tmp_path / "log"
        first, second = (encode_line(r) for r in RECORDS[:2])
        path.write_bytes(first + b"\n\n" + second + b'{"crc"')
        prefix = read_prefix(path, check)
        assert prefix.records == RECORDS[:2]
        assert prefix.end == len(first) + 2 + len(second)
        assert prefix.torn and prefix.damage is None

    def test_owner_check_ends_the_prefix(self, tmp_path):
        path = tmp_path / "log"
        lines = [encode_line(r) for r in RECORDS]
        path.write_bytes(lines[0] + lines[2] + lines[3])
        prefix = read_prefix(path, check)
        assert prefix.records == RECORDS[:1]
        assert prefix.damage == "sequence break at 1"
        assert prefix.lines == 3


class DescribeDamageAtEveryOffset:
    def test_truncation_keeps_exactly_the_complete_records(self, tmp_path):
        data = b"".join(encode_line(r) for r in RECORDS)
        ends = line_ends(RECORDS)
        path = tmp_path / "log"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            prefix = read_prefix(path, check)
            kept = [r for r, end in zip(RECORDS, ends) if end <= cut]
            assert prefix.records == kept, cut
            assert prefix.end == (ends[len(kept) - 1] if kept else 0)
            assert prefix.torn == (cut not in [0] + ends)
            assert_resumes(path, kept)

    def test_bit_flips_keep_every_record_before_the_damage(self, tmp_path):
        data = b"".join(encode_line(r) for r in RECORDS)
        ends = line_ends(RECORDS)
        path = tmp_path / "log"
        survived_flips = 0
        for position in range(len(data)):
            intact = sum(1 for end in ends if end <= position)
            for bit in range(8):
                damaged = bytearray(data)
                damaged[position] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                prefix = read_prefix(path, check)
                kept = prefix.records
                assert kept == RECORDS[: len(kept)], (position, bit)
                assert len(kept) >= intact, (position, bit)
                survived_flips += len(kept) == len(RECORDS)
                assert_resumes(path, kept)
        # The case flips inside the é escape leave record 1 valid.
        assert survived_flips > 0


class DescribeAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        atomic_write(target, b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_replace_leaves_target_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, b"new")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]


@pytest.fixture
def sync_log(monkeypatch):
    """Records directory fsyncs and renames, in the order they happen."""
    events = []
    sync_directory = durable._sync_directory
    replace = os.replace

    def spy_sync(directory):
        events.append(("sync", os.fspath(directory)))
        sync_directory(directory)

    def spy_replace(src, dst):
        events.append(("replace", os.fspath(src), os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(durable, "_sync_directory", spy_sync)
    monkeypatch.setattr(os, "replace", spy_replace)
    return events


def assert_staging_synced_before_rename(events, final):
    renames = [e for e in events if e[0] == "replace" and e[2] == str(final)]
    assert len(renames) == 1
    rename = events.index(renames[0])
    staging = renames[0][1]
    assert ("sync", staging) in events[:rename]
    assert events[rename + 1] == ("sync", str(final.parent))


class DescribePublish:
    def test_syncs_the_staging_directory_before_the_rename(
        self, tmp_path, sync_log
    ):
        staging = tmp_path / ".staging"
        staging.mkdir()
        final = tmp_path / "published"
        publish(staging, {"a.seg": b"rows", "manifest.json": b"{}"}, final)
        assert sorted(p.name for p in final.iterdir()) == [
            "a.seg", "manifest.json"
        ]
        assert not staging.exists()
        assert_staging_synced_before_rename(sync_log, final)

    def test_store_commit_and_stream_finalize_use_it(
        self, tmp_path, sync_log
    ):
        store = ResultsStore(tmp_path)
        row = {"product": "vendor-x", "isp": "testnet", "country": "tl"}
        committed = store.commit(
            build_epoch(
                identity={"seed": 1},
                fingerprint="fp-1",
                seed=1,
                window=(0, 1),
                records={"confirmations": [row]},
            )
        )
        assert_staging_synced_before_rename(sync_log, committed.path)
        stream = store.begin_stream(
            identity={"seed": 2}, fingerprint="fp-2", seed=2, window_start=0
        )
        stream.write("installations", row)
        streamed = stream.finalize(window_end=1)
        assert_staging_synced_before_rename(sync_log, streamed.path)


class DescribeResumeAfterBlankLines:
    """Resume cuts at the offset the reader stopped at, not at the sum
    of re-encoded record lengths, which misses skipped blank lines."""

    def test_journal_resume_then_append_keeps_every_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter.create(path)
        writer.append("a", {})
        writer.append("b", {})
        writer.close()
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + b"\n" + second + b'{"crc": 1, "rec"')
        writer, records, report = JournalWriter.resume(path)
        assert [r.kind for r in records] == ["a", "b"]
        writer.append("c", {})
        writer.close()
        records, report = read_journal(path)
        assert [r.kind for r in records] == ["a", "b", "c"]
        assert report.clean

    def test_queue_recovery_then_append_keeps_every_event(self, tmp_path):
        queue = WorkQueue.create(
            tmp_path / "coord",
            identity={"seed": 1},
            fingerprint="f" * 64,
            seed=1,
            config=QueueConfig(shard_count=2),
            clock=lambda: 1000.0,
        )
        queue.claim("w1")
        queue.commit(
            "w1", 0, file="shard-0", rows_sha256="d" * 64,
            rows=1, scanned=1, missed=0, decoys=0,
        )
        first, second = queue.queue_path.read_bytes().splitlines(
            keepends=True
        )
        queue.queue_path.write_bytes(first + b"\n" + second + b'{"cr')
        fresh = WorkQueue.open(tmp_path / "coord", clock=lambda: 1000.0)
        assert fresh.claim("w2").shard == 1
        records, report = read_journal(fresh.queue_path)
        assert [r.kind for r in records] == ["lease", "commit", "lease"]
        assert report.clean
        assert fresh.snapshot().done == (0,)
