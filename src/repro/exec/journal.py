"""Write-ahead study journal: append-only, CRC-protected JSONL.

The confirmation methodology is inherently long-running — submitted
sites are only re-tested after a 3-5 day categorization window (§4.2) —
so a production-scale reproduction must survive process death
mid-campaign. The journal is the durable record of *what the study was
doing*: one line per event (study begin, unit start, unit commit,
snapshot written, study final), each carrying a schema version, a
monotonic sequence number, and a CRC32 over its canonical encoding
(the line framing and prefix reader live in :mod:`repro.exec.durable`;
this module owns the schema version and sequence rules).

Recovery semantics (shared with :mod:`repro.exec.checkpoint`):

- **Torn tail** — a partially written last line (the classic
  power-loss artifact of an append-only log) is dropped and reported;
  every complete record before it is kept.
- **Corrupt record** — a CRC or JSON failure mid-file invalidates that
  record *and everything after it* (a WAL's suffix is meaningless once
  its prefix is broken); the valid prefix is kept and the damage is
  reported.
- **Version skew** — a record written by a different schema version is
  treated the same way as corruption: the reader keeps the valid
  prefix and reports the skew rather than guessing at field meanings.

None of these degrade to a crash or to silent recomputation: the
reader always returns the longest valid prefix plus a
:class:`RecoveryReport` that says exactly what was discarded and why.
Resume then replays deterministic work from the newest valid snapshot
(see :mod:`repro.exec.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.durable import Damage, encode_line, read_prefix, sync, truncate

#: Bump on any incompatible change to the record encoding.
JOURNAL_SCHEMA_VERSION = 1

#: The journal file name inside a ``--journal`` directory.
JOURNAL_FILENAME = "journal.jsonl"


class JournalError(Exception):
    """A journal could not be written (never raised for read damage)."""


@dataclass(frozen=True)
class JournalRecord:
    """One validated journal entry."""

    seq: int
    kind: str
    payload: Dict[str, Any]

    def encode(self) -> bytes:
        """The record's CRC line."""
        return encode_line(
            {
                "seq": self.seq,
                "v": JOURNAL_SCHEMA_VERSION,
                "kind": self.kind,
                "payload": self.payload,
            }
        )


@dataclass
class RecoveryReport:
    """An explicit account of what recovery kept, dropped, and chose.

    Populated by the journal reader (records kept/discarded, damage
    notes) and extended by the snapshot loader (snapshots considered,
    rejected, and the one actually used). A degraded journal never
    surfaces as an exception — it surfaces here.
    """

    journal_path: Optional[str] = None
    records_kept: int = 0
    records_discarded: int = 0
    notes: List[str] = field(default_factory=list)
    snapshots_rejected: List[str] = field(default_factory=list)
    snapshot_used: Optional[str] = None
    units_replayed: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.notes and not self.snapshots_rejected

    def note(self, message: str) -> None:
        self.notes.append(message)

    def describe(self) -> List[str]:
        lines = [
            f"journal: {self.journal_path or '(none)'} — "
            f"{self.records_kept} record(s) kept, "
            f"{self.records_discarded} discarded"
        ]
        for note in self.notes:
            lines.append(f"  damage: {note}")
        for rejected in self.snapshots_rejected:
            lines.append(f"  snapshot rejected: {rejected}")
        lines.append(
            f"resume point: {self.snapshot_used or 'scratch (no valid snapshot)'}"
        )
        if self.units_replayed:
            lines.append(
                f"replaying {len(self.units_replayed)} unit(s): "
                + ", ".join(self.units_replayed)
            )
        return lines


def read_journal(
    path: Path, report: Optional[RecoveryReport] = None
) -> Tuple[List[JournalRecord], RecoveryReport]:
    """Read the longest valid prefix of a journal file.

    Never raises for damage: torn tails, CRC failures, version skew,
    and sequence gaps all truncate the readable prefix and leave a
    note in the returned :class:`RecoveryReport`.
    """
    records, report, _end = _read(Path(path), report)
    return records, report


def recover_journal(path: Path) -> Tuple[List[JournalRecord], RecoveryReport]:
    """:func:`read_journal`, then cut the file back to the valid prefix,
    so the next append continues it instead of fusing onto damage."""
    records, report, end = _read(Path(path), None)
    truncate(path, end)
    return records, report


def valid_prefix_length(path: Path) -> int:
    """Byte length of the longest valid record prefix (for truncation)."""
    return _read(Path(path), None)[2]


def _read(
    path: Path, report: Optional[RecoveryReport]
) -> Tuple[List[JournalRecord], RecoveryReport, int]:
    report = report if report is not None else RecoveryReport()
    report.journal_path = str(path)
    prefix = read_prefix(path, _check)
    if prefix.damage is not None:
        index = len(prefix.records)
        discarded = prefix.lines - index
        report.note(f"record {index}: {prefix.damage}; discarding it and "
                    f"{discarded - 1} subsequent record(s)")
        report.records_discarded += discarded
    if prefix.torn:
        report.records_discarded += 1
        report.note("torn tail: final record is incomplete (no newline); dropped")
    report.records_kept = len(prefix.records)
    return prefix.records, report, prefix.end


def _check(rec: Dict[str, Any], index: int) -> JournalRecord:
    """The journal's record rules: schema version, then sequence."""
    version = rec.get("v")
    if version != JOURNAL_SCHEMA_VERSION:
        raise Damage(
            f"schema version skew (journal v{version}, "
            f"reader v{JOURNAL_SCHEMA_VERSION})"
        )
    seq = rec.get("seq")
    if not isinstance(seq, int) or seq != index:
        raise Damage(f"sequence break (saw {seq!r}, expected {index})")
    kind = rec.get("kind")
    payload = rec.get("payload")
    if not isinstance(kind, str) or not isinstance(payload, dict):
        raise Damage("malformed record body")
    return JournalRecord(seq=seq, kind=kind, payload=payload)


class JournalWriter:
    """Appends CRC-protected records, fsyncing each one.

    ``after_write`` is a test seam: the crash-matrix harness installs a
    hook that raises after the Nth durable record, simulating a SIGKILL
    at every possible journal position. Because the simulated world
    lives entirely in memory, "the hook raised and the process
    abandoned its objects" is exactly as destructive as a real kill.
    """

    def __init__(
        self,
        path: Path,
        *,
        after_write: Optional[Callable[[JournalRecord], None]] = None,
    ) -> None:
        self.path = Path(path)
        self.after_write = after_write
        self._next_seq = 0
        self._handle = None

    @classmethod
    def create(cls, path: Path, **kwargs: Any) -> "JournalWriter":
        """Start a fresh journal (refuses to clobber an existing one)."""
        path = Path(path)
        if path.exists():
            raise JournalError(f"journal already exists: {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, **kwargs)

    @classmethod
    def resume(
        cls, path: Path, **kwargs: Any
    ) -> Tuple["JournalWriter", List[JournalRecord], RecoveryReport]:
        """Reopen a journal, truncating any damaged suffix first.

        Returns the writer positioned after the valid prefix, plus the
        prefix itself and the recovery report describing any damage.
        """
        records, report = recover_journal(path)
        writer = cls(path, **kwargs)
        writer._next_seq = records[-1].seq + 1 if records else 0
        return writer, records, report

    # --------------------------------------------------------------- write
    def append(
        self, kind: str, payload: Dict[str, Any], *, durable: bool = True
    ) -> JournalRecord:
        """Append one record; ``durable=False`` skips the per-record
        fsync (group commit: the next durable append persists it too,
        since fsync flushes all buffered data for the file). Only safe
        for records whose loss a resume tolerates — e.g. an in-flight
        round marker that recovery would simply re-run."""
        record = JournalRecord(self._next_seq, kind, dict(payload))
        encoded = record.encode()
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        self._handle.write(encoded)
        self._handle.flush()
        if durable:
            sync(self._handle)
        self._next_seq += 1
        if self.after_write is not None:
            self.after_write(record)
        return record

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
