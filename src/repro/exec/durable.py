"""The durable-file protocol, in one place.

The study, the monitor, the scan coordinator and the results store all
run long (§4.2 retests after days) and must recover every file to its
longest valid prefix after a crash. This module is the one home of that
protocol: canonical JSON, the CRC line ``{"crc": N, "rec": <record>}``,
the prefix reader, fsynced appends and truncation, atomic file writes
and staged-directory publishes. What a record *means* (schema version,
sequence number, identity) stays with its owner, which hands
:func:`read_prefix` a ``check``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional


class Damage(ValueError):
    """A line (or the record in it) is not valid; the message says why."""


def canonical(value: Any) -> str:
    """Sorted-key, separator-tight JSON: the hashed form of a value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_line(record: Dict[str, Any]) -> bytes:
    """One CRC line, CRC first so readers can check the rest."""
    body = canonical(record)
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{{"crc": {crc}, "rec": {body}}}\n'.encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """The record in one CRC line (newline optional), else :class:`Damage`."""
    try:
        outer = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
        raise Damage("unparseable line") from None
    if (
        not isinstance(outer, dict)
        or set(outer) != {"crc", "rec"}
        or not isinstance(outer["rec"], dict)
    ):
        raise Damage("malformed envelope")
    record = outer["rec"]
    if zlib.crc32(canonical(record).encode("utf-8")) != outer["crc"]:
        raise Damage("CRC mismatch")
    return record


@dataclass
class Prefix:
    """A CRC log's valid ``records`` and the byte offset where they
    ``end``; ``lines`` counts complete non-blank lines, ``damage`` says
    why line ``len(records)`` was refused, ``torn`` that the last line
    has no newline."""

    records: List[Any] = field(default_factory=list)
    end: int = 0
    lines: int = 0
    damage: Optional[str] = None
    torn: bool = False


def read_prefix(
    path: Path, check: Callable[[Dict[str, Any], int], Any]
) -> Prefix:
    """The longest valid prefix of a CRC log; never raises for damage.

    ``check(record, index)`` returns the owner's value for the record
    at that position among the non-blank lines, or raises
    :class:`Damage`. Blank lines are skipped; a torn final line is
    never decoded.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return Prefix()
    *complete, tail = raw.split(b"\n")
    prefix = Prefix(torn=tail != b"")
    offset = 0
    for line in complete:
        offset += len(line) + 1
        if not line:
            continue
        prefix.lines += 1
        if prefix.damage is not None:
            continue
        try:
            prefix.records.append(
                check(decode_line(line), len(prefix.records))
            )
        except Damage as exc:
            prefix.damage = str(exc)
        else:
            prefix.end = offset
    return prefix


def sync(handle: IO[bytes]) -> None:
    """Flush an open file and fsync it."""
    handle.flush()
    os.fsync(handle.fileno())


def append(path: Path, data: bytes) -> None:
    """Append ``data`` to a log and fsync it."""
    with open(path, "ab") as handle:
        handle.write(data)
        sync(handle)


def truncate(path: Path, end: int) -> None:
    """Cut a log back to ``end`` bytes (a prefix's end), fsynced."""
    path = Path(path)
    if not path.exists() or path.stat().st_size <= end:
        return
    with open(path, "r+b") as handle:
        handle.truncate(end)
        sync(handle)


def _sync_directory(directory: Path) -> None:
    """fsync a directory, making the entries in it durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: readers see the old or new file."""
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            sync(handle)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _sync_directory(path.parent)


def publish(staging: Path, files: Dict[str, bytes], final: Path) -> None:
    """Write ``files`` into ``staging``, then rename it to ``final``.

    Files already in ``staging`` must have been synced by their writer.
    The staging directory itself is fsynced before the rename, so the
    published directory cannot lose its entries on power loss.
    """
    for name, data in files.items():
        with open(staging / name, "wb") as handle:
            handle.write(data)
            sync(handle)
    _sync_directory(staging)
    os.replace(staging, final)
    _sync_directory(final.parent)
