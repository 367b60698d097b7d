"""The append-only write-ahead log.

Every frame on disk is ``u32 length + u32 CRC-32 + payload``; the payload is
one logical record (kind byte + body):

======== =========== ====================================================
kind     name        body
======== =========== ====================================================
1        BEGIN       u64 transaction id
2        COMMIT      u64 transaction id
3        INSERT      table name + encoded row (:mod:`.record`)
4        DELETE      table name + u32 count + count * u32 row positions
5        UPDATE      table name + u32 count + count * (u32 pos, row)
6        (reserved)  retired TRUNCATE; never reused
7        DDL         u32 length + JSON payload (create/drop table/index)
8        CHECKPOINT  u64 checkpoint id
======== =========== ====================================================

Durability protocol: records accumulate in an in-memory pending buffer and
reach the file only at :meth:`WalWriter.sync` - the engine appends
``BEGIN + ops + COMMIT`` and syncs once per transaction, so a crash before
the sync loses the whole transaction (uncommitted data vanishes) and a
crash during it leaves a torn tail that :func:`scan_wal` detects via CRC
and length checks and recovery truncates at the first bad frame.

Crash emulation hooks in via :class:`repro.faults.FaultInjector`
(re-exported here for backwards compatibility): the writer can die
mid-write after N bytes (torn tail), die before anything of the pending
commit reaches the file (power lost pre-write), or fire the registered
``wal.append`` / ``wal.sync`` chaos points.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SqlStorageError
from repro.faults import FaultInjector  # noqa: F401 - canonical home is repro.faults
from repro.sqldb.storage.record import decode_row, encode_row

REC_BEGIN = 1
REC_COMMIT = 2
REC_INSERT = 3
REC_DELETE = 4
REC_UPDATE = 5
# Kind 6 is reserved (a retired TRUNCATE record): never reuse it.
REC_DDL = 7
REC_CHECKPOINT = 8

_FRAME_HEADER = struct.Struct("<II")

PathLike = Union[str, Path]


# --------------------------------------------------------------------------- #
# Record payload builders / parser
# --------------------------------------------------------------------------- #
def _encode_name(name: str) -> bytes:
    data = name.encode("utf-8")
    return struct.pack("<H", len(data)) + data


def _decode_name(data: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    return data[offset : offset + length].decode("utf-8"), offset + length


def begin_record(txn_id: int) -> bytes:
    return struct.pack("<BQ", REC_BEGIN, txn_id)


def commit_record(txn_id: int) -> bytes:
    return struct.pack("<BQ", REC_COMMIT, txn_id)


def checkpoint_record(checkpoint_id: int) -> bytes:
    return struct.pack("<BQ", REC_CHECKPOINT, checkpoint_id)


def insert_record(table: str, row: Sequence[Any]) -> bytes:
    return bytes([REC_INSERT]) + _encode_name(table) + encode_row(row)


def delete_record(table: str, positions: Sequence[int]) -> bytes:
    body = struct.pack("<I", len(positions)) + struct.pack(
        f"<{len(positions)}I", *positions
    )
    return bytes([REC_DELETE]) + _encode_name(table) + body


def update_record(table: str, pairs: Sequence[Tuple[int, Sequence[Any]]]) -> bytes:
    out = bytearray([REC_UPDATE])
    out += _encode_name(table)
    out += struct.pack("<I", len(pairs))
    for position, row in pairs:
        encoded = encode_row(row)
        out += struct.pack("<II", position, len(encoded))
        out += encoded
    return bytes(out)


def ddl_record(payload: Dict[str, Any]) -> bytes:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return bytes([REC_DDL]) + struct.pack("<I", len(data)) + data


def parse_record(data: bytes) -> Dict[str, Any]:
    """Parse one WAL record payload into a dict keyed by ``"kind"``."""
    try:
        kind = data[0]
        if kind in (REC_BEGIN, REC_COMMIT, REC_CHECKPOINT):
            (value,) = struct.unpack_from("<Q", data, 1)
            key = {REC_CHECKPOINT: "checkpoint_id"}.get(kind, "txn_id")
            return {"kind": kind, key: value}
        if kind == REC_INSERT:
            table, offset = _decode_name(data, 1)
            return {"kind": kind, "table": table, "row": decode_row(data[offset:])}
        if kind == REC_DELETE:
            table, offset = _decode_name(data, 1)
            (count,) = struct.unpack_from("<I", data, offset)
            positions = list(struct.unpack_from(f"<{count}I", data, offset + 4))
            return {"kind": kind, "table": table, "positions": positions}
        if kind == REC_UPDATE:
            table, offset = _decode_name(data, 1)
            (count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            pairs = []
            for _ in range(count):
                position, length = struct.unpack_from("<II", data, offset)
                offset += 8
                pairs.append((position, decode_row(data[offset : offset + length])))
                offset += length
            return {"kind": kind, "table": table, "pairs": pairs}
        if kind == REC_DDL:
            (length,) = struct.unpack_from("<I", data, 1)
            payload = json.loads(data[5 : 5 + length].decode("utf-8"))
            return {"kind": kind, "ddl": payload}
    except (IndexError, struct.error, ValueError, UnicodeDecodeError) as exc:
        raise SqlStorageError(f"corrupt WAL record: {exc}") from exc
    raise SqlStorageError(f"unknown WAL record kind {kind}")


# --------------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------------- #
class WalWriter:
    """Appends framed records to the log, syncing once per transaction."""

    def __init__(self, path: PathLike, fsync: bool = True, fault: Optional[FaultInjector] = None):
        self.path = Path(path)
        self.fsync_enabled = fsync
        self.fault = fault
        self._pending = bytearray()
        self._file = open(self.path, "ab")

    @staticmethod
    def frame(payload: bytes) -> bytes:
        return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def append(self, payload: bytes) -> None:
        """Buffer one record; nothing reaches the file until :meth:`sync`."""
        if self.fault is not None:
            self.fault.check_point("wal.append")
        self._pending += self.frame(payload)

    def sync(self) -> None:
        """Write the pending buffer to disk and fsync (the commit point)."""
        if not self._pending:
            return
        data = bytes(self._pending)
        # The pending buffer is dropped up front: after a crash (real or
        # injected) only the bytes that reached the file survive.
        self._pending.clear()
        fault = self.fault
        if fault is not None and fault.armed:
            if fault.fail_before_sync:
                raise fault.trip()
            allowed = fault.write_budget(len(data))
            if allowed < len(data):
                self._file.write(data[:allowed])
                self._file.flush()
                raise fault.trip()
        if fault is not None:
            fault.check_point("wal.sync")
        self._file.write(data)
        self._file.flush()
        if self.fsync_enabled:
            os.fsync(self._file.fileno())

    def discard_pending(self) -> None:
        self._pending.clear()

    def reset(self, first_payload: bytes) -> None:
        """Atomically replace the log with a single record (checkpoint).

        The replacement is written to a sibling temp file, fsynced, and
        renamed over the log, so a crash leaves either the old or the new
        log - never a mix.
        """
        self.sync()
        tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp_path, "wb") as tmp:
            tmp.write(self.frame(first_payload))
            tmp.flush()
            if self.fsync_enabled:
                os.fsync(tmp.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        _fsync_directory(self.path.parent)
        self._file = open(self.path, "ab")

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def abandon(self) -> None:
        """Close without syncing - the in-process equivalent of ``kill -9``."""
        self._pending.clear()
        if not self._file.closed:
            self._file.close()


def _fsync_directory(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


# --------------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------------- #
def scan_wal(path: PathLike) -> Tuple[List[Tuple[int, bytes]], int, int]:
    """Scan the log, stopping at the first torn or corrupt frame.

    Returns ``(entries, valid_end, file_size)`` where ``entries`` is a list
    of ``(frame_offset, payload)`` and ``valid_end`` is the offset just past
    the last intact frame - anything beyond it is a torn tail the recovery
    path truncates.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, 0
    data = path.read_bytes()
    entries: List[Tuple[int, bytes]] = []
    offset = 0
    size = len(data)
    while offset + _FRAME_HEADER.size <= size:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if length == 0 or end > size:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        entries.append((offset, payload))
        offset = end
    return entries, offset, size


def truncate_wal(path: PathLike, offset: int) -> None:
    """Chop the log at ``offset`` (drops a torn or uncommitted tail)."""
    with open(path, "r+b") as handle:
        handle.truncate(offset)
        handle.flush()
        os.fsync(handle.fileno())
