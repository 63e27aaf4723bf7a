"""The one frame format of the runtime's two buses, shm and tcp.

A frame is what one worker posts to one exchange: an array count, a record
table (:data:`RECORD` per array), the arrays' bytes and their checksum;
how it travels — a mailbox slot or a socket — is each transport's own.

The checksum is a **word sum**: each array's bytes added up as
little-endian ``uint64`` words modulo 2**64 (``np.add.reduce``: on 8 MiB
≈19 GB/s where CRC32 ran at ≈2.1 GB/s) plus its up-to-7 tail bytes.  A
flipped byte (the ``corrupt`` fault), a stale or half-written frame and a
random corruption (probability ``1 - 2**-64``) change it; words swapped in
place, or one bit set in one word and cleared in another, do not.

The frame check of a peer's frame names the peer (``worker_id``) and the
exchange (``last_seq``): a record table no worker posts, or another array
count than ours, is :class:`~repro.errors.RendezvousDesync`; another word
sum than the posted one is :class:`~repro.errors.PayloadCorruption`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import PayloadCorruption, RendezvousDesync
from repro.obs import trace as _trace
from repro.obs.metrics import registry as _metrics

__all__ = ["MAX_ARRAYS", "MAX_NDIM", "RECORD", "check", "desync", "read_table", "word_sum", "write_table"]

#: arrays per frame (a shm slot's record table holds this many), dims per array
MAX_ARRAYS = 8
MAX_NDIM = 6
#: one array's record: dtype string, ndim, shape padded with zeros
RECORD = struct.Struct(f"<16sQ{MAX_NDIM}Q")


def write_table(arrays: list[np.ndarray], buf, offset: int = 0) -> None:
    """Pack the record table of ``arrays`` into ``buf`` at ``offset``; an
    array that cannot cross a bus is a ``ValueError``."""
    if len(arrays) > MAX_ARRAYS:
        raise ValueError(f"at most {MAX_ARRAYS} arrays per frame")
    for i, a in enumerate(arrays):
        if a.ndim > MAX_NDIM or a.dtype.hasobject:
            raise ValueError(f"an array crossing a bus has at most {MAX_NDIM} dims and no objects")
        shape = a.shape + (0,) * (MAX_NDIM - a.ndim)
        RECORD.pack_into(buf, offset + i * RECORD.size, a.dtype.str.encode(), a.ndim, *shape)


def desync(peer: int, seq: int, what: str) -> RendezvousDesync:
    """The error of a peer out of step at message ``seq``."""
    return RendezvousDesync(
        f"rendezvous out of sync at message {seq}: worker {peer} {what} — the "
        "SPMD collective order diverged between workers",
        worker_id=peer,
        last_seq=seq,
    )


def read_table(table, offset: int, count: int, peer: int, seq: int) -> list[tuple]:
    """The ``(dtype, shape)`` of each of ``count`` records of peer ``peer``'s
    frame ``seq``, read from ``table`` at ``offset``."""
    if count > MAX_ARRAYS:
        raise desync(peer, seq, f"posted {count} arrays (at most {MAX_ARRAYS})")
    records = []
    for i in range(count):
        raw, ndim, *shape = RECORD.unpack_from(table, offset + i * RECORD.size)
        try:
            dtype = np.dtype(raw.rstrip(b"\0").decode())
        except (TypeError, ValueError):
            dtype = np.dtype(object)
        if dtype.hasobject or ndim > MAX_NDIM:
            raise desync(peer, seq, f"posted array {i} as {raw!r} with {ndim} dims")
        records.append((dtype, tuple(shape[:ndim])))
    return records


def word_sum(buf, offset: int, nbytes: int) -> int:
    """The word sum of ``buf``'s bytes ``[offset, offset + nbytes)``, not yet
    reduced: a frame's checksum is the sum of its arrays' modulo 2**64."""
    words = np.frombuffer(buf, dtype="<u8", count=nbytes >> 3, offset=offset)
    tail = np.frombuffer(buf, dtype=np.uint8, count=nbytes & 7, offset=offset + (nbytes & ~7))
    return int(np.add.reduce(words)) + int.from_bytes(tail.tobytes(), "little")


def check(peer: int, seq: int, transport: str, count: int, expected: int, posted: int, read: int):
    """Check peer ``peer``'s frame ``seq`` once its bytes are in: its array
    count against ours, the sum ``read`` of its bytes against ``posted``."""
    if count != expected:
        raise desync(peer, seq, f"posted {count} arrays, expected {expected}")
    read %= 2**64
    if read != posted:
        if _trace.enabled:
            _trace.instant("crc_failure", worker=peer, seq=seq, transport=transport)
            _metrics.count("crc_failures")
        raise PayloadCorruption(
            f"{transport} frame from worker {peer} failed its checksum (message "
            f"{seq}: posted word sum {posted:#018x}, read {read:#018x}) — the "
            "payload bytes were corrupted in flight",
            worker_id=peer,
            last_seq=seq,
        )
    if _trace.enabled:
        _metrics.count("frames_received")
