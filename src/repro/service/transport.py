"""Shard transports: one wire contract, two carriers (pipe and TCP).

:class:`~repro.service.workers.WorkerPool` speaks a tuple-based
request/reply protocol (``("radius", ...)``, ``("insert", ...)``, ...).
This module abstracts *how* those tuples travel behind a
:class:`ShardTransport` interface so the pool's deadline / retry /
breaker machinery is carrier-agnostic — "the transport changes, the
policy does not":

* :class:`PipeTransport` — the original carrier: a duplex
  ``multiprocessing`` pipe to a locally spawned worker process.
  Framing, checksums and reconnection are all delegated to the OS pipe
  (a broken pipe *is* the crash signal).
* :class:`TcpTransport` — the same tuples pickled into length-prefixed,
  CRC32-checksummed frames over a TCP socket to a standalone shard
  server (:mod:`repro.service.shard_server`, ``repro.cli shard-serve``),
  so shards can live on other hosts.  Every socket wait is bounded by
  ``settimeout`` (the socket-level analogue of the bounded ``poll``
  the ``deadline-required`` lint rule enforces), and a failed checksum
  or truncated frame surfaces as :class:`FrameError` — never as a
  half-deserialised object.

Failure *classification* lives with the carrier because the same OS
error means different things on different wires: an ``EOFError`` from a
live worker process is a truncated payload (``"corrupt"``), while a
socket EOF is the peer closing the connection (``"disconnect"`` — the
endpoint is retried after reconnect-with-backoff rather than declared
dead).  The pool maps causes to recovery moves; transports only name
them.

The pool's exchange loop (``WorkerPool._exchange``; lock order and
release points in :mod:`repro.service.workers`) sends a fan-out's
requests from the calling thread, then waits for *all* the replies at
once: :meth:`ShardTransport.fileno` makes a transport its own waitable,
so one bounded ``multiprocessing.connection.wait`` takes pipe ends and
sockets alike, and :meth:`~ShardTransport.recv_within` reads each ready
reply under what is left of that endpoint's own deadline.

The server side of the TCP frame protocol is
:class:`ServerConnection`, which duck-types the subset of the
``multiprocessing.Connection`` surface the shard-serving loop uses
(``poll`` / ``recv`` / ``send`` / ``send_bytes`` / ``close``) so one
loop serves both carriers — plus ``send_corrupt`` as the injection
point for the ``corrupt_frame`` fault kind.
"""

from __future__ import annotations

import contextlib
import pickle
import select
import socket
import struct
import time
import zlib

from repro.exceptions import DeadlineExceededError

__all__ = [
    "FrameError",
    "ShardTransport",
    "PipeTransport",
    "TcpTransport",
    "ServerConnection",
    "encode_frame",
    "corrupt_frame",
]

#: frame header: CRC32 of the payload, then the payload length in bytes.
_HEADER = struct.Struct(">IQ")

#: refuse frames claiming more than this many payload bytes — a corrupt
#: or hostile length prefix must not drive a multi-gigabyte allocation.
_MAX_FRAME_BYTES = 1 << 33

#: server-side I/O bound: once ``poll`` reports a frame in flight, the
#: whole frame must arrive within this window or the peer is dropped
#: (protects the server from half-open clients parking a thread).
_SERVER_IO_DEADLINE = 30.0

#: socket read chunk size.
_CHUNK = 1 << 20


class FrameError(RuntimeError):
    """A TCP frame failed its checksum, length, or payload decode.

    Classified as ``"corrupt"`` by the pool: the connection delivered
    bytes, but not the bytes the peer framed — retry elsewhere.
    """


def encode_frame(message: object) -> bytes:
    """Pickle ``message`` into one checksummed length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def frame_bytes(payload: bytes) -> bytes:
    """Frame pre-pickled ``payload`` bytes (checksum over what's sent).

    This is the ``send_bytes`` path: the checksum matches the (possibly
    deliberately truncated) payload, so the receiver's CRC passes and
    the *unpickle* step fails — exactly how a ``corrupt`` pipe fault
    presents, kept equivalent on TCP.
    """
    return _HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def corrupt_frame(message: object) -> bytes:
    """A frame whose checksum deliberately contradicts its payload.

    The injection vector for :attr:`~repro.faults.FaultKind.CORRUPT_FRAME`:
    length and payload are intact, the CRC is bit-flipped, so the
    receiver rejects the frame at the checksum gate.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(zlib.crc32(payload) ^ 0xFFFFFFFF, len(payload)) + payload


def decode_frame(header: bytes, payload: bytes) -> object:
    """Verify and unpickle one received frame; :class:`FrameError` on damage."""
    crc, length = _HEADER.unpack(header)
    if len(payload) != length:
        raise FrameError(
            f"frame truncated: header promised {length} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameError("frame checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"frame payload failed to deserialise: {exc!r}") from exc


def _read_frame(sock: socket.socket, deadline: float, what: str) -> object:
    """Read and decode one frame from ``sock``, never blocking past ``deadline``.

    ``deadline`` is a ``time.monotonic()`` instant covering header and
    payload together; passing it raises
    :class:`~repro.exceptions.DeadlineExceededError`, a peer that closes
    mid-frame ``EOFError``, damage :class:`FrameError`.
    """

    def read_exact(n: int) -> bytes:
        chunks: list[bytes] = []
        while n > 0:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise DeadlineExceededError(f"{what} exceeded its deadline")
            sock.settimeout(budget)
            try:
                chunk = sock.recv(min(n, _CHUNK))
            except TimeoutError as exc:
                raise DeadlineExceededError(f"{what} exceeded its deadline") from exc
            if not chunk:
                raise EOFError(f"{what}: peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    header = read_exact(_HEADER.size)
    _, length = _HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the sanity bound")
    return decode_frame(header, read_exact(length))


class ShardTransport:
    """One endpoint's request/reply channel, as the pool sees it.

    Implementations provide blocking-but-bounded primitives; the pool
    owns deadlines, retries, breakers and replay.  ``classify_*``
    translate carrier-specific exceptions into the pool's failure
    vocabulary (``"crash"`` / ``"timeout"`` / ``"corrupt"`` /
    ``"disconnect"``); :class:`~repro.exceptions.DeadlineExceededError`
    is raised by :meth:`recv_within` itself and classified as
    ``"timeout"`` by the caller.
    """

    #: human-readable endpoint description for error messages.
    endpoint = "?"

    def send(self, message: object) -> None:
        raise NotImplementedError

    def recv_within(self, seconds: float, what: str) -> object:
        """Receive one reply, or raise ``DeadlineExceededError``."""
        raise NotImplementedError

    def fileno(self) -> int:
        """The descriptor that turns readable when a reply (or EOF) is in."""
        raise NotImplementedError

    def kill(self) -> None:
        """Tear the channel down hard (stale replies must never arrive)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Graceful close after a ``stop`` was sent (best-effort)."""
        self.kill()

    def classify_send_error(self, exc: BaseException) -> str:
        raise NotImplementedError

    def classify_recv_error(self, exc: BaseException) -> str:
        raise NotImplementedError


class PipeTransport(ShardTransport):
    """A locally spawned worker process behind a duplex pipe."""

    def __init__(self, process, conn, endpoint: str = "pipe") -> None:
        self.process = process
        self.conn = conn
        self.endpoint = endpoint

    def send(self, message: object) -> None:
        self.conn.send(message)

    def recv_within(self, seconds: float, what: str) -> object:
        if not self.conn.poll(seconds):
            raise DeadlineExceededError(
                f"{what} exceeded its {seconds:.3f}s deadline"
            )
        return self.conn.recv()

    def fileno(self) -> int:
        return self.conn.fileno()

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        with contextlib.suppress(OSError):
            self.conn.close()

    def shutdown(self) -> None:
        """Join after a clean ``stop``; escalate to terminate on a hang."""
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        with contextlib.suppress(OSError):
            self.conn.close()

    def classify_send_error(self, exc: BaseException) -> str:
        return "crash"

    def classify_recv_error(self, exc: BaseException) -> str:
        # EOF from a live process is the signature of a truncated
        # payload; EOF/OSError from a dead one is the crash itself.
        # A crashing worker closes its pipe end an instant before its
        # exit is observable, so grant a grace join before believing
        # "alive" — only a genuinely live (corrupt) worker pays it.
        if isinstance(exc, EOFError) and self.process is not None:
            self.process.join(timeout=0.2)
        alive = self.process is not None and self.process.is_alive()
        if isinstance(exc, EOFError) and alive:
            return "corrupt"
        if isinstance(exc, (EOFError, OSError)):
            return "crash"
        return "corrupt"


class TcpTransport(ShardTransport):
    """A remote shard server behind checksummed frames on a TCP socket."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        send_deadline: float = 30.0,
    ) -> None:
        self.endpoint = f"{host}:{port}"
        self._send_deadline = float(send_deadline)
        self._sock = socket.create_connection(
            (host, port), timeout=float(connect_timeout)
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, message: object) -> None:
        self._sock.settimeout(self._send_deadline)
        self._sock.sendall(encode_frame(message))

    def recv_within(self, seconds: float, what: str) -> object:
        return _read_frame(self._sock, time.monotonic() + float(seconds), what)

    def fileno(self) -> int:
        return self._sock.fileno()

    def kill(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()

    def classify_send_error(self, exc: BaseException) -> str:
        return "disconnect"

    def classify_recv_error(self, exc: BaseException) -> str:
        if isinstance(exc, FrameError):
            return "corrupt"
        if isinstance(exc, (EOFError, ConnectionError, OSError)):
            return "disconnect"
        return "corrupt"


class ServerConnection:
    """Server side of the frame protocol, pipe-``Connection``-shaped.

    Wraps one accepted socket so
    :func:`repro.service.shard_server.serve_connection` can drive pipes
    and sockets with identical code.  Every blocking wait is bounded:
    ``poll`` by its explicit timeout (a ``select`` under the hood) and
    the frame reads by :data:`_SERVER_IO_DEADLINE` ``settimeout`` calls,
    so a half-open client can never park a serving thread forever.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def poll(self, timeout: float = 0.0) -> bool:
        """Bounded readability check (the socket analogue of pipe poll)."""
        try:
            ready, _, _ = select.select([self._sock], [], [], float(timeout))
        except (OSError, ValueError):
            # A closed/invalid descriptor (select raises ValueError on a
            # fd of -1) reads as "ready": the recv that follows raises
            # and ends the session cleanly, preserving its op count.
            return True
        return bool(ready)

    def recv(self) -> object:
        """Read one frame; raises ``FrameError``/``EOFError`` on damage."""
        deadline = time.monotonic() + _SERVER_IO_DEADLINE
        try:
            return _read_frame(self._sock, deadline, "request")
        except DeadlineExceededError as exc:
            raise EOFError("peer stalled mid-frame") from exc

    def send(self, message: object) -> None:
        self._sock.settimeout(_SERVER_IO_DEADLINE)
        self._sock.sendall(encode_frame(message))

    def send_bytes(self, payload: bytes) -> None:
        """Frame raw payload bytes (the truncated-pickle corrupt path)."""
        self._sock.settimeout(_SERVER_IO_DEADLINE)
        self._sock.sendall(frame_bytes(payload))

    def send_corrupt(self, message: object) -> None:
        """Ship a frame that fails the receiver's checksum gate."""
        self._sock.settimeout(_SERVER_IO_DEADLINE)
        self._sock.sendall(corrupt_frame(message))

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()
