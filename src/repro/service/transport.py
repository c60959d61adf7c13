"""Shard transports: one wire frame, two carriers (pipe and TCP), and
an inline endpoint for shards served in-process.

:class:`~repro.service.workers.WorkerPool` speaks a tuple-based
request/reply protocol (``("radius", ...)``, ``("insert", ...)``, ...).
This module defines how those messages travel — one versioned frame,
shared by both carriers — and abstracts the carriers behind a
:class:`ShardTransport` interface so the pool's deadline / retry /
breaker machinery is carrier-agnostic: "the transport changes, the
policy does not".

The frame
---------
Nothing on the wire is pickled: a peer's bytes are parsed, never
executed.  A frame is three parts:

* a fixed 24-byte little-endian **prefix** (:data:`_PREFIX`): magic,
  :data:`WIRE_VERSION`, flags, CRC32, header length, buffer length;
* a JSON **header** holding the message as a tagged tree — tuples are
  ``{"t": [...]}``, dicts ``{"d": [[key, value], ...]}`` (so shard-id
  keys stay ints), arrays ``{"a": [dtype, shape, offset]}`` descriptors
  with the dtype from a little-endian whitelist (:data:`_DTYPES`);
* the raw array **buffers**, each 8-byte aligned, which the receiver
  maps with ``np.frombuffer`` — no copy, no per-element decode.

A decoder checks every descriptor's ``prod(shape) * itemsize`` against
the bytes it was handed before mapping anything, so damaged or hostile
frames raise :class:`FrameError` without allocating.  The CRC32 is set
on TCP only (:class:`TcpTransport`, :class:`ServerConnection` by
default), where bytes cross a network; a pipe frame leaves it out,
because checksumming a megabyte reply costs more than the local copy
it protects.

The carriers
------------
* :class:`PipeTransport` — a locally spawned worker process behind one
  end of a ``socket.socketpair()``.  A broken pipe *is* the crash signal.
* :class:`TcpTransport` — a standalone shard server
  (:mod:`repro.service.shard_server`, ``repro.cli shard-serve``) behind
  a TCP socket, so shards can live on other hosts.

:class:`InlineTransport` carries no frames at all: it holds the shards'
:class:`~repro.service.shard_server.ShardState` in this process and
answers a request on the caller's thread (``execution="threads"``).

Both read a reply with one deadline over the *whole* frame (the
socket-level analogue of the bounded ``poll`` the ``deadline-required``
lint rule enforces), so a peer that stalls mid-frame surfaces as
:class:`~repro.exceptions.DeadlineExceededError`, and a failed checksum
or malformed frame as :class:`FrameError` — never as a half-decoded
object.

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

The serving side of both carriers is :class:`ServerConnection`
(``poll`` / ``recv`` / ``send`` / ``close``), so one loop serves both —
plus ``send_raw``, the injection point for the damaged frames of the
``corrupt`` and ``corrupt_frame`` fault kinds.
"""

from __future__ import annotations

import contextlib
import json
import json.encoder
import math
import select
import socket
import struct
import threading
import time
import weakref
import zlib

import numpy as np

from repro.exceptions import DeadlineExceededError

__all__ = [
    "WIRE_VERSION",
    "FrameError",
    "ShardTransport",
    "PipeTransport",
    "TcpTransport",
    "InlineTransport",
    "ServerConnection",
    "encode_frame",
    "decode_frame",
    "corrupt_frame",
    "truncated_frame",
]

#: bumped whenever the frame layout or the message shapes change; the
#: prefix carries it and the ``("ready", sizes, version)`` ack repeats it.
WIRE_VERSION = 2

_MAGIC = b"HLSW"

#: magic, wire version, flags, CRC32 (0 when unset), header bytes,
#: buffer bytes.
_PREFIX = struct.Struct("<4sHHIIQ")

#: flags bit: the CRC32 field covers header and buffers.
_CHECKSUMMED = 0x1

#: buffer alignment inside a frame (and the header's padded length).
_ALIGN = 8

#: refuse frames claiming more than this many bytes — a corrupt or
#: hostile length prefix must not drive a multi-gigabyte allocation.
_MAX_HEADER_BYTES = 1 << 24
_MAX_FRAME_BYTES = 1 << 33

#: the dtypes a frame may carry, by their little-endian ``dtype.str``.
_DTYPES = {
    np.dtype(code).str: np.dtype(code)
    for code in ("?", "i1", "u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f4", "<f8")
}

#: the wire code of each whitelisted dtype (native little-endian arrays
#: look theirs up instead of building ``dtype.str``).
_WIRE_CODES = {dtype: code for code, dtype in _DTYPES.items()}

#: at most this many array dimensions (numpy's own floor).
_MAX_NDIM = 32

#: server-side I/O bound: once ``poll`` reports a frame in flight, the
#: whole frame must arrive within this window or the peer is dropped
#: (protects the server from half-open clients parking a thread).
_SERVER_IO_DEADLINE = 30.0

_PAD = bytes(_ALIGN)

#: more parts than this go out as one joined buffer (stays under IOV_MAX).
_MAX_IOV = 512


class FrameError(RuntimeError):
    """A frame failed its checksum, length, version or payload decode.

    Classified as ``"corrupt"`` by the pool: the connection delivered
    bytes, but not the bytes the peer framed — retry elsewhere.
    """


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _frame_parts(message: object, checksum: bool) -> list:
    """``[prefix, header, *buffers]`` of one frame, the arrays uncopied."""
    buffers: list = []
    end = 0

    def array(value: np.ndarray) -> dict:
        nonlocal end
        shape = list(value.shape)
        code = _WIRE_CODES.get(value.dtype)
        if code is None:
            wire = value.dtype.newbyteorder("<")
            if wire.str not in _DTYPES:
                raise FrameError(f"cannot frame a {value.dtype} array")
            value, code = np.ascontiguousarray(value, dtype=wire), wire.str
        if not value.size:
            return {"a": [code, shape, 0]}
        try:
            data = memoryview(value).cast("B")
        except TypeError:  # not C-contiguous
            data = memoryview(np.ascontiguousarray(value)).cast("B")
        offset = -(-end // _ALIGN) * _ALIGN
        if offset > end:
            buffers.append(_PAD[: offset - end])
        buffers.append(data)
        end = offset + data.nbytes
        return {"a": [code, shape, offset]}

    def tree(value):
        if value is None or isinstance(value, (str, int, float)):  # bool is an int
            return value
        if isinstance(value, np.ndarray):
            return array(value)
        if isinstance(value, tuple):
            return {"t": [tree(item) for item in value]}
        if isinstance(value, dict):
            return {"d": [[tree(k), tree(v)] for k, v in value.items()]}
        if isinstance(value, list):
            return [tree(item) for item in value]
        if isinstance(value, np.generic):
            return tree(value.item())
        raise FrameError(f"cannot frame a {type(value).__name__}")

    doc = tree(message)
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        # A number is the one JSON value whose prefixes also parse; box
        # it so a truncated header can never decode as a smaller number.
        doc = {"n": doc}
    header = _json_encode(doc).encode()
    if end:
        header += b" " * (-len(header) % _ALIGN)
    crc = 0
    if checksum:
        crc = zlib.crc32(header)
        for buffer in buffers:
            crc = zlib.crc32(buffer, crc)
    flags = _CHECKSUMMED if checksum else 0
    prefix = _PREFIX.pack(_MAGIC, WIRE_VERSION, flags, crc, len(header), end)
    return [prefix, header, *buffers]


def encode_frame(message: object, checksum: bool = False) -> bytes:
    """``message`` as one frame; ``checksum`` sets the CRC32 (TCP does)."""
    return b"".join(_frame_parts(message, checksum))


def corrupt_frame(message: object) -> bytes:
    """A checksummed frame whose CRC deliberately contradicts its body.

    The injection vector for :attr:`~repro.faults.FaultKind.CORRUPT_FRAME`:
    lengths and body are intact, the CRC is bit-flipped, so the receiver
    rejects the frame at the checksum gate.
    """
    parts = _frame_parts(message, checksum=True)
    magic, version, flags, crc, header_len, buffer_len = _PREFIX.unpack(parts[0])
    parts[0] = _PREFIX.pack(magic, version, flags, crc ^ 0xFFFFFFFF, header_len, buffer_len)
    return b"".join(parts)


def truncated_frame(message: object, checksum: bool = False) -> bytes:
    """A frame whose body is cut to a third under a prefix that agrees.

    The injection vector for :attr:`~repro.faults.FaultKind.CORRUPT`:
    magic, version, lengths and (with ``checksum``) the CRC all describe
    the bytes actually sent, so the frame passes every gate of the
    prefix and fails in the decode step — the header no longer parses,
    or its array descriptors overrun the buffers that are left.
    """
    parts = _frame_parts(message, checksum=False)
    header = parts[1]
    body = b"".join(parts[1:])
    body = body[: max(1, len(body) // 3)]
    header_len = min(len(header), len(body))
    crc = zlib.crc32(body) if checksum else 0
    flags = _CHECKSUMMED if checksum else 0
    prefix = _PREFIX.pack(
        _MAGIC, WIRE_VERSION, flags, crc, header_len, len(body) - header_len
    )
    return prefix + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _check_prefix(prefix) -> tuple[int, int, int | None]:
    """``(header bytes, buffer bytes, crc or None)`` of a valid prefix."""
    magic, version, flags, crc, header_len, buffer_len = _PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise FrameError(
            f"peer speaks wire version {version}; this end speaks {WIRE_VERSION}"
        )
    if flags & ~_CHECKSUMMED:
        raise FrameError(f"unknown frame flags {flags:#x}")
    if header_len > _MAX_HEADER_BYTES or header_len + buffer_len > _MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {header_len} + {buffer_len} bytes exceeds the sanity bound"
        )
    return header_len, buffer_len, (crc if flags & _CHECKSUMMED else None)


#: per-thread view of the buffers of the frame being decoded, and the
#: furthest end offset its arrays have mapped so far (the JSON decoder's
#: object hook maps the arrays, and one decoder serves every thread).
_decoding = threading.local()


def decode_frame(head, body, *, require_checksum: bool = False) -> object:
    """Verify and decode one received frame; :class:`FrameError` on damage.

    ``head`` is the fixed prefix (``len(encode_frame(None)) - 4`` bytes:
    the header of ``None`` is the 4-byte ``null``) and ``body`` the rest,
    which decodes with no copy — the arrays are views of ``body``.
    ``require_checksum`` refuses frames without a CRC32, as a TCP reader
    must.
    """
    if len(head) != _PREFIX.size:
        raise FrameError(
            f"frame truncated: a {len(head)}-byte prefix, not {_PREFIX.size}"
        )
    header_len, buffer_len, crc = _check_prefix(head)
    if len(body) != header_len + buffer_len:
        raise FrameError(
            f"frame truncated: prefix promised {header_len + buffer_len} "
            f"bytes, got {len(body)}"
        )
    if crc is not None:
        if zlib.crc32(body) != crc:
            raise FrameError("frame checksum mismatch")
    elif require_checksum:
        raise FrameError("frame carries no checksum")
    view = memoryview(body)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    state = _decoding
    state.buffers = view[header_len:]
    state.end = 0
    try:
        message = _json_decode(str(view[:header_len], "utf-8"))
    except FrameError:
        raise
    except (ValueError, TypeError, RecursionError, OverflowError) as exc:
        raise FrameError(f"frame header failed to decode: {exc!r}") from exc
    finally:
        state.buffers = None
    if state.end != buffer_len:
        raise FrameError(
            f"frame carries {buffer_len} buffer bytes but its arrays end at {state.end}"
        )
    return message


def _map_array(desc) -> np.ndarray:
    """One ``{"a": [dtype, shape, offset]}`` descriptor as a buffer view."""
    if type(desc) is not list or len(desc) != 3:
        raise FrameError(f"malformed array descriptor {desc!r}")
    code, shape, offset = desc
    dtype = _DTYPES.get(code) if type(code) is str else None
    if dtype is None:
        raise FrameError(f"dtype {code!r} is not on the wire whitelist")
    if type(shape) is not list or len(shape) > _MAX_NDIM:
        raise FrameError(f"malformed array shape {shape!r}")
    count = 1
    for dim in shape:
        if type(dim) is not int or dim < 0:
            raise FrameError(f"malformed array shape {shape!r}")
        count *= dim
    if type(offset) is not int or offset < 0 or offset % _ALIGN:
        raise FrameError(f"malformed array offset {offset!r}")
    state = _decoding
    end = offset + count * dtype.itemsize
    if end > len(state.buffers):
        raise FrameError(
            f"array of {count * dtype.itemsize} bytes at offset {offset} "
            f"overruns the frame's {len(state.buffers)} buffer bytes"
        )
    if not count:
        return np.empty(shape, dtype=dtype)
    state.end = max(state.end, end)
    return np.ndarray(shape, dtype, state.buffers, offset)


def _tagged(obj: dict) -> object:
    """Undo the header's tags: tuples, int-keyed dicts, arrays, numbers."""
    if len(obj) != 1:
        raise FrameError(f"header object with {len(obj)} keys is no tag")
    ((tag, value),) = obj.items()
    if tag == "a":
        return _map_array(value)
    if tag == "t" and type(value) is list:
        return tuple(value)
    if tag == "d" and type(value) is list:
        return dict(value)
    if tag == "n" and type(value) in (int, float):
        return value
    raise FrameError(f"malformed header tag {tag!r}")


#: ``JSONEncoder.encode`` builds a fresh C encoder per call, which costs
#: as much as encoding a one-row request; a tagged tree has no cycles, so
#: one encoder without circular-reference markers serves every frame.
_c_encoder = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ":", ",", False, False, True
)


def _json_encode(doc: object) -> str:
    """Compact JSON text of a tagged tree."""
    return "".join(_c_encoder(doc, 0))


_json_decode = json.JSONDecoder(object_hook=_tagged).decode


# ----------------------------------------------------------------------
# Socket I/O (both carriers)
# ----------------------------------------------------------------------
def _wait_for(sock: socket.socket, event: int, deadline: float) -> bool:
    """Whether ``sock`` turns ready for ``event`` before ``deadline``."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        return False
    poller = select.poll()
    poller.register(sock, event)
    return bool(poller.poll(math.ceil(budget * 1000)))


def _recv_exact_into(sock: socket.socket, view: memoryview, deadline: float, what: str) -> None:
    """Fill ``view`` from ``sock``, never blocking past ``deadline``.

    The socket is non-blocking, so bytes already queued cost one
    ``recv_into`` call and only a short read waits — in one bounded
    ``poll`` per wait, not a ``poll`` before every read.
    """
    if sock.gettimeout() != 0.0:
        sock.settimeout(0.0)
    got = 0
    while got < len(view):
        try:
            n = sock.recv_into(view[got:])
        except BlockingIOError:
            if not _wait_for(sock, select.POLLIN, deadline):
                raise DeadlineExceededError(f"{what} exceeded its deadline") from None
            continue
        if not n:
            raise EOFError(f"{what}: peer closed the connection")
        got += n


def _read_frame(sock: socket.socket, deadline: float, what: str, checksum: bool) -> object:
    """Read and decode one frame from ``sock``, never blocking past ``deadline``.

    ``deadline`` is a ``time.monotonic()`` instant covering the whole
    frame; passing it raises
    :class:`~repro.exceptions.DeadlineExceededError`, a peer that closes
    mid-frame ``EOFError``, damage :class:`FrameError`.  The prefix is
    validated before the body is allocated, and the body lands in one
    uninitialised buffer the decoded arrays then view.
    """
    prefix = bytearray(_PREFIX.size)
    _recv_exact_into(sock, memoryview(prefix), deadline, what)
    header_len, buffer_len, _ = _check_prefix(prefix)
    body = np.empty(header_len + buffer_len, dtype=np.uint8)
    _recv_exact_into(sock, memoryview(body), deadline, what)
    return decode_frame(prefix, body, require_checksum=checksum)


def _send_parts(sock: socket.socket, parts: list, seconds: float) -> None:
    """Send a frame's parts, gathered into as few writes as the socket takes."""
    deadline = time.monotonic() + seconds
    views = [memoryview(part) for part in parts if len(part)]
    if len(views) > _MAX_IOV:
        views = [memoryview(b"".join(views))]
    if sock.gettimeout() != 0.0:
        sock.settimeout(0.0)
    while views:
        try:
            sent = sock.sendmsg(views)
        except BlockingIOError:
            if not _wait_for(sock, select.POLLOUT, deadline):
                raise TimeoutError("frame send exceeded its deadline") from None
            continue
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


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
        """Receive one whole reply, or raise ``DeadlineExceededError``."""
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


class _SocketTransport(ShardTransport):
    """Frames over one connected stream socket (both carriers)."""

    #: whether frames carry (and replies must carry) a CRC32.
    checksum = False

    def __init__(self, sock: socket.socket, send_deadline: float) -> None:
        self._sock = sock
        self._send_deadline = float(send_deadline)

    def send(self, message: object) -> None:
        _send_parts(self._sock, _frame_parts(message, self.checksum), self._send_deadline)

    def recv_within(self, seconds: float, what: str) -> object:
        return _read_frame(self._sock, time.monotonic() + float(seconds), what, self.checksum)

    def fileno(self) -> int:
        return self._sock.fileno()

    def _close_socket(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()


class PipeTransport(_SocketTransport):
    """A locally spawned worker process behind one end of a socketpair."""

    def __init__(self, process, sock: socket.socket, endpoint: str = "pipe",
                 send_deadline: float = 30.0) -> None:
        super().__init__(sock, send_deadline)
        self.process = process
        self.endpoint = endpoint

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._close_socket()

    def shutdown(self) -> None:
        """Join after a clean ``stop``; escalate to terminate on a hang."""
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        self._close_socket()

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


class TcpTransport(_SocketTransport):
    """A remote shard server behind checksummed frames on a TCP socket."""

    checksum = True

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        send_deadline: float = 30.0,
    ) -> None:
        sock = socket.create_connection((host, port), timeout=float(connect_timeout))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().__init__(sock, send_deadline)
        self.endpoint = f"{host}:{port}"

    def kill(self) -> None:
        self._close_socket()

    def classify_send_error(self, exc: BaseException) -> str:
        return "disconnect"

    def classify_recv_error(self, exc: BaseException) -> str:
        if isinstance(exc, FrameError):
            return "corrupt"
        if isinstance(exc, (EOFError, ConnectionError, OSError)):
            return "disconnect"
        return "corrupt"


def _close_sockets(*socks: socket.socket) -> None:
    for sock in socks:
        with contextlib.suppress(OSError):
            sock.close()


class InlineTransport(ShardTransport):
    """In-process shards: a request is answered on the caller's thread.

    ``state`` is the slot's :class:`~repro.service.shard_server.ShardState`
    (opened by ``open_shard_state``, as a worker opens it).  :meth:`send`
    runs ``state.handle(message)`` at once and keeps the reply, with no
    frame, codec or thread on the way, then writes one byte into a
    ``socketpair`` so the pool's ``multiprocessing.connection.wait``
    sees the reply as ready; :meth:`recv_within` drains that byte
    (bounded, like every socket read here) and hands the reply over.
    The ready ack is queued at construction, so the pool's startup
    handshake runs unchanged.  The socketpair is this object's own
    wake-up device, so it is closed with it even if the pool never is.
    """

    endpoint = "inline"

    def __init__(self, state) -> None:
        self.state = state
        self._reader, self._writer = socket.socketpair()
        self._close = weakref.finalize(self, _close_sockets, self._reader, self._writer)
        self._reply: object = None
        self._post(("ready", state.sizes(), WIRE_VERSION))

    def _post(self, reply: object) -> None:
        self._reply = reply
        self._writer.send(b"\0")

    def send(self, message: object) -> None:
        if message[0] != "stop":  # ``stop`` ends a peer's loop; none runs here
            self._post(self.state.handle(message))

    def recv_within(self, seconds: float, what: str) -> object:
        ready = memoryview(bytearray(1))
        _recv_exact_into(self._reader, ready, time.monotonic() + float(seconds), what)
        reply, self._reply = self._reply, None
        return reply

    def fileno(self) -> int:
        return self._reader.fileno()

    def kill(self) -> None:
        self._close()

    def shutdown(self) -> None:
        """Close the shards' engines (their background re-freezes land
        first), then this transport."""
        for engine in self.state.engines.values():
            engine.close()
        self.kill()

    def classify_send_error(self, exc: BaseException) -> str:
        return "crash"

    def classify_recv_error(self, exc: BaseException) -> str:
        return "crash"


class ServerConnection:
    """The serving side of either carrier: one socket speaking frames.

    :func:`repro.service.shard_server.serve_connection` drives pipe
    workers and TCP sessions through this one class; ``checksum`` is on
    for TCP and off for the local socketpair.  Every blocking wait is
    bounded: ``poll`` by its explicit timeout (a ``select`` under the
    hood) and the frame reads and writes by :data:`_SERVER_IO_DEADLINE`,
    so a half-open client can never park a serving thread forever.
    """

    def __init__(self, sock: socket.socket, checksum: bool = True) -> None:
        self._sock = sock
        self.checksum = checksum

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
            return _read_frame(self._sock, deadline, "request", self.checksum)
        except DeadlineExceededError as exc:
            raise EOFError("peer stalled mid-frame") from exc

    def send(self, message: object) -> None:
        _send_parts(self._sock, _frame_parts(message, self.checksum), _SERVER_IO_DEADLINE)

    def send_raw(self, frame: bytes) -> None:
        """Ship pre-built frame bytes (the damaged-frame fault paths)."""
        _send_parts(self._sock, [frame], _SERVER_IO_DEADLINE)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()
