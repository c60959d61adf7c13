"""Worker-side fault application: the opt-in hook the main loop calls.

These helpers live here — not in :mod:`repro.service.shard_server` — so
the serving loop stays two ``if fault is not None`` branches and the
production path (no plan installed) never touches this module's logic.
``swallow_request`` runs before the op executes (crash / hang / slow
pacing); ``send_reply`` replaces the plain ``conn.send`` on the reply
side (drop / corrupt payload / and the transport-level kinds:
disconnect, slow link, corrupt frame).  Damaged replies are real frames
(:func:`~repro.service.transport.truncated_frame`,
:func:`~repro.service.transport.corrupt_frame`), so a drill exercises
exactly the decoder a damaged wire would.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any

from repro.faults.plan import FaultKind, FaultSpec

__all__ = ["swallow_request", "send_reply", "FAULT_EXIT_CODE", "HANG_SECONDS"]

#: distinguishes an injected crash from a real one in process tables.
FAULT_EXIT_CODE = 23

#: a hang with no explicit duration sleeps this long — far beyond any
#: sane deadline, so the parent's kill-and-respawn always wins.
HANG_SECONDS = 3600.0


def swallow_request(fault: FaultSpec) -> bool:
    """Apply the pre-compute side of a fault; True = drop the request.

    ``CRASH`` never returns (the process exits).  ``HANG`` sleeps — the
    parent's deadline fires and terminates the process mid-sleep — and
    asks the caller to swallow the request should it ever wake.
    ``SLOW`` sleeps, then lets the request proceed normally.  The
    reply-side kinds (including the transport-level ones) fall through:
    the request executes and :func:`send_reply` applies them.
    """
    if fault.kind is FaultKind.CRASH:
        os._exit(FAULT_EXIT_CODE)
    if fault.kind is FaultKind.HANG:
        time.sleep(fault.seconds or HANG_SECONDS)
        return True
    if fault.kind is FaultKind.SLOW:
        time.sleep(fault.seconds)
    return False


def send_reply(conn: Any, reply: object, fault: FaultSpec) -> None:
    """Send ``reply`` through the fault's framing behaviour.

    ``DROP`` sends nothing (the parent's deadline detects it);
    ``CORRUPT`` ships a valid prefix over a body cut to a third, so the
    parent's decode step fails; ``DISCONNECT`` closes the connection
    instead of replying (the serving loop then winds the session down,
    but a :class:`~repro.service.shard_server.ShardServer` stays up for
    reconnects); ``SLOW_LINK`` delays the reply in the framing layer;
    ``CORRUPT_FRAME`` flips the frame checksum where the connection
    carries one (TCP) and degrades to the cut body where it does not
    (pipe frames have no checksum); every other kind sends normally.
    """
    # Lazy: importing repro.service loads the serving loop, which imports
    # this package.
    from repro.service.transport import corrupt_frame, truncated_frame

    if fault.kind is FaultKind.DROP:
        return
    if fault.kind is FaultKind.CORRUPT:
        conn.send_raw(truncated_frame(reply, checksum=conn.checksum))
        return
    if fault.kind is FaultKind.DISCONNECT:
        with contextlib.suppress(OSError):
            conn.close()
        return
    if fault.kind is FaultKind.SLOW_LINK:
        time.sleep(fault.seconds)
        conn.send(reply)
        return
    if fault.kind is FaultKind.CORRUPT_FRAME:
        conn.send_raw(corrupt_frame(reply) if conn.checksum else truncated_frame(reply))
        return
    conn.send(reply)
