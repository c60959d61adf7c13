"""Fixture: pickle on the shard wire (wire-pickle).

Every shape the rule forbids: a pickle import and a ``pickle.loads`` on
received bytes, and a ``multiprocessing`` pipe whose ``send`` / ``recv``
pickle implicitly.  The framed socket at the bottom reports nothing.
Every ``recv`` sits behind a bounded ``poll``, so the deadline rule
stays quiet here.
"""

import multiprocessing
import pickle
import socket


def unpickle_reply(payload):
    return pickle.loads(payload)


def pipe_round_trip(message, seconds):
    parent, child = multiprocessing.Pipe()
    parent.send(message)
    if not child.poll(seconds):
        raise TimeoutError("deadline")
    return child.recv()


def framed_socket_is_fine(frame, seconds):
    ours, theirs = socket.socketpair()
    ours.settimeout(seconds)
    ours.sendall(frame)
    return theirs
