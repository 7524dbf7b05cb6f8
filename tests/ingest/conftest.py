"""The ingest tests run under a loop guard: nothing blocks an event loop.

The ingestion service is one asyncio loop serving every reporter; a
blocking call on that loop's thread (an fsync, a sleep, a file open, a
blocking socket operation) stalls every connection and datagram until
it returns.  The service must hop such work onto a worker thread
(``asyncio.to_thread`` or an executor), where no loop is running.

The autouse :func:`loop_guard` wraps those calls for the duration of
each test: a call made on a thread that has a running loop raises, and
the test fails at teardown even if the loop swallowed the exception
(as it does for protocol callbacks).  Non-blocking sockets (timeout 0,
the ones asyncio's transports use) stay legal.
"""

from __future__ import annotations

import asyncio
import builtins
import io
import os
import socket
import time
from collections.abc import Callable, Iterator
from typing import Any

import pytest

#: (module or class, attribute) pairs that block the calling thread.
BLOCKING_CALLS = (
    (os, "fsync"),
    (os, "replace"),
    (time, "sleep"),
    (builtins, "open"),
    (io, "open"),
)
BLOCKING_SOCKET_METHODS = ("connect", "connect_ex", "send", "sendall", "sendto")


def _on_loop_thread() -> bool:
    return asyncio._get_running_loop() is not None


@pytest.fixture(autouse=True)
def loop_guard(monkeypatch: pytest.MonkeyPatch) -> Iterator[list[str]]:
    """Fail the test if a blocking call ran on an event loop's thread."""
    violations: list[str] = []

    def guard(name: str, call: Callable[..., Any], is_socket: bool) -> Callable[..., Any]:
        def guarded(*args: Any, **kwargs: Any) -> Any:
            if _on_loop_thread() and not (is_socket and args[0].gettimeout() == 0.0):
                violations.append(name)
                raise AssertionError(f"blocking {name}() on the event loop thread")
            return call(*args, **kwargs)

        return guarded

    for owner, attr in BLOCKING_CALLS:
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, guard(name, getattr(owner, attr), False))
    for attr in BLOCKING_SOCKET_METHODS:
        call = getattr(socket.socket, attr)
        monkeypatch.setattr(socket.socket, attr, guard(f"socket.{attr}", call, True))
    yield violations
    assert not violations, f"blocking calls on the event loop thread: {violations}"
