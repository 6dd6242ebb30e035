"""Shared fixtures for the service-tier test suite.

:func:`running_server` is the one sanctioned way to stand up a live
HTTP server in a test: construction already binds the listening
socket, so teardown must be reached from *every* exit path — including
an assertion firing mid-test or ``start_background`` itself failing —
or the socket leaks into the rest of the session.  The hygiene
contract is pinned under ``-W error::ResourceWarning`` by
``test_socket_hygiene.py``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator
from urllib import error, request

from repro.service.server import YaskHTTPServer


@contextmanager
def running_server(engine: Any, **kwargs: Any) -> Iterator[YaskHTTPServer]:
    """A live background server, always torn down (no leaked sockets).

    ``server_close`` runs even when ``shutdown`` raises, and
    ``shutdown`` is only attempted once the serving thread exists
    (``BaseServer.shutdown`` blocks forever if ``serve_forever`` never
    ran).
    """
    server = YaskHTTPServer(engine, **kwargs)
    started = False
    try:
        server.start_background()
        started = True
        yield server
    finally:
        try:
            if started:
                server.shutdown()
        finally:
            server.server_close()


def post_raw(endpoint: str, route: str, body: bytes) -> tuple[int, Any]:
    """POST ``body`` byte-for-byte; ``(status, parsed JSON reply)``.

    For payloads ``YaskClient`` cannot produce (non-JSON literals,
    out-of-range number spellings, non-UTF-8 bytes).  The reply must
    itself be strict JSON: a bare ``NaN`` in it fails the parse.
    """

    def strict(literal: str) -> None:
        raise ValueError(f"reply carries the non-JSON literal {literal}")

    req = request.Request(f"{endpoint}{route}", data=body, method="POST")
    try:
        with request.urlopen(req) as response:
            status, raw = response.status, response.read()
    except error.HTTPError as exc:
        with exc:
            status, raw = exc.code, exc.read()
    return status, json.loads(raw, parse_constant=strict)
