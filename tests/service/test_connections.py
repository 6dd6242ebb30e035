"""Persistent HTTP/1.1 connections, driven over raw sockets.

The server keeps a connection (and its handler thread) for as many
requests as the client sends, so these tests pin what a library client
would hide: that a reused socket is answered at once (no Nagle /
delayed-ACK stall), that every reply sent with the request body still
unread is the connection's last (the unread JSON must never be parsed
as the next request line), that idle and stalling peers release their
thread, and that HTTP/1.0 and ``Connection: close`` clients still get
what they asked for.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service.api import YaskEngine
from repro.service.client import YaskClient
from repro.service.server import _YaskRequestHandler
from tests.conftest import make_tiny_db
from tests.service.conftest import running_server

QUERY = json.dumps(
    {"x": 0.1, "y": 0.1, "keywords": ["chinese"], "k": 2}
).encode()


def request_bytes(
    path: str = "/api/query",
    body: bytes = QUERY,
    *,
    method: str = "POST",
    version: str = "HTTP/1.1",
    headers: tuple[str, ...] | None = None,
) -> bytes:
    if headers is None:
        headers = (f"Content-Length: {len(body)}",)
    head = "\r\n".join((f"{method} {path} {version}", "Host: test", *headers))
    return head.encode() + b"\r\n\r\n" + body


class Peer:
    """One raw client connection."""

    def __init__(self, server) -> None:
        self.sock = socket.create_connection(server.server_address[:2], timeout=5.0)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> tuple[int, dict[str, str], dict] | None:
        """The next reply as (status, headers, body), or None at EOF."""
        status_line = self.reader.readline()
        if not status_line:
            return None
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while (line := self.reader.readline().strip()):
            name, _, value = line.decode().partition(":")
            headers[name.lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", "0")))
        return status, headers, json.loads(body) if body else {}

    def rest(self) -> bytes:
        """Everything up to the close.  A server that closes with the
        request body unread resets the connection: also a close."""
        try:
            return self.reader.read()
        except ConnectionResetError:
            return b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Peer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def handler_threads() -> int:
    return sum(
        "process_request_thread" in thread.name
        for thread in threading.enumerate()
    )


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


@pytest.fixture()
def server():
    with running_server(YaskEngine(make_tiny_db())) as server:
        yield server


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, server):
        with Peer(server) as peer:
            for _ in range(3):
                peer.send(request_bytes())
                status, headers, body = peer.reply()
                assert status == 200
                assert "connection" not in headers  # HTTP/1.1: stays open
                assert len(body["result"]["entries"]) == 2
            transport = server.connections.to_dict()
            assert transport["connections_accepted"] == 1
            assert transport["connections_open"] == 1
            assert transport["requests_served"] == 3
        assert wait_until(
            lambda: server.connections.to_dict()["connections_open"] == 0
        )

    def test_reused_connection_is_answered_at_once(self, server):
        """Headers and body written as two small segments stall every
        reply on a reused connection by the peer's delayed ACK (~40 ms,
        Nagle); thirty of those would take well over a second."""
        with Peer(server) as peer:
            peer.send(request_bytes())
            assert peer.reply()[0] == 200
            started = time.perf_counter()
            for _ in range(30):
                peer.send(request_bytes())
                assert peer.reply()[0] == 200
            assert time.perf_counter() - started < 0.75

    def test_pipelined_requests_are_answered_in_order(self, server):
        with Peer(server) as peer:
            peer.send(
                request_bytes()
                + request_bytes("/api/health/live", b"", method="GET", headers=())
            )
            assert "session_id" in peer.reply()[2]
            assert peer.reply()[2] == {"status": "ok"}

    def test_http_1_0_gets_its_reply_and_a_closed_connection(self, server):
        with Peer(server) as peer:
            peer.send(request_bytes(version="HTTP/1.0"))
            status, headers, body = peer.reply()
            assert status == 200 and "session_id" in body
            assert headers["connection"] == "close"
            assert peer.rest() == b""

    def test_connection_close_is_honoured(self, server):
        with Peer(server) as peer:
            peer.send(
                request_bytes(
                    headers=(f"Content-Length: {len(QUERY)}", "Connection: close")
                )
            )
            status, headers, _ = peer.reply()
            assert status == 200
            assert headers["connection"] == "close"
            assert peer.rest() == b""

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        with Peer(server) as peer:
            peer.send(
                request_bytes(
                    body=b"",
                    headers=(
                        f"Content-Length: {len(QUERY)}",
                        "Expect: 100-continue",
                    ),
                )
            )
            assert peer.reader.readline().startswith(b"HTTP/1.1 100")
            assert peer.reader.readline() == b"\r\n"
            peer.send(QUERY)
            assert peer.reply()[0] == 200


REFUSED_UNREAD = {
    "shed POST": (request_bytes(), 503),
    "shed DELETE with a body": (
        request_bytes("/api/objects/0", b'{"x": 1}', method="DELETE"),
        503,
    ),
    "unknown POST path": (request_bytes("/api/nope"), 404),
    "body too large": (
        request_bytes(headers=("Content-Length: 2000000",)),
        413,
    ),
    "missing Content-Length": (request_bytes(headers=()), 400),
    "non-numeric Content-Length": (
        request_bytes(headers=("Content-Length: many",)),
        400,
    ),
    "negative Content-Length": (
        request_bytes(headers=("Content-Length: -5",)),
        400,
    ),
    "GET with a body": (
        request_bytes("/api/health/live", method="GET"),
        200,
    ),
}


class TestUnreadBodyEndsTheConnection:
    @pytest.mark.parametrize("case", sorted(REFUSED_UNREAD))
    def test_refusal_then_valid_request_is_a_clean_close(self, case):
        refused, expected_status = REFUSED_UNREAD[case]
        with running_server(
            YaskEngine(make_tiny_db()), max_inflight=1
        ) as server:
            if case.startswith("shed"):
                assert server.inflight.try_enter()  # saturate the gauge
            with Peer(server) as peer:
                # The refused request and a valid one behind it, on the
                # same socket: the second must never be answered, least
                # of all by a 400 for a "request line" made of JSON.
                peer.send(refused + request_bytes())
                status, headers, body = peer.reply()
                assert status == expected_status
                assert headers["connection"] == "close"
                assert "internal error" not in body.get("error", "")
                assert peer.rest() == b""
            assert server.connections.to_dict()["closed_unread_body"] == 1
            if case.startswith("shed"):
                server.inflight.exit()

    def test_shed_delete_without_a_body_keeps_the_connection(self):
        with running_server(
            YaskEngine(make_tiny_db()), max_inflight=1
        ) as server:
            assert server.inflight.try_enter()
            with Peer(server) as peer:
                peer.send(
                    request_bytes("/api/objects/0", b"", method="DELETE", headers=())
                )
                status, headers, body = peer.reply()
                assert status == 503 and body["shed"] is True
                assert "connection" not in headers
                server.inflight.exit()
                peer.send(request_bytes())
                assert peer.reply()[0] == 200
            assert server.connections.to_dict()["closed_unread_body"] == 0

    def test_truncated_body_is_a_400_then_the_end(self, server):
        with Peer(server) as peer:
            peer.send(request_bytes(body=QUERY[:-1], headers=("Content-Length: 100",)))
            peer.sock.shutdown(socket.SHUT_WR)
            status, _, body = peer.reply()
            assert status == 400 and "invalid JSON" in body["error"]
            assert peer.rest() == b""


class TestIdleAndSlowPeers:
    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(_YaskRequestHandler, "timeout", 0.2)

    def test_idle_connection_releases_its_thread(self, server):
        baseline = handler_threads()
        with Peer(server) as peer:
            peer.send(request_bytes())
            assert peer.reply()[0] == 200
            assert handler_threads() == baseline + 1
            assert peer.rest() == b""  # the server hung up, unprompted
        assert wait_until(lambda: handler_threads() == baseline)
        transport = server.connections.to_dict()
        assert transport["idle_timeouts"] == 1
        assert transport["connections_open"] == 0
        with Peer(server) as peer:
            peer.send(request_bytes())
            assert peer.reply()[0] == 200

    def test_stalled_body_is_a_408_and_releases_its_thread(self, server):
        baseline = handler_threads()
        with Peer(server) as peer:
            peer.send(request_bytes(body=b'{"x": 0.1', headers=("Content-Length: 100",)))
            status, headers, body = peer.reply()
            assert status == 408 and "timed out" in body["error"]
            assert headers["connection"] == "close"
            assert peer.rest() == b""
        assert wait_until(lambda: handler_threads() == baseline)
        assert server.connections.to_dict()["idle_timeouts"] == 1
        with Peer(server) as peer:
            peer.send(request_bytes())
            assert peer.reply()[0] == 200

    def test_stalled_request_line_is_dropped(self, server):
        baseline = handler_threads()
        with Peer(server) as peer:
            peer.send(b"POST /api/query HT")
            assert peer.rest() == b""
        assert wait_until(lambda: handler_threads() == baseline)
        assert server.connections.to_dict()["idle_timeouts"] == 1


class TestClientReusesItsConnection:
    def test_calls_share_one_connection(self, server):
        with YaskClient(server.endpoint) as client:
            session = client.query(0.1, 0.1, ["chinese"], 2)["session_id"]
            client.explain(session, [3])
            client.query_log(session)
            transport = client.transport_stats()
            assert transport["connections_accepted"] == 1
            assert transport["requests_served"] == 3  # before this one
        # Leaving the block hung up; the client reconnects when used.
        assert wait_until(
            lambda: server.connections.to_dict()["connections_open"] == 0
        )
        assert client.health()["status"] == "ok"
        assert server.connections.to_dict()["connections_accepted"] == 2
        client.close()

    def test_server_side_idle_close_is_not_a_failed_mutation(
        self, server, monkeypatch
    ):
        """The server hangs up on the idle client; the client's next
        request is a mutation without a batch token, which it could not
        retry after a connection error: it must notice the EOF first."""
        monkeypatch.setattr(_YaskRequestHandler, "timeout", 0.2)
        slept: list[float] = []
        with YaskClient(server.endpoint, sleep=slept.append) as client:
            client.health()
            assert wait_until(
                lambda: server.connections.to_dict()["idle_timeouts"] == 1
            )
            report = client.insert_objects(
                [{"oid": 77, "x": 0.5, "y": 0.5, "keywords": ["thai"]}]
            )
            assert report["inserted"] == 1
        assert slept == []
        assert server.connections.to_dict()["connections_accepted"] == 2

    def test_threads_sharing_a_client_overlap(self, server):
        errors: list[Exception] = []

        def ask(client) -> None:
            try:
                for _ in range(10):
                    assert client.query(0.1, 0.1, ["chinese"], 2)["result"]
            except Exception as exc:  # surfaced below
                errors.append(exc)

        with YaskClient(server.endpoint) as client:
            threads = [threading.Thread(target=ask, args=(client,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert server.connections.to_dict()["connections_accepted"] <= 4
