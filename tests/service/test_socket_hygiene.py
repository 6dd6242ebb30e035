"""Live-server fixtures must never leak the listening socket.

The server constructor binds the socket, so any exit path that skips
``server_close`` — an assertion firing mid-test, ``shutdown`` raising,
``start_background`` failing — leaks a file descriptor into the rest
of the session.  These tests pin the :func:`running_server` teardown
contract with ``ResourceWarning`` promoted to an error, the runtime's
own unclosed-socket detector.
"""

from __future__ import annotations

import gc
import socket
import threading
import warnings

import pytest

from repro.service.api import YaskEngine
from repro.service.client import YaskClient
from tests.conftest import make_tiny_db
from tests.service.conftest import running_server


def test_lifecycle_emits_no_resource_warning():
    """A full serve/query/teardown cycle leaves no unclosed socket."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with running_server(
            YaskEngine(make_tiny_db()), port=0
        ) as server:
            with YaskClient(server.endpoint) as client:
                assert client.query(x=0.1, y=0.1, keywords=["chinese"], k=2)
        # Unclosed sockets surface as ResourceWarning at collection
        # time; force a full pass so a leak fails *this* test, not an
        # unrelated later one.
        gc.collect()


def test_connection_still_held_at_server_close_is_ended():
    """A keep-alive client that never hung up must not outlive the
    server: ``server_close`` ends the connection, its handler thread
    finishes and the accepted socket is closed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with running_server(
            YaskEngine(make_tiny_db()), port=0
        ) as server:
            before = set(threading.enumerate())
            client = YaskClient(server.endpoint)
            assert client.query(x=0.1, y=0.1, keywords=["chinese"], k=2)
            handlers = set(threading.enumerate()) - before
            accepted = list(server.connections._open)
            assert len(handlers) == len(accepted) == 1
        assert server.connections.to_dict()["connections_open"] == 0
        assert not any(thread.is_alive() for thread in handlers)
        assert all(sock.fileno() == -1 for sock in accepted)
        client.close()
        del accepted
        gc.collect()


def test_assertion_inside_the_context_still_closes_the_socket():
    """The failure path tears down as thoroughly as the happy path."""
    captured = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(AssertionError, match="mid-test failure"):
            with running_server(
                YaskEngine(make_tiny_db()), port=0
            ) as server:
                captured["server"] = server
                captured["port"] = server.server_address[1]
                raise AssertionError("mid-test failure")
        gc.collect()
    # The listening descriptor is gone...
    assert captured["server"].socket.fileno() == -1
    # ...and the port is immediately rebindable.
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", captured["port"]))
    finally:
        probe.close()


def test_chaos_running_server_shares_the_contract():
    """The chaos suite's helper closes on failure exactly the same way."""
    from tests.chaos.conftest import make_chaos_db
    from tests.chaos.conftest import running_server as chaos_running_server

    captured = {}
    with pytest.raises(AssertionError):
        with chaos_running_server(YaskEngine(make_chaos_db())) as server:
            captured["server"] = server
            raise AssertionError("boom")
    assert captured["server"].socket.fileno() == -1
