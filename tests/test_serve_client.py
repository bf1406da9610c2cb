"""Transport tests for the serve client (repro.serve.client).

``ServeClient`` speaks HTTP/1.1 over one persistent TCP socket: one
``sendall`` per request and one buffered read per response.  These tests
pin that exchange against the real daemon (socket reuse, the retry after
a daemon-closed idle connection, 400 messages, byte identity with stdlib
``http.client``) and against stdlib ``socketserver`` stubs that answer
in ways the daemon never does: ``Connection: close``, a response written
one byte at a time, and malformed, chunked or short responses, which
must raise rather than hang.
"""

import contextlib
import http.client
import json
import socket
import socketserver
import threading
import time

import pytest

from repro.serve import (
    ServeClient,
    ServeDaemon,
    ServeError,
    protocol,
    start_background,
)

EVAL_WIRE = {"adder": "gear_r2p2", "samples": 1000, "seed": 11}

#: Client timeout for stub exchanges: a hang fails the test instead of
#: wedging the suite.
STUB_TIMEOUT = 5.0


@pytest.fixture(scope="module")
def daemon():
    instance = ServeDaemon(port=0, workers=0)
    thread = start_background(instance)
    yield instance
    instance.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def connects(monkeypatch):
    """Record every socket the client opens, with its ``sendall`` count."""
    opened = []

    class RecordingSocket(socket.socket):
        sends = 0

        def sendall(self, data, *args):
            self.sends += 1
            return super().sendall(data, *args)

    def create_connection(address, timeout):
        sock = RecordingSocket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
        opened.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return opened


# -- the real daemon ---------------------------------------------------------


def test_many_requests_reuse_one_socket(daemon, connects):
    with ServeClient(port=daemon.port) as client:
        for _ in range(25):
            assert client.healthz()["status"] == "ok"
            client.eval_raw(EVAL_WIRE)
        assert len(connects) == 1
        sock = connects[0]
        assert client._sock is sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        # Request line, headers and body go out together.
        assert sock.sends == 50


def test_daemon_closed_idle_connection_is_retried(daemon, connects):
    with ServeClient(port=daemon.port) as client:
        assert client.healthz()["status"] == "ok"
        daemon._loop.call_soon_threadsafe(
            lambda: [w.close() for w in list(daemon._connections)])
        deadline = time.monotonic() + 10
        while daemon._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not daemon._connections
        served = client.eval_raw(EVAL_WIRE)
    assert len(connects) == 2
    assert served == protocol.canonical_bytes(
        protocol.offline_eval_payload(EVAL_WIRE))


def test_400_raises_serve_error_with_the_daemon_message(daemon):
    with ServeClient(port=daemon.port) as client:
        for call in (client.eval, client.eval_raw):
            with pytest.raises(ServeError) as exc:
                call({"adder": "nope"})
            assert exc.value.status == 400
            assert "nope" in exc.value.message
        # The error response left the connection usable.
        assert client.healthz()["status"] == "ok"


def test_stdlib_http_client_reads_the_same_bytes(daemon):
    with ServeClient(port=daemon.port) as client:
        served = client.eval_raw(EVAL_WIRE)
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
    try:
        conn.request("POST", "/eval", body=protocol.canonical_bytes(EVAL_WIRE),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        assert response.read() == served
    finally:
        conn.close()


# -- stdlib stub servers -----------------------------------------------------


def _read_request(handler) -> bool:
    """Consume one request from a stub connection; False at EOF."""
    if not handler.rfile.readline():
        return False
    length = 0
    while True:
        line = handler.rfile.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    handler.rfile.read(length)
    return True


def _response(body: bytes, extra: bytes = b"") -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n%s" % (len(body), extra, body))


@contextlib.contextmanager
def _stub(answer):
    """A loopback server calling ``answer(handler, index)`` per connection.

    Yields ``(port, connections)``; ``connections`` counts accepted
    connections.  Handlers may wait on ``handler.server.done`` to hold a
    connection open until the test ends.
    """
    connections = []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            connections.append(self.client_address)
            answer(self, len(connections) - 1)

    class Server(socketserver.ThreadingTCPServer):
        daemon_threads = True
        allow_reuse_address = True

    server = Server(("127.0.0.1", 0), Handler)
    server.done = threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        yield server.server_address[1], connections
    finally:
        server.done.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_retry_happens_once_only():
    def answer(handler, index):
        if index == 0 and _read_request(handler):
            handler.wfile.write(_response(b"{}"))
            handler.wfile.flush()
        # Every connection ends without (another) response.
        handler.request.shutdown(socket.SHUT_WR)
        handler.server.done.wait(STUB_TIMEOUT)

    with _stub(answer) as (port, connections):
        with ServeClient(port=port, timeout=STUB_TIMEOUT) as client:
            assert client.request_raw("GET", "/healthz") == (200, b"{}")
            with pytest.raises(ConnectionResetError):
                client.request_raw("GET", "/healthz")
            assert client._sock is None
        assert len(connections) == 2


def test_connection_close_is_honoured():
    def answer(handler, index):
        while _read_request(handler):
            handler.wfile.write(_response(b'{"n": %d}' % index,
                                          b"Connection: close\r\n"))
            handler.wfile.flush()
            if index == 0:
                return  # closes the connection, as announced

    with _stub(answer) as (port, connections):
        with ServeClient(port=port, timeout=STUB_TIMEOUT) as client:
            assert client.request_raw("GET", "/stats") == (200, b'{"n": 0}')
            assert client._sock is None
            assert client.request_raw("GET", "/stats") == (200, b'{"n": 1}')
        assert len(connections) == 2


def test_response_written_byte_by_byte_parses():
    body = json.dumps({"status": "ok", "pad": "x" * 300}).encode()

    def answer(handler, index):
        handler.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while _read_request(handler):
            for i, byte in enumerate(_response(body)):
                handler.request.sendall(bytes([byte]))
                if i % 16 == 0:
                    time.sleep(0.0005)

    with _stub(answer) as (port, connections):
        with ServeClient(port=port, timeout=STUB_TIMEOUT) as client:
            assert client.healthz() == json.loads(body)
            assert client.request_raw("GET", "/healthz") == (200, body)
        assert len(connections) == 1


@pytest.mark.parametrize("raw, held_open", [
    (b"HTTX/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", True),
    (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", True),
    (b"garbage\r\n\r\n", True),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", True),
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", True),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"short\": 1}", False),
], ids=["bad-version", "bad-status", "no-status", "chunked",
        "no-content-length", "short-body"])
def test_malformed_response_raises_without_hanging(raw, held_open):
    def answer(handler, index):
        if _read_request(handler):
            handler.wfile.write(raw)
            handler.wfile.flush()
        if held_open:
            handler.server.done.wait(STUB_TIMEOUT)

    with _stub(answer) as (port, connections):
        with ServeClient(port=port, timeout=STUB_TIMEOUT) as client:
            t0 = time.monotonic()
            with pytest.raises(ConnectionError) as exc:
                client.request_raw("GET", "/healthz")
            assert time.monotonic() - t0 < STUB_TIMEOUT / 2
            assert not isinstance(exc.value, ConnectionResetError)
            assert client._sock is None
        # A malformed answer is an error, not a reason to retry.
        assert len(connections) == 1
