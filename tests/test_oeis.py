import json
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import seqlab.oeis as oeis_mod
from seqlab.oeis import (
    MalformedResponseError,
    NetworkUnavailableError,
    OeisMatch,
    oeis_lookup,
)
from seqlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# what only a remote lookup needs: urllib.request brings in http.client,
# email, ssl and hashlib
NETWORK_MODULES = (
    "ssl", "_ssl", "hashlib", "http.client", "urllib.request", "email", "json", "datetime",
)

STRIPPED_FIXTURE = """\
# OEIS stripped-format fixture for tests
A000012 ,1,1,1,1,1,1,1,1,1,1,1,1,
A000108 ,1,1,2,5,14,42,132,429,1430,4862,16796,
A000142 ,1,1,2,6,24,120,720,5040,
"""


@pytest.fixture
def dump(tmp_path):
    path = tmp_path / "stripped"
    path.write_text(STRIPPED_FIXTURE)
    return path


@pytest.fixture(autouse=True)
def fast_rate_limit(monkeypatch):
    monkeypatch.setattr(oeis_mod, "MIN_REQUEST_INTERVAL", 0.0)


class _Responder(BaseHTTPRequestHandler):
    status = 200
    body = b"{}"
    content_type = "application/json"

    def do_GET(self):
        type(self).last_request = self  # noqa: B010 - test introspection
        self.send_response(self.status)
        self.send_header("Content-Type", self.content_type)
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fixture_server(monkeypatch):
    """Starts a local server answering ``body`` with ``status``, points
    SEQLAB_OEIS_URL at it and returns its handler class."""
    handlers = {}

    def start(body, status=200):
        handler = type("Handler", (_Responder,), {"status": status, "body": body})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        handlers["server"] = server
        port = server.server_address[1]
        monkeypatch.setenv("SEQLAB_OEIS_URL", f"http://127.0.0.1:{port}/search")
        return handler

    yield start
    if "server" in handlers:
        handlers["server"].shutdown()
        handlers["server"].server_close()


@pytest.fixture
def truncated_error_server(monkeypatch):
    """Starts a raw server that answers every request with HTTP 500 and a
    promised 1000-byte body, sends 10 bytes of it and closes; points
    SEQLAB_OEIS_URL at it."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.01)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                # read the whole request, so closing sends FIN and not RST
                conn.settimeout(5)
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                conn.sendall(
                    b"HTTP/1.1 500 Internal Server Error\r\n"
                    b"Content-Length: 1000\r\n\r\n0123456789"
                )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    port = listener.getsockname()[1]
    monkeypatch.setenv("SEQLAB_OEIS_URL", f"http://127.0.0.1:{port}/search")
    yield
    stop.set()
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()


class TestOeisMatch:
    def test_identifier_validated(self):
        OeisMatch("A000108", "Catalan numbers", 0)
        with pytest.raises(ValueError):
            OeisMatch("000108", "", 0)
        with pytest.raises(ValueError):
            OeisMatch("A1", "", 0)


class TestLocalLookup:
    def test_finds_catalan(self, dump):
        matches = oeis_lookup([1, 2, 5, 14, 42], mode="local", dump_path=dump)
        assert [m.identifier for m in matches] == ["A000108"]
        assert matches[0].offset == 1  # run starts at the second listed term

    def test_full_prefix_offset_zero(self, dump):
        matches = oeis_lookup([1, 1, 2, 5], mode="local", dump_path=dump)
        assert ("A000108", 0) in [(m.identifier, m.offset) for m in matches]

    def test_multiple_matches(self, dump):
        matches = oeis_lookup([1, 1, 2], mode="local", dump_path=dump)
        assert {m.identifier for m in matches} == {"A000108", "A000142"}

    def test_no_match(self, dump):
        assert oeis_lookup([9, 9, 9], mode="local", dump_path=dump) == []

    def test_missing_dump(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            oeis_lookup([1, 2], mode="local", dump_path=tmp_path / "absent")

    def test_empty_query_rejected(self, dump):
        with pytest.raises(ValueError):
            oeis_lookup([], mode="local", dump_path=dump)


class TestRemoteLookup:
    def test_parses_search_results(self, fixture_server):
        body = json.dumps(
            {
                "results": [
                    {
                        "number": 108,
                        "name": "Catalan numbers",
                        "data": "1,1,2,5,14,42,132",
                    }
                ]
            }
        ).encode()
        fixture_server(body)
        matches = oeis_lookup([2, 5, 14], mode="remote")
        assert matches == [OeisMatch("A000108", "Catalan numbers", 2)]

    def test_env_var_endpoint(self, fixture_server):
        handler = fixture_server(json.dumps({"results": []}).encode())
        assert oeis_lookup([1, 2, 3], mode="remote") == []
        assert handler.last_request.path == "/search?q=1%2C2%2C3&fmt=json"

    def test_null_results(self, fixture_server):
        fixture_server(json.dumps({"results": None}).encode())
        assert oeis_lookup([1, 2, 3], mode="remote") == []

    def test_network_unavailable(self, monkeypatch):
        # bind-then-close guarantees a refused port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        monkeypatch.setenv("SEQLAB_OEIS_URL", f"http://127.0.0.1:{port}/search")
        with pytest.raises(NetworkUnavailableError):
            oeis_lookup([1, 2, 3], mode="remote")

    def test_truncated_error_body_is_a_network_failure(self, truncated_error_server):
        with pytest.raises(NetworkUnavailableError, match="cannot reach"):
            oeis_lookup([1, 2, 5, 14], mode="remote")

    def test_cli_reports_truncated_error_body(self, truncated_error_server, capsys):
        assert main(["oeis", "--terms", "1,2,5,14"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot reach http://127.0.0.1:")

    def test_malformed_json_preserves_payload(self, fixture_server):
        fixture_server(b"<html>not json</html>")
        with pytest.raises(MalformedResponseError) as excinfo:
            oeis_lookup([1, 2, 3], mode="remote")
        assert "not json" in excinfo.value.payload

    def test_http_error_status(self, fixture_server):
        fixture_server(b"busy", status=503)
        with pytest.raises(MalformedResponseError, match="503"):
            oeis_lookup([1, 2, 3], mode="remote")

    def test_descriptive_user_agent_sent(self, fixture_server):
        handler = fixture_server(json.dumps({"results": []}).encode())
        oeis_lookup([1], mode="remote")
        assert "seqlab" in handler.last_request.headers["User-Agent"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            oeis_lookup([1], mode="psychic")


def test_cold_import_leaves_out_the_network_stack(fixture_server):
    fixture_server(
        json.dumps(
            {"results": [{"number": 108, "name": "Catalan numbers", "data": "1,1,2,5,14,42"}]}
        ).encode()
    )
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import seqlab.cli\n"
        f"print(sorted(m for m in {NETWORK_MODULES!r} if m in sys.modules))\n"
        "for m in seqlab.cli.oeis_lookup([2, 5, 14]):\n"
        "    print(m.identifier, m.offset, m.name)\n"
    )
    # a fresh interpreter, as this one has imported http.server; -S keeps
    # site-packages' .pth preloads out and -E ignores PYTHONPATH
    child = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "A000108 2 Catalan numbers"]


class TestRateLimit:
    def test_spacing_enforced(self, monkeypatch):
        clock = {"now": 100.0}
        naps = []
        monkeypatch.setattr(oeis_mod, "MIN_REQUEST_INTERVAL", 2.0)
        monkeypatch.setattr(oeis_mod.time, "monotonic", lambda: clock["now"])
        monkeypatch.setattr(oeis_mod.time, "sleep", lambda s: naps.append(s))
        monkeypatch.setattr(oeis_mod, "_last_request", 0.0)
        oeis_mod._respect_rate_limit()
        assert naps == []  # long idle: no wait
        clock["now"] = 100.5
        oeis_mod._respect_rate_limit()
        assert naps and abs(naps[0] - 1.5) < 1e-9
