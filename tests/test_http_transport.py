"""The default HTTP transport of ``HttpOracle``, against an in-process server on 127.0.0.1.

Each test starts a ``ThreadingHTTPServer`` whose handler answers per row id
(the last word of the prompt) from a script, and records every request: its
row, connection, request line and headers. No test leaves the loopback
interface.
"""

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from scorefusion import HttpOracle, HttpOracleConfig, LabeledDataset, OracleError, score_batch
from scorefusion import oracle as oracle_mod


class _Judge(BaseHTTPRequestHandler):
    """Answers each POST with the next outcome scripted for its row; the last outcome repeats.

    An outcome is (status, body) or one of "slow" (a 200 after 0.5 s),
    "garbage" (no HTTP status line) and "close" (a 200, then the server drops
    the keep-alive connection).
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else each exchange waits for a delayed ACK

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        row = json.loads(body)["prompt"].split()[-1]
        server = self.server
        with server.lock:
            server.seen.append((row, self.client_address, self.requestline, dict(self.headers)))
            script = server.script.get(row, [(200, "0.5")])
            outcome = script.pop(0) if len(script) > 1 else script[0]
        if outcome == "garbage":
            self.wfile.write(b"NOT-HTTP\r\n\r\n")
            self.close_connection = True
            return
        if outcome == "slow":
            threading.Event().wait(0.5)  # not time.sleep, which a test may record
        status, text, content_type = (200, "0.5", None) if isinstance(outcome, str) else (*outcome, None)[:3]
        payload = text.encode("utf-8") if isinstance(text, str) else text
        self.send_response(status)
        self.send_header("Content-Type", content_type or "text/plain")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = outcome == "close"

    def do_CONNECT(self):
        with self.server.lock:
            self.server.seen.append((None, self.client_address, self.requestline, dict(self.headers)))
        self.send_error(502)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    def __init__(self, script=None):
        super().__init__(("127.0.0.1", 0), _Judge)
        self.lock, self.seen, self.script = threading.Lock(), [], dict(script or {})
        self.dropped = threading.Event()  # set once the server has closed a connection

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.dropped.set()

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves the slow handler a closed socket

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/score"

    def rows(self):
        return [row for row, *_ in self.seen]

    def connections(self):
        return {address for _, address, *_ in self.seen}


@pytest.fixture(autouse=True)
def _no_proxy_from_the_environment(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def serve():
    servers = []

    def start(script=None):
        server = _Server(script)
        threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(oracle_mod.time, "sleep", slept.append)
    return slept


def _rows(ids):
    return LabeledDataset.from_arrays(np.zeros((len(ids), 1)), ids=ids)


def _oracle(url, **overrides):
    config = dict(url=url, model="judge-1", prompt_template="score {id}", retries=3, backoff=0.25)
    return HttpOracle(HttpOracleConfig(**{**config, **overrides}))


def _post(session, url, row="a"):
    return session.post(url, json={"model": "judge-1", "prompt": f"score {row}"},
                        headers={"Content-Type": "application/json"}, timeout=5.0)


def test_a_200_and_a_503_then_200(serve, sleeps):
    server = serve({"a": [(200, '{"score": 0.25}')], "b": [(503, "busy"), (200, "Score: 0.75")]})
    z = score_batch(_oracle(server.url, max_concurrency=1), _rows(["a", "b"]), column=True)
    assert z.tolist() == [0.25, 0.75]
    assert server.rows() == ["a", "b", "b"] and sleeps == [0.25]
    assert {line for _, _, line, _ in server.seen} == {"POST /v1/score HTTP/1.1"}
    headers = server.seen[0][3]
    assert headers["Content-Type"] == "application/json" and headers["Accept-Encoding"] == "identity"
    assert "Authorization" not in headers


def test_the_bearer_token_is_sent(serve, monkeypatch):
    monkeypatch.setenv("JUDGE_TOKEN", "sekrit")
    server = serve()
    score_batch(_oracle(server.url, auth_env="JUDGE_TOKEN"), _rows(["a"]))
    assert server.seen[0][3]["Authorization"] == "Bearer sekrit"


def test_a_timeout_is_retried_on_a_new_connection(serve, sleeps):
    server = serve({"a": ["slow", (200, "0.5")]})
    z = score_batch(_oracle(server.url, timeout=0.1), _rows(["a"]), column=True)
    assert z.tolist() == [0.5] and sleeps == [0.25]
    assert server.rows() == ["a", "a"] and len(server.connections()) == 2


def test_a_protocol_error_is_retried(serve, sleeps):
    server = serve({"a": ["garbage", (200, "0.5")]})
    assert score_batch(_oracle(server.url), _rows(["a"]), column=True).tolist() == [0.5]
    assert server.rows() == ["a", "a"] and sleeps == [0.25]


def test_a_redirect_is_not_followed(serve):
    server = serve({"a": [(302, "moved")]})
    with pytest.raises(OracleError, match="a: endpoint returned HTTP 302"):
        score_batch(_oracle(server.url, retries=1), _rows(["a"]))
    assert server.rows() == ["a"]


@pytest.mark.parametrize("concurrency", [1, 3])
def test_rows_share_at_most_max_concurrency_keep_alive_connections(serve, concurrency):
    ids = [f"i{k:02d}" for k in range(30)]
    server = serve({i: [(200, f"0.{k:02d}")] for k, i in enumerate(ids)})
    z = score_batch(_oracle(server.url, max_concurrency=concurrency), _rows(ids), column=True)
    assert z.tolist() == [k / 100 for k in range(30)]
    assert sorted(server.rows()) == ids
    assert 1 <= len(server.connections()) <= concurrency


def test_a_dropped_idle_connection_reconnects_without_a_second_post(serve):
    server = serve({"a": ["close"]})
    session = oracle_mod._KeepAliveSession()
    try:
        assert _post(session, server.url, "a").text == "0.5"
        assert server.dropped.wait(5)
        assert _post(session, server.url, "b").text == "0.5"  # no error: the drop was seen before sending
    finally:
        session.close()
    assert server.rows() == ["a", "b"] and len(server.connections()) == 2


@pytest.mark.parametrize("content_type,payload,text", [
    ("text/plain; charset=iso-8859-1", "pertinência 0.5".encode("latin-1"), "pertinência 0.5"),
    ("text/plain", "pertinência 0.5".encode("utf-8"), "pertinência 0.5"),
], ids=["latin-1", "utf-8-by-default"])
def test_the_body_is_decoded_by_its_charset_and_utf8_by_default(serve, content_type, payload, text):
    server = serve({"a": [(200, payload, content_type)]})
    session = oracle_mod._KeepAliveSession()
    try:
        response = _post(session, server.url)
    finally:
        session.close()
    assert (response.status_code, response.text) == (200, text)


def test_an_http_proxy_gets_the_absolute_form_and_no_proxy_bypasses_it(serve, monkeypatch):
    judge, proxy = serve(), serve()
    monkeypatch.setenv("http_proxy", f"127.0.0.1:{proxy.server_address[1]}")
    score_batch(_oracle("http://judge.invalid:8080/v1/score?v=2#frag"), _rows(["a"]))
    assert [(line, headers["Host"]) for _, _, line, headers in proxy.seen] == [
        ("POST http://judge.invalid:8080/v1/score?v=2 HTTP/1.1", "judge.invalid:8080")]

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    score_batch(_oracle(judge.url), _rows(["b"]))
    assert len(proxy.seen) == 1
    assert [line for _, _, line, _ in judge.seen] == ["POST /v1/score HTTP/1.1"]


def test_an_https_url_is_tunnelled_through_the_proxy(serve, monkeypatch):
    proxy = serve()
    monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{proxy.server_address[1]}")
    with pytest.raises(OracleError, match="Tunnel connection failed: 502"):
        score_batch(_oracle("https://judge.invalid/v1/score", retries=1), _rows(["a"]))
    assert [line.split()[:2] for _, _, line, _ in proxy.seen] == [["CONNECT", "judge.invalid:443"]]
