"""The HTTP provider over a real socket: a stdlib server on 127.0.0.1 answers
``/embeddings`` and ``/chat/completions`` from a ``MockProvider``, so a toy
run through ``HttpProvider`` goes through ``requests``, urllib3's connection
pool and TCP, offline."""

import json
import logging
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from ontomatch.cache import ResponseCache
from ontomatch.pipeline import Pipeline, make_provider
from ontomatch.providers import MockProvider, SamplingParams

from conftest import TOY_DIR, CountingProvider, toy_config

WIDTH = 32


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a client can reuse its connections
    # Without it each reply, sent as headers then body, waits on a delayed ACK.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, headers, reply = self.server.reply(self.path, request)
        data = json.dumps(reply).encode("utf-8")
        self.send_response(status)
        for name, value in {"Content-Type": "application/json",
                            "Content-Length": str(len(data)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """An OpenAI-style endpoint on 127.0.0.1 that answers from ``mock``. It
    counts the client connections it accepts and the requests per path, and
    sends each of ``refusals``, a ``(status, headers, body)`` reply, to the
    next chat request instead of an answer."""

    def __init__(self, mock: MockProvider):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.mock = mock
        self.lock = threading.Lock()
        self.connections = 0
        self.requests: Counter[str] = Counter()
        self.refusals: list[tuple[int, dict, dict]] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def reply(self, path: str, request: dict) -> tuple[int, dict, dict]:
        with self.lock:
            self.requests[path] += 1
            if path == "/v1/chat/completions" and self.refusals:
                return self.refusals.pop(0)
        if path == "/v1/embeddings":
            vectors = self.mock.embed_batch(request["input"])
            return 200, {}, {"data": [{"embedding": v.tolist()} for v in vectors]}
        if path != "/v1/chat/completions":
            return 404, {}, {"error": f"no route {path}"}
        messages = request["messages"]
        if request.get("logprobs"):
            top = [{"token": token, "logprob": logprob}
                   for token, logprob in self.mock.classify_first_token(messages).items()]
            return 200, {}, {"choices": [{"logprobs": {"content": [{"top_logprobs": top}]}}]}
        params = SamplingParams(request["temperature"], request["top_p"], request["max_tokens"])
        return 200, {}, {"choices": [{"message": {"content": self.mock.generate(messages, params)}}]}


@pytest.fixture
def server():
    mock = make_provider(toy_config(Path("unused")))
    server = LoopbackServer(mock)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def mock_counts(tmp_path) -> CountingProvider:
    """The provider calls of a cold toy run on the mock itself."""
    config = toy_config(tmp_path / "mock")
    provider = CountingProvider(make_provider(config))
    Pipeline(config, provider=provider).run()
    return provider


def http_toy_run(tmp_path: Path, server: LoopbackServer, monkeypatch, width: int):
    """A cold toy run on ``width`` workers through an ``HttpProvider`` that
    ``make_provider`` builds for ``server``; returns its config."""
    for name in ("ONTOMATCH_BASE_URL", "ONTOMATCH_API_KEY", "ONTOMATCH_EMBED_MODEL",
                 "ONTOMATCH_CHAT_MODEL"):
        monkeypatch.delenv(name, raising=False)
    config = toy_config(tmp_path / "http", max_workers=width, provider={
        "kind": "http", "base_url": server.url, "timeout": 10.0})
    provider = make_provider(config)
    try:
        Pipeline(config, provider=provider).run()
    finally:
        provider.close()
    return config


def test_a_toy_run_over_loopback_keeps_one_connection_per_worker(tmp_path, server, mock_counts,
                                                                 monkeypatch, caplog):
    """Over its three pool batches (each side's definitions, then the
    judgements) the run opens at most one connection per worker and never
    discards one from a full pool; it sends the mock run's calls and writes
    the golden mappings."""
    caplog.set_level(logging.WARNING, logger="urllib3")
    config = http_toy_run(tmp_path, server, monkeypatch, WIDTH)
    assert (Path(config.out_dir) / "mappings.tsv").read_bytes() == (
        TOY_DIR / "mappings.golden.tsv").read_bytes()
    assert server.requests == {
        "/v1/embeddings": mock_counts.embed_calls,
        "/v1/chat/completions": mock_counts.generate_calls + mock_counts.classify_calls,
    }
    assert 1 <= server.connections <= WIDTH
    assert not [r for r in caplog.records if "Connection pool is full" in r.getMessage()]


def test_a_refused_call_over_loopback_is_retried_and_only_its_answer_is_cached(
        tmp_path, server, mock_counts, monkeypatch):
    """The first chat request gets a 429 whose body looks like an answer; the
    call is retried after its Retry-After, and the cache holds the answer of
    the retry, never the refusal's body."""
    server.refusals.append((429, {"Retry-After": "0.01"},
                            {"choices": [{"message": {"content": "REFUSED"}}]}))
    config = http_toy_run(tmp_path, server, monkeypatch, 4)
    assert server.refusals == []
    assert server.requests["/v1/chat/completions"] == (
        mock_counts.generate_calls + mock_counts.classify_calls + 1)
    assert (Path(config.out_dir) / "mappings.tsv").read_bytes() == (
        TOY_DIR / "mappings.golden.tsv").read_bytes()
    cache = ResponseCache(config.cache_dir)
    payloads = [cache.get("define", digest) for digest in cache.stored("define")]
    assert len(payloads) == mock_counts.generate_calls
    assert not [p for p in payloads if "REFUSED" in json.dumps(p)]
