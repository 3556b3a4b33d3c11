"""Shared fixtures: fixture paths, toy pipeline configs, counting and
argument-digesting providers, an empty response cache, a cache that records
the prompt of each entry it computes, a raw writer and readers of cache
logs, and the Hypothesis profiles: ``default``, derandomized with no example
database, and ``ci``, with more examples, chosen by ``HYPOTHESIS_PROFILE``."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import tempfile
import threading
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import ontomatch.cache as cache_module
from ontomatch.cache import ResponseCache
from ontomatch.pipeline import PipelineConfig, make_provider

DATA_DIR = Path(__file__).resolve().parent / "data"
TOY_DIR = DATA_DIR / "toy"
GOLDEN_DIR = DATA_DIR / "golden"

settings.register_profile("default", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.register_profile("ci", settings.get_profile("default"), max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    """Hypothesis's own files (its cache of source constants) go to a
    temporary directory removed at exit, not ``.hypothesis/`` in the
    working directory."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture
def toy_dir() -> Path:
    return TOY_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def cache(tmp_path) -> ResponseCache:
    return ResponseCache(tmp_path / "cache")


def append_raw_entry(cache_dir, kind: str, digest: str, data: bytes) -> None:
    """Append a block of one entry holding ``data`` as it is to ``kind``'s
    log under ``cache_dir``: the next load reads ``data`` for ``digest``."""
    block = cache_module._blocks([cache_module._record(digest, data)])
    cache_module._append(os.path.join(cache_dir, f"{kind}.log"), block)


def log_blocks(path) -> list[tuple[int, int]]:
    """(start, end) byte offsets of each block of a well-formed log."""
    log, spans, pos = path.read_bytes(), [], 0
    while pos < len(log):
        (size,) = struct.unpack_from("<I", log, pos)
        spans.append((pos, pos + 4 + size))
        pos += 4 + size
    assert pos == len(log)
    return spans


def block_digests(path) -> list[list[str]]:
    """The digests of each block of a well-formed log, in order."""
    log, out = path.read_bytes(), []
    for start, end in log_blocks(path):
        body, pos, digests = zlib.decompress(log[start + 4:end]), 0, []
        while pos < len(body):
            key_size, size = struct.unpack_from("<HI", body, pos)
            pos += 6
            digests.append(body[pos:pos + key_size].decode("utf-8"))
            pos += key_size + size
        out.append(digests)
    return out


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class CountingProvider:
    """Delegating wrapper that counts provider calls by method."""

    def __init__(self, inner):
        self.inner = inner
        self.embed_calls = 0
        self.generate_calls = 0
        self.classify_calls = 0
        self.embed_model_id = inner.embed_model_id
        self.chat_model_id = inner.chat_model_id

    @property
    def total_calls(self) -> int:
        return self.embed_calls + self.generate_calls + self.classify_calls

    def embed_batch(self, texts):
        self.embed_calls += 1
        return self.inner.embed_batch(texts)

    def generate(self, messages, params):
        self.generate_calls += 1
        return self.inner.generate(messages, params)

    def classify_first_token(self, messages):
        self.classify_calls += 1
        return self.inner.classify_first_token(messages)


class RecordingCache(ResponseCache):
    """A ``ResponseCache`` that knows which entry each thread is working on:
    ``key()`` is the ``(kind, digest)`` of the ``serve`` job whose
    ``compute`` or ``accept`` this thread runs, on the pool or on the
    calling thread. A provider wrapped by ``provider()`` records each chat
    call's messages in ``prompts`` under that key."""

    def __init__(self, root):
        super().__init__(root)
        self.prompts: dict[tuple[str, str], list[dict]] = {}
        self._looking_up = threading.local()

    def serve(self, kind, jobs, max_workers, on_error=None):
        def keyed(step, key):
            def run(*args):
                self._looking_up.key = key
                try:
                    return step(*args)
                finally:
                    self._looking_up.key = None
            return run

        jobs = ((digest, keyed(compute, (kind, digest)), keyed(accept, (kind, digest)))
                for digest, compute, accept in jobs)
        return super().serve(kind, jobs, max_workers, on_error)

    def key(self) -> tuple[str, str] | None:
        return getattr(self._looking_up, "key", None)

    def provider(self, inner) -> CountingProvider:
        return _RecordingProvider(inner, self)


class _RecordingProvider(CountingProvider):
    """``CountingProvider`` that records each chat call's messages in its
    ``RecordingCache``'s ``prompts``, under the entry being looked up."""

    def __init__(self, inner, cache: RecordingCache):
        super().__init__(inner)
        self.cache = cache

    def generate(self, messages, params):
        self.cache.prompts[self.cache.key()] = messages
        return super().generate(messages, params)

    def classify_first_token(self, messages):
        self.cache.prompts[self.cache.key()] = messages
        return super().classify_first_token(messages)


class DigestProvider:
    """A provider whose every answer is a digest of all it receives, so an
    answer served for other arguments than it was computed for changes some
    artifact byte. ``generate`` digests the messages and the sampling
    parameters, ``classify_first_token`` the messages (about half of its
    answers give p_yes above 0.99, the rest spread over 0.01 to 0.98), and
    ``embed_batch`` each text, as a vector of positive components, so
    cosines spread around 0.75. Its model ids name the config's ``provider``
    spec."""

    def __init__(self, config: PipelineConfig):
        spec = hashlib.sha256(json.dumps(config.provider, sort_keys=True).encode()).hexdigest()
        self.embed_model_id = f"digest-embed-{spec[:12]}"
        self.chat_model_id = f"digest-chat-{spec[:12]}"
        self.dimension = config.provider.get("dimension", 16)

    @staticmethod
    def _digest(*args) -> bytes:
        return hashlib.sha256(json.dumps(args, sort_keys=True).encode()).digest()

    def generate(self, messages, params):
        return f"Definition {self._digest(messages, asdict(params)).hex()[:16]}."

    def classify_first_token(self, messages):
        digest = self._digest(messages)
        spread = (digest[1] + 0.5) / 256
        p = 0.9905 + 0.009 * spread if digest[0] % 2 else 0.01 + 0.97 * spread
        gap = math.log(p / (1 - p))  # YES minus NO, so that pair-mode p_yes is p
        return {"YES": -0.001 + min(gap, 0.0), "NO": -0.001 - max(gap, 0.0), "Maybe": -9.0}

    def embed_batch(self, texts):
        return [np.frombuffer(hashlib.shake_256(text.encode()).digest(self.dimension),
                              dtype=np.uint8) + 0.5 for text in texts]


def toy_config(tmp_path: Path, **overrides) -> PipelineConfig:
    """PipelineConfig wired to the committed toy fixture with tmp outputs."""
    values = dict(
        source=str(TOY_DIR / "source.jsonl"),
        target=str(TOY_DIR / "target.jsonl"),
        source_name="toy-src",
        target_name="toy-tgt",
        out_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"),
        reference=str(TOY_DIR / "reference.tsv"),
        with_provenance=True,
        provider={
            "kind": "mock",
            "dimension": 64,
            "seed": 0,
            "alias_groups_file": str(TOY_DIR / "alias_groups.json"),
        },
    )
    values.update(overrides)
    return PipelineConfig(**values)


def toy_ranking_cases(tmp_path: Path) -> str:
    """Ranking cases over the toy reference: each gold target against the
    next three reference targets as negatives."""
    reference = sorted(load_toy_reference())
    targets = [t for _, t in reference]
    lines = [
        "\t".join([src, gold, *(targets[(i + j) % len(targets)] for j in (1, 2, 3))])
        for i, (src, gold) in enumerate(reference)
    ]
    path = tmp_path / "ranking_cases.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.fixture
def counting_toy_provider():
    def build(config: PipelineConfig) -> CountingProvider:
        return CountingProvider(make_provider(config))

    return build


def load_toy_reference() -> set[tuple[str, str]]:
    pairs = set()
    for line in (TOY_DIR / "reference.tsv").read_text().splitlines()[1:]:
        src, tgt, _ = line.split("\t")
        pairs.add((src, tgt))
    return pairs


def load_alias_groups() -> list[list[str]]:
    return json.loads((TOY_DIR / "alias_groups.json").read_text())
