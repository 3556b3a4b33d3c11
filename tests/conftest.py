"""Shared fixtures: fixture paths, toy pipeline configs, counting providers,
an empty response cache."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ontomatch.cache import ResponseCache
from ontomatch.pipeline import PipelineConfig, make_provider

DATA_DIR = Path(__file__).resolve().parent / "data"
TOY_DIR = DATA_DIR / "toy"
GOLDEN_DIR = DATA_DIR / "golden"


@pytest.fixture
def toy_dir() -> Path:
    return TOY_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def cache(tmp_path) -> ResponseCache:
    return ResponseCache(tmp_path / "cache")


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
