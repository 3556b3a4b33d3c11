"""Layer microbenchmarks (pytest-benchmark); skipped when the plugin is absent.

Run only these, with timing tables: ``pytest tests/test_layer_bench.py``.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from ontomatch.cache import ResponseCache
from ontomatch.definitions import enrich_ontology
from ontomatch.judge import judge_candidates, p_yes
from ontomatch.model import read_concept_jsonl
from ontomatch.pipeline import Pipeline
from ontomatch.providers import SamplingParams
from ontomatch.retrieval import ExactIndex, load_embeddings, read_candidates, save_embeddings

from conftest import CountingProvider, toy_config


def _read(path: Path, name: str):
    with open(path, "r", encoding="utf-8") as fp:
        return read_concept_jsonl(fp, name=name)


def test_warm_judge_candidates_on_toy_pairs(tmp_path, benchmark):
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    pipeline.run()
    out = Path(config.out_dir)
    with open(out / "candidates.tsv", "r", encoding="utf-8") as fp:
        candidates = read_candidates(fp)
    source = _read(out / "source.enriched.jsonl", config.source_name)
    target = _read(out / "target.enriched.jsonl", config.target_name)
    provider = CountingProvider(pipeline.provider)
    cache = ResponseCache(config.cache_dir)

    judgements = benchmark.pedantic(
        judge_candidates,
        args=(candidates, source, target, provider),
        kwargs={
            "shots": config.shots(),
            "cache": cache,
        },
        rounds=3,
    )
    assert len(judgements) == sum(len(v) for v in candidates.values())
    assert provider.total_calls == 0


def test_warm_enrich_ontology_on_toy_concepts(tmp_path, benchmark):
    """Prompt rendering and keying of a fully cached define batch."""
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    pipeline.run()
    concepts = Path(config.out_dir) / "source.concepts.jsonl"
    provider = CountingProvider(pipeline.provider)
    cache = ResponseCache(config.cache_dir)
    params = SamplingParams(config.temperature, config.top_p, config.max_tokens)

    def fresh_concepts():  # enrich_ontology fills what it is given
        return (_read(concepts, config.source_name), config.target_name, provider, cache), {
            "params": params}

    processed = benchmark.pedantic(enrich_ontology, setup=fresh_concepts, rounds=3)
    assert processed == len(_read(concepts, config.source_name))
    assert provider.total_calls == 0


def test_exact_index_top_k_over_2k_rows(benchmark):
    rng = np.random.default_rng(7)
    iris = [f"http://bench#{j:05d}" for j in range(2000)]
    index = ExactIndex(iris, rng.standard_normal((2000, 64)))
    queries = rng.standard_normal((400, 64))

    results = benchmark.pedantic(
        lambda: [index.top_k(q, 10) for q in queries], rounds=3
    )
    assert len(results) == 400 and all(len(r) == 10 for r in results)


def test_save_and_load_embeddings_of_2k_by_64(tmp_path, benchmark):
    rng = np.random.default_rng(7)
    iris = [f"http://bench#{j:05d}" for j in range(2000)]
    matrix = rng.standard_normal((2000, 64))
    path = tmp_path / "source.embeddings.npz"

    def round_trip():
        save_embeddings(path, iris, matrix)
        return load_embeddings(path)

    got_iris, got_matrix = benchmark.pedantic(round_trip, rounds=3)
    assert got_iris == iris and np.array_equal(got_matrix, matrix)


def test_p_yes_over_4k_two_token_distributions(benchmark):
    """The first-token distributions of a judge batch: one YES and one NO
    variant each, as the mock provider returns them."""
    rng = np.random.default_rng(7)
    distributions = [{"YES": float(yes), "NO": float(no)}
                     for yes, no in rng.uniform(-12.0, 0.0, (4000, 2))]

    results = benchmark.pedantic(lambda: [p_yes(d) for d in distributions], rounds=3)
    assert len(results) == 4000 and all(0.0 < r < 1.0 for r in results)
