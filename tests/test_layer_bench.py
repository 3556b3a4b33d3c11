"""Layer microbenchmarks (pytest-benchmark); skipped when the plugin is absent.

Run only these, with timing tables: ``pytest tests/test_layer_bench.py``.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from ontomatch.cache import ResponseCache
from ontomatch.judge import judge_candidates
from ontomatch.model import read_concept_jsonl
from ontomatch.pipeline import Pipeline
from ontomatch.retrieval import ExactIndex, read_candidates

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


def test_exact_index_top_k_over_2k_rows(benchmark):
    rng = np.random.default_rng(7)
    iris = [f"http://bench#{j:05d}" for j in range(2000)]
    index = ExactIndex(iris, rng.standard_normal((2000, 64)))
    queries = rng.standard_normal((400, 64))

    results = benchmark.pedantic(
        lambda: [index.top_k(q, 10) for q in queries], rounds=3
    )
    assert len(results) == 400 and all(len(r) == 10 for r in results)
