"""Layer microbenchmarks (pytest-benchmark); skipped when the plugin is absent.

Run only these, with timing tables: ``pytest tests/test_layer_bench.py``.
"""

from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

from ontomatch.cache import ResponseCache
from ontomatch.judge import judge_candidates
from ontomatch.model import read_concept_jsonl
from ontomatch.pipeline import Pipeline
from ontomatch.retrieval import read_candidates

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
            "include_definition": config.use_definitions,
            "cache": cache,
        },
        rounds=3,
    )
    assert len(judgements) == sum(len(v) for v in candidates.values())
    assert provider.total_calls == 0
