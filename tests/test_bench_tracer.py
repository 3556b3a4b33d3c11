"""The benchmark tracer (``perfbench/tracer.py``) patches pipeline names.

It wraps functions under the names ``ontomatch`` looks them up by and the
``top_k`` of each index class. A rename or deletion of one of those names
must fail here, not only in a traced benchmark run. So must a change that
breaks the cache and provider counts the benchmark checks on a traced run.
"""

from pathlib import Path

import ontomatch.definitions as definitions_module
import ontomatch.judge as judge_module
import ontomatch.pipeline as pipeline_module
import ontomatch.retrieval as retrieval_module
from ontomatch.pipeline import STAGES, Pipeline, make_provider

from conftest import toy_config, toy_ranking_cases

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PATCHED = (
    pipeline_module,
    pipeline_module.Pipeline,
    pipeline_module.StageManifest,
    definitions_module,
    judge_module,
    retrieval_module.ExactIndex,
    retrieval_module.HnswIndex,
)


def namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in PATCHED]


def test_tracer_patches_the_toy_run_and_restores_every_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracing

    before = namespaces()
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        patched = [
            name
            for old, new in zip(before, namespaces())
            for name in old
            if old[name] is not new[name]
        ]
        config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path))
        pipeline = Pipeline(config)
        tracing.trace_pipeline(pipeline, tracer)
        assert pipeline.run() == {s: "complete" for s in STAGES}
    finally:
        restore()
    assert namespaces() == before
    assert {"build_index", "generate_candidates", "judge_pair", "top_k", "global_metrics",
            "make_ranking_cases", "local_ranking", "load_embeddings"} <= set(patched)

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, STAGES)
    judgements = (Path(config.out_dir) / "judgements.tsv").read_text().splitlines()
    assert metrics["retrieval.top_k.calls"] == 30  # source concepts
    assert metrics["judge.pairs"] == len(judgements) - 1  # minus the header
    assert {"evaluate.global", "evaluate.ranking"} <= {span[1] for span in tracer.spans}
    rows = Path(config.ranking_cases).read_text().splitlines()
    assert metrics["evaluate.ranking_cases"] == len(rows) == 21


def _traced_run(config, force=False) -> dict:
    """The layer metrics of one ``run`` under the tracer, behind the
    benchmark's ``DelayedProvider`` with no delay."""
    import tracer as tracing
    from provider import DelayedProvider

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        provider = DelayedProvider(make_provider(config), 0.0, tracer=tracer)
        pipeline = Pipeline(config, provider)
        tracing.trace_pipeline(pipeline, tracer)
        pipeline.run(force=force)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, STAGES)
    metrics["provider_calls"] = provider.calls
    return metrics


def test_traced_toy_runs_pass_the_benchmark_cache_checks(tmp_path, monkeypatch):
    """What the benchmark's ``_trace_checks`` asserts of a cold and a warm run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path))

    cold = _traced_run(config)
    provider_chat = cold["providers.generate.calls"] + cold["providers.classify.calls"]
    assert provider_chat > 0
    assert cold["cache.misses"] == provider_chat

    forced = _traced_run(config, force=True)
    assert forced["pipeline.stages_run"] == len(STAGES)
    zero = ("provider_calls", "cache.put.calls", "providers.generate.calls",
            "providers.classify.calls", "providers.embed.calls")
    assert {name: forced[name] for name in zero} == dict.fromkeys(zero, 0)
