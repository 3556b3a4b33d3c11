"""The benchmark tracer (``perfbench/tracer.py``) patches pipeline names.

It wraps functions under the names ``ontomatch`` looks them up by and the
``top_k`` of each index class. A rename or deletion of one of those names
must fail here, not only in a traced benchmark run.
"""

from pathlib import Path

import ontomatch.definitions as definitions_module
import ontomatch.judge as judge_module
import ontomatch.pipeline as pipeline_module
import ontomatch.retrieval as retrieval_module
from ontomatch.pipeline import STAGES, Pipeline

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
