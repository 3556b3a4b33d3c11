"""One repetition of a workload, run in its own process.

``python3 perfbench/rep.py SPEC.json`` reads a spec written by ``run.py``,
imports ``ontomatch`` from the checkout's ``src/``, builds the config,
provider and one ``Pipeline`` per step, and calls ``run()`` once per step.
A fresh process per repetition gives each one its own import time and peak
RSS. The result (timings, provider counts, artifact digests, check failures
and, when traced, the per-layer metrics) is written to the spec's ``result``
path as JSON. ``setup_s`` covers the import of ``ontomatch`` and building
the first step's config, provider and pipeline.

Spec keys: ``root``, ``data``, ``out``, ``cache``, ``delay_s``, ``steps``
(each ``lambda_prob``, ``lambda_cs``, ``force`` and ``expect``: stage ->
status), ``setup_only``, ``spans`` (a path; set only for the traced run)
and ``result``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

CHECKED_ARTIFACTS = ("candidates.tsv", "judgements.tsv", "mappings.tsv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_pairs(path: Path) -> list[tuple[str, str]]:
    """(source, target) of every row of a TSV artifact with a header line."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(row.split("\t")[:2]) for row in rows if row]


def check_mappings(out: Path, planted: dict) -> list[str]:
    """Every planted exact pair is mapped and no near miss is."""
    pairs = set(read_pairs(out / "mappings.tsv"))
    problems = []
    missing = [p for p in map(tuple, planted["exact"]) if p not in pairs]
    if missing:
        problems.append(f"{len(missing)} exact pairs missing from mappings.tsv, e.g. {missing[0]}")
    wrong = [p for p in map(tuple, planted["near_miss"]) if p in pairs]
    if wrong:
        problems.append(f"{len(wrong)} near misses in mappings.tsv, e.g. {wrong[0]}")
    return problems


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from provider import DelayedProvider

    logging.basicConfig(level=logging.ERROR)
    data, out = Path(spec["data"]), Path(spec["out"])

    started = time.perf_counter()
    from ontomatch.pipeline import STAGES, Pipeline, PipelineConfig, make_provider

    def config(step: dict) -> PipelineConfig:
        return PipelineConfig(
            source=str(data / "source.owl"),
            target=str(data / "target.owl"),
            out_dir=str(out),
            cache_dir=spec["cache"],
            with_provenance=True,
            reference=str(data / "reference.tsv"),
            ranking_cases=str(data / "ranking_cases.tsv"),
            provider={"kind": "mock", "alias_groups_file": str(data / "alias_groups.json")},
            lambda_prob=step["lambda_prob"],
            lambda_cs=step["lambda_cs"],
        )

    steps = spec["steps"]
    first = config(steps[0])
    tracer = None
    if spec.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer()
    provider = DelayedProvider(make_provider(first), spec["delay_s"], tracer=tracer)
    pipeline = Pipeline(first, provider=provider)
    result = {"setup_s": time.perf_counter() - started}
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    planted = json.loads((data / "planted.json").read_text(encoding="utf-8"))
    restore = tracing.instrument(tracer) if tracer else None
    wall_s, problems = 0.0, []
    try:
        for i, step in enumerate(steps):
            if i > 0:
                pipeline = Pipeline(config(step), provider=provider)
            if tracer:
                tracing.trace_pipeline(pipeline, tracer)
                tracer.run_id = i
            began = time.perf_counter()
            status = pipeline.run(force=step["force"])
            wall_s += time.perf_counter() - began
            if status != step["expect"]:
                problems.append(f"step {i}: stage statuses {status}, expected {step['expect']}")
            problems.extend(f"step {i}: {p}" for p in check_mappings(out, planted))
    finally:
        if restore is not None:
            restore()

    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provider_calls": provider.calls,
        "provider_errors": provider.errors,
        "embed_texts": provider.embed_texts,
        "prompt_chars": provider.prompt_chars,
        "digests": {a: _sha256(out / a) for a in CHECKED_ARTIFACTS},
        "problems": problems,
    })
    if tracer:
        tracer.dump(Path(spec["spans"]))
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, STAGES)
        result["span_count"] = len(tracer.spans)
        result["span_names"] = sorted({s[1] for s in tracer.spans})
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: rep.py SPEC.json")
    main(sys.argv[1])
