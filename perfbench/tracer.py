"""Span tracer for the traced benchmark run.

Spans come from wrappers in the benchmark's own files; nothing inside
``ontomatch`` changes. ``instrument`` patches public functions under the
name their caller looks them up by (the package uses ``from .x import y``,
so ``judge_candidates`` is patched in ``ontomatch.pipeline`` and
``judge_pair`` in ``ontomatch.judge``), wraps each index's ``top_k``,
``Pipeline.run_stage`` and ``StageManifest.can_skip``, and
``trace_pipeline`` replaces ``Pipeline.cache``. The provider spans come from
``DelayedProvider``. The callable ``instrument`` returns undoes every patch.

Each span records name, start, end, parent, run id and thread. A span opened
on a pool thread, with nothing open on that thread, takes the enclosing stage
span as its parent. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import ontomatch.definitions as definitions_mod
import ontomatch.judge as judge_mod
import ontomatch.pipeline as pipeline_mod
import ontomatch.retrieval as retrieval_mod
from ontomatch.cache import ResponseCache

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "thread")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self.stage: str | None = None
        self.stage_span: list | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self.stage_span[0] if self.stage_span else None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                self.run_id, threading.get_ident()]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(tuple(span))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name, on_result=None):
        """``name`` is a span name or a callable giving one at call time."""

        def traced(*args, **kwargs):
            span = self.begin(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counts": dict(self.counts)}, fp)


class TracedCache(ResponseCache):
    """``ResponseCache`` whose get, put and get_or_compute record spans.

    ``get_or_compute`` calls ``self.get`` and ``self.put``, so those inner
    calls are traced too, and its self time is the wait on the single-flight
    lock plus lock bookkeeping. A call counts as a miss when it computes.
    """

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer

    def get(self, kind, digest):
        span = self.tracer.begin("cache.get")
        try:
            return super().get(kind, digest)
        finally:
            self.tracer.end(span)

    def put(self, kind, digest, payload):
        span = self.tracer.begin("cache.put")
        try:
            return super().put(kind, digest, payload)
        finally:
            self.tracer.end(span)

    def get_or_compute(self, kind, digest, compute):
        computed = []

        def counted():
            computed.append(True)
            return compute()

        span = self.tracer.begin("cache.get_or_compute")
        try:
            return super().get_or_compute(kind, digest, counted)
        finally:
            self.tracer.end(span)
            self.tracer.count("cache.misses" if computed else "cache.hits")


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Patch the layer boundaries; returns a callable that restores them."""
    patches = _Patches()
    P = pipeline_mod

    def stage_wrapper(run_stage):
        def traced(self, stage, force=False, limit=None):
            span = tracer.begin(f"pipeline.{stage}")
            tracer.stage, tracer.stage_span = stage, span
            try:
                status = run_stage(self, stage, force=force, limit=limit)
            finally:
                tracer.stage, tracer.stage_span = None, None
                tracer.end(span)
            tracer.count("pipeline.stages_skipped" if status == "skipped"
                         else "pipeline.stages_run")
            return status
        return traced

    patches.set(P.Pipeline, "run_stage", stage_wrapper(P.Pipeline.run_stage))
    patches.set(P.StageManifest, "can_skip",
                tracer.wrap(P.StageManifest.can_skip, "pipeline.can_skip"))

    def on_parse(onto, args):
        tracer.count("ingest.concepts", len(onto))
        tracer.count("ingest.input_bytes", os.path.getsize(args[0]))

    def on_candidates(candidates, args):
        tracer.count("retrieval.candidates", sum(len(v) for v in candidates.values()))
        tracer.count("retrieval.degenerate_queries",
                     sum(1 for v in candidates.values() if not v))

    def on_definition(text, args):
        if not text:
            tracer.count("definitions.empty")

    def on_judged(judgements, args):
        tracer.count("judge.candidates.calls")

    def on_exact(exact, args):
        tracer.count("fusion.exact_pairs", len(exact))

    def on_fused(fused, args):
        for m in fused:
            tracer.count(f"fusion.{m.provenance}")
        tracer.count("fusion.mappings", len(fused))

    def on_cases(cases, args):
        tracer.count("evaluate.ranking_cases", len(cases))

    def embeddings_io():
        # The eval stage reads embeddings only to score ranking cases.
        return "evaluate.ranking" if tracer.stage == "eval" else "retrieval.embeddings_io"

    for attr, name, on_result in (
        ("parse_ontology", "ingest.parse", on_parse),
        ("read_concept_jsonl", "model.read_jsonl", None),
        ("write_concept_jsonl", "model.write_jsonl", None),
        ("enrich_ontology", "definitions.enrich", None),
        ("build_index", "retrieval.build_index", None),
        ("generate_candidates", "retrieval.generate_candidates", on_candidates),
        ("load_embeddings", embeddings_io, None),
        ("save_embeddings", embeddings_io, None),
        ("judge_candidates", "judge.candidates", on_judged),
        ("exact_match", "fusion.exact_match", on_exact),
        ("filter_and_fuse", "fusion.fuse", on_fused),
        ("global_metrics", "evaluate.global", None),
        ("make_ranking_cases", "evaluate.ranking", on_cases),
        ("local_ranking", "evaluate.ranking", None),
    ):
        patches.set(P, attr, tracer.wrap(getattr(P, attr), name, on_result))

    patches.set(definitions_mod, "generate_definition",
                tracer.wrap(definitions_mod.generate_definition, "definitions.generate",
                            on_definition))
    patches.set(definitions_mod, "build_definition_prompt",
                tracer.wrap(definitions_mod.build_definition_prompt, "definitions.prompt"))
    patches.set(judge_mod, "judge_pair", tracer.wrap(judge_mod.judge_pair, "judge.pair"))
    patches.set(judge_mod, "build_judgement_prompt",
                tracer.wrap(judge_mod.build_judgement_prompt, "judge.prompt"))
    patches.set(judge_mod, "p_yes", tracer.wrap(judge_mod.p_yes, "judge.p_yes"))
    for index_cls in (retrieval_mod.ExactIndex, retrieval_mod.HnswIndex):
        patches.set(index_cls, "top_k", tracer.wrap(index_cls.top_k, "retrieval.top_k"))
    return patches.restore


def trace_pipeline(pipeline, tracer: Tracer) -> None:
    """Route a pipeline's response cache through a ``TracedCache``."""
    pipeline.cache = TracedCache(pipeline.cache.root, tracer)


# -- derived metrics -----------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the duration of its children on its thread."""
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[6] == s[6]:
            own[parent[0]] -= s[3] - s[2]
    return own


def layer_metrics(spans, counts, stages) -> dict[str, float]:
    """Per-layer figures from one traced rep (summed over its ``run()`` calls)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
    own = self_times(spans)
    uncovered = defaultdict(float)
    for s in spans:
        if s[1].startswith("pipeline.") and s[1][len("pipeline."):] in stages:
            uncovered[s[1]] += own[s[0]]
    gets_or_computes = [s for s in spans if s[1] == "cache.get_or_compute"]
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    m = {}
    for stage in stages:
        m[f"pipeline.{stage}.wall_s"] = total[f"pipeline.{stage}"]
        m[f"pipeline.{stage}.uncovered_s"] = uncovered[f"pipeline.{stage}"]
    m.update({
        "pipeline.stages_run": counts.get("pipeline.stages_run", 0),
        "pipeline.stages_skipped": counts.get("pipeline.stages_skipped", 0),
        "pipeline.can_skip_s": total["pipeline.can_skip"],
        "pipeline.self_s": sum(uncovered.values()),
        "ingest.parse_s": total["ingest.parse"],
        "ingest.concepts": counts.get("ingest.concepts", 0),
        "ingest.input_bytes": counts.get("ingest.input_bytes", 0),
        "model.read_jsonl.calls": calls["model.read_jsonl"],
        "model.read_jsonl_s": total["model.read_jsonl"],
        "model.write_jsonl_s": total["model.write_jsonl"],
        "definitions.enrich_s": total["definitions.enrich"],
        "definitions.generate.calls": calls["definitions.generate"],
        "definitions.generate_s": total["definitions.generate"],
        "definitions.prompt_s": total["definitions.prompt"],
        "definitions.empty": counts.get("definitions.empty", 0),
        "cache.get.calls": calls["cache.get"],
        "cache.get_s": total["cache.get"],
        "cache.put.calls": calls["cache.put"],
        "cache.put_s": total["cache.put"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.get_or_compute.self_s": sum(own[s[0]] for s in gets_or_computes),
        "retrieval.build_index_s": total["retrieval.build_index"],
        "retrieval.top_k.calls": calls["retrieval.top_k"],
        "retrieval.top_k_s": total["retrieval.top_k"],
        "retrieval.embeddings_io_s": total["retrieval.embeddings_io"],
        "retrieval.candidates": counts.get("retrieval.candidates", 0),
        "retrieval.degenerate_queries": counts.get("retrieval.degenerate_queries", 0),
        "judge.pairs": calls["judge.pair"],
        "judge.candidates.calls": calls["judge.candidates"],
        "judge.candidates_s": total["judge.candidates"],
        "judge.pair_s": total["judge.pair"],
        "judge.parallelism": (total["judge.pair"] / total["judge.candidates"]
                              if total["judge.candidates"] else 0.0),
        "judge.prompt_s": total["judge.prompt"],
        "judge.p_yes.calls": calls["judge.p_yes"],
        "judge.p_yes_s": total["judge.p_yes"],
        "fusion.exact_match_s": total["fusion.exact_match"],
        "fusion.fuse_s": total["fusion.fuse"],
        "fusion.exact_pairs": counts.get("fusion.exact_pairs", 0),
        "fusion.mappings": counts.get("fusion.mappings", 0),
        "fusion.llm": counts.get("fusion.llm", 0),
        "fusion.exact": counts.get("fusion.exact", 0),
        "fusion.both": counts.get("fusion.both", 0),
        "evaluate.global_s": total["evaluate.global"],
        "evaluate.ranking_s": total["evaluate.ranking"],
        "evaluate.ranking_cases": counts.get("evaluate.ranking_cases", 0),
    })
    for kind in ("generate", "classify", "embed"):
        m[f"providers.{kind}.calls"] = calls[f"providers.{kind}"]
        m[f"providers.{kind}_s"] = total[f"providers.{kind}"]
    return m
