"""Pipeline orchestration: end-to-end toy run, caching, resume, CLI."""

import builtins
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import ontomatch.cache as cache_module
import ontomatch.judge as judge_module
import ontomatch.pipeline as pipeline_module
import ontomatch.retrieval as retrieval_module
from ontomatch.cli import build_config, main
from ontomatch.errors import ConfigError, DegenerateVectorError, MissingArtifactError
from ontomatch.cache import BLOCK_ENTRIES, ResponseCache
from ontomatch.judge import DEFAULT_FEW_SHOT, judge_pair, judge_prompt
from ontomatch.model import Mapping, MappingSet, concept_context, read_concept_jsonl
from ontomatch.pipeline import (
    STAGE_TABLE,
    STAGES,
    Pipeline,
    PipelineConfig,
    StageContext,
    StageManifest,
    make_provider,
)
from ontomatch.providers import QUEUE_PER_WORKER, HttpProvider, MockProvider
from ontomatch.retrieval import (
    ExactIndex,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    write_candidates,
)

from conftest import (
    TOY_DIR,
    CountingProvider,
    append_raw_entry,
    block_digests,
    log_blocks,
    load_toy_reference,
    toy_config,
    toy_ranking_cases,
)
from oracles import cosine, rank_by_score, reference_hit_at_k, reference_mrr


def snapshot(out_dir: Path) -> dict[str, bytes]:
    """All artifact bytes except the manifest (which carries timestamps)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def read_metrics(out_dir: str) -> dict:
    return json.loads((Path(out_dir) / "metrics.json").read_text())


# -- end-to-end ----------------------------------------------------------------


def test_toy_run_reaches_perfect_f1(tmp_path):
    config = toy_config(tmp_path)
    results = Pipeline(config).run()
    assert results == {s: "complete" for s in STAGES}
    metrics = read_metrics(config.out_dir)
    assert metrics["f1"] == 1.0
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["predicted_count"] == len(load_toy_reference()) == 21


def test_toy_run_matches_golden_mappings(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    produced = (Path(config.out_dir) / "mappings.tsv").read_bytes()
    assert produced == (TOY_DIR / "mappings.golden.tsv").read_bytes()


def test_toy_run_reads_the_format_from_the_file_not_its_name(tmp_path):
    source = tmp_path / "source.owl"
    source.write_bytes((TOY_DIR / "source.jsonl").read_bytes())
    config = toy_config(tmp_path, source=str(source))
    Pipeline(config).run()
    produced = (Path(config.out_dir) / "mappings.tsv").read_bytes()
    assert produced == (TOY_DIR / "mappings.golden.tsv").read_bytes()


def test_default_toy_run_never_builds_hnsw(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the default match stage built an HnswIndex")

    monkeypatch.setattr(retrieval_module.HnswIndex, "__init__", refuse)
    assert Pipeline(toy_config(tmp_path)).run() == {s: "complete" for s in STAGES}


def test_warm_rerun_skips_everything_with_zero_calls(tmp_path, counting_toy_provider):
    config = toy_config(tmp_path)
    Pipeline(config, provider=counting_toy_provider(config)).run()
    before = snapshot(config.out_dir)

    warm = counting_toy_provider(config)
    results = Pipeline(config, provider=warm).run()
    assert results == {s: "skipped" for s in STAGES}
    assert warm.total_calls == 0
    assert snapshot(config.out_dir) == before


def test_forced_rerun_is_byte_identical_via_caches(tmp_path, counting_toy_provider):
    config = toy_config(tmp_path)
    Pipeline(config, provider=counting_toy_provider(config)).run()
    before = snapshot(config.out_dir)

    forced = counting_toy_provider(config)
    results = Pipeline(config, provider=forced).run(force=True)
    assert results == {s: "complete" for s in STAGES}
    # definition and judgement text comes from the response cache, embeddings
    # from the embedding cache: no provider traffic at all
    assert forced.total_calls == 0
    assert snapshot(config.out_dir) == before


def cache_tree(cache_dir: str) -> dict[str, bytes]:
    root = Path(cache_dir)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_cold_runs_write_byte_identical_cache_trees(tmp_path):
    trees = []
    for run in ("first", "second"):
        config = toy_config(tmp_path / run, ranking_cases=toy_ranking_cases(tmp_path),
                            ranking_scorer="pyes", few_shot=1)
        Pipeline(config).run()
        trees.append(cache_tree(config.cache_dir))
    assert {name.split("/")[0] for name in trees[0]} == {"define.log", "embed", "judge.log"}
    assert trees[0] == trees[1]


def test_cached_unparseable_judgement_is_recomputed_once(tmp_path, counting_toy_provider):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    poisoned = sorted(ResponseCache(config.cache_dir).stored("judge"))[0]
    answer = ResponseCache(config.cache_dir).get("judge", poisoned)
    append_raw_entry(config.cache_dir, "judge", poisoned, b'{"entries": {"MAYBE": -0.1}}')

    for expected_calls in (1, 0):
        provider = counting_toy_provider(config)
        Pipeline(config, provider=provider).run(force=True)
        assert (provider.classify_calls, provider.total_calls) == (expected_calls,) * 2
        assert snapshot(config.out_dir) == before
    assert ResponseCache(config.cache_dir).get("judge", poisoned) == answer


def test_bad_judge_blocks_are_recomputed_in_the_pool_and_cut_from_the_log(tmp_path, monkeypatch,
                                                                         caplog):
    """One flipped byte inside the judge log's second block and its last
    block torn mid-way: a forced judge run recomputes exactly the entries of
    those two blocks, on pool threads, serves the rest, and leaves a log
    whose next load finds no bad block."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    log = Path(config.cache_dir) / "judge.log"
    blocks, spans = block_digests(log), log_blocks(log)
    assert len(blocks) > 2
    lost = set(blocks[1]) | set(blocks[-1])
    data = bytearray(log.read_bytes())
    start, end = spans[1]
    data[(start + 4 + end) // 2] ^= 0x01
    start, end = spans[-1]
    log.write_bytes(bytes(data[:(start + end) // 2]))

    put_on = {}
    real_put = ResponseCache.put

    def recorded_put(self, kind, digest, payload):
        put_on[digest] = threading.current_thread().name
        return real_put(self, kind, digest, payload)

    served = []
    real_serve = judge_module.serve

    def spy_serve(*args, **kwargs):
        result = real_serve(*args, **kwargs)
        served.append(result[1])
        return result

    monkeypatch.setattr(ResponseCache, "put", recorded_put)
    monkeypatch.setattr(judge_module, "serve", spy_serve)
    provider = CountingProvider(make_provider(config))
    with caplog.at_level("WARNING", logger="ontomatch.cache"):
        assert Pipeline(config, provider=provider).run_stage("judge", force=True) == "complete"
    assert sum("bad block" in m for m in caplog.messages) == 2
    assert set(put_on) == lost and provider.classify_calls == len(lost)
    assert "MainThread" not in put_on.values()
    assert served == [sum(map(len, blocks)) - len(lost)]
    assert snapshot(config.out_dir) == before
    caplog.clear()
    with caplog.at_level("WARNING", logger="ontomatch.cache"):
        assert len(ResponseCache(config.cache_dir).stored("judge")) == sum(map(len, blocks))
    assert not caplog.messages


_KILLED_RUN = """
import os, sys, threading
from pathlib import Path
from conftest import toy_config
from ontomatch.pipeline import Pipeline, make_provider

config = toy_config(Path(sys.argv[1]))
provider = make_provider(config)
classify, calls, lock = provider.classify_first_token, [], threading.Lock()

def killing_classify(messages):
    with lock:
        calls.append(1)
        if len(calls) > int(sys.argv[2]):
            os._exit(3)
    return classify(messages)

provider.classify_first_token = killing_classify
Pipeline(config, provider=provider).run()
"""


def test_a_run_killed_mid_judge_resumes_to_the_same_artifacts(tmp_path):
    """A cold toy run exits abruptly after its 150th classify call; the
    rerun sends exactly the pairs whose answers the kill lost, at most the
    pool's queue and one open block, and writes what an uninterrupted run
    writes."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")) if p)
    killed = subprocess.run([sys.executable, "-c", _KILLED_RUN, str(tmp_path / "killed"), "150"],
                            env=env, capture_output=True, text=True, timeout=120)
    assert killed.returncode == 3, killed.stderr
    config = toy_config(tmp_path / "killed")
    kept = len(ResponseCache(config.cache_dir).stored("judge"))
    assert 0 < 150 - kept <= QUEUE_PER_WORKER * config.max_workers + BLOCK_ENTRIES

    provider = CountingProvider(make_provider(config))
    Pipeline(config, provider=provider).run()
    pairs = len(ResponseCache(config.cache_dir).stored("judge"))
    assert provider.total_calls == provider.classify_calls == pairs - kept
    whole = toy_config(tmp_path / "whole")
    Pipeline(whole).run()
    assert snapshot(config.out_dir) == snapshot(whole.out_dir)


def test_provenance_counts_on_toy_run(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    with open(Path(config.out_dir) / "mappings.tsv", encoding="utf-8") as fp:
        mappings = MappingSet.read_tsv(fp)
    counts: dict[str, int] = {}
    for m in mappings:
        counts[m.provenance] = counts.get(m.provenance, 0) + 1
    assert counts == {"both": 14, "llm": 6, "exact": 1}


def _ranking_oracle(cases_path: str, score) -> tuple[float, dict[str, float]]:
    """MRR and Hit@k with one case per row of the ranking-cases file: the
    row's gold and other candidates, ranked by ``score(source, target)``."""
    ranks = []
    for line in Path(cases_path).read_text().splitlines():
        src, gold, *negatives = line.split("\t")
        candidates = [gold] + [t for t in negatives if t != gold]
        ranks.append(rank_by_score([(t, score(src, t)) for t in candidates], gold))
    return reference_mrr(ranks), {str(k): reference_hit_at_k(ranks, k) for k in (1, 5, 10)}


def _pyes_oracle(config: PipelineConfig, cases_path: str) -> tuple[float, dict[str, float]]:
    """Ranking metrics with each pair judged on its own with ``judge_pair``
    and a cache of its own; a pair with a missing concept scores 0.0."""
    out = Path(config.out_dir)
    ontologies = []
    for name, onto_name in (("source.enriched.jsonl", config.source_name),
                            ("target.enriched.jsonl", config.target_name)):
        with open(out / name, encoding="utf-8") as fp:
            ontologies.append(read_concept_jsonl(fp, name=onto_name))
    source, target = ontologies
    provider = make_provider(config)
    cache = ResponseCache(out / "oracle-cache")

    def p_yes(s, t):
        if s not in source.concepts or t not in target.concepts:
            return 0.0
        prompt = judge_prompt(
            concept_context(source.concepts[s], source),
            concept_context(target.concepts[t], target),
            provider, shots=config.shots(),
        )
        return judge_pair(prompt, s, t, 0.0, provider, cache, config.softmax_mode).p_yes

    return _ranking_oracle(cases_path, p_yes)


def _cosine_oracle(config: PipelineConfig, cases_path: str) -> tuple[float, dict[str, float]]:
    """Ranking metrics with each pair scored by ``oracles.cosine`` over the
    embedding artifacts; a pair with a missing concept scores -1.0."""
    vectors = []
    for base in ("source.embeddings", "target.embeddings"):
        iris, matrix, _ = load_embeddings(Path(config.out_dir) / base)
        vectors.append({iri: matrix[i].tolist() for i, iri in enumerate(iris)})
    source, target = vectors

    def score(s, t):
        if s not in source or t not in target:
            return -1.0
        return cosine(source[s], target[t])

    return _ranking_oracle(cases_path, score)


def _edited_ranking_cases(tmp_path: Path) -> Path:
    """The toy ranking cases with a negative the target ontology lacks and a
    repeated negative in the first row."""
    cases_path = Path(toy_ranking_cases(tmp_path))
    lines = cases_path.read_text().splitlines()
    first = lines[0].split("\t")
    lines[0] = "\t".join([*first, "http://example.org/tgt#Missing", first[2]])
    cases_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return cases_path


def test_pyes_ranking_scorer_matches_a_per_pair_judge_oracle(tmp_path, monkeypatch,
                                                             counting_toy_provider):
    # A negative the target ontology lacks scores 0.0; a repeated one is judged once.
    cases_path = _edited_ranking_cases(tmp_path)
    config = toy_config(tmp_path, ranking_cases=str(cases_path), ranking_scorer="pyes",
                        few_shot=1)
    Pipeline(config).run()
    metrics = read_metrics(config.out_dir)
    mrr, hits = _pyes_oracle(config, str(cases_path))
    assert metrics["mrr"] == pytest.approx(mrr, abs=1e-12)
    assert metrics["hit_at"] == hits

    batches = []
    judge_candidates = pipeline_module.judge_candidates
    monkeypatch.setattr(pipeline_module, "judge_candidates",
                        lambda *a, **kw: batches.append(a[0]) or judge_candidates(*a, **kw))
    before = snapshot(config.out_dir)
    forced = counting_toy_provider(config)
    assert Pipeline(config, provider=forced).run(stages=["eval"], force=True) == {
        "eval": "complete"
    }
    assert forced.total_calls == 0
    assert snapshot(config.out_dir) == before
    # One batch, over each distinct pair a case scores.
    assert len(batches) == 1
    judged = [(s, t) for s, targets in batches[0].items() for t, _ in targets]
    assert len(judged) == len(set(judged)) == 21 * 4 + 1


def test_cosine_ranking_scorer_matches_an_oracle(tmp_path):
    # A negative the target ontology lacks scores -1.0.
    cases_path = _edited_ranking_cases(tmp_path)
    config = toy_config(tmp_path, ranking_cases=str(cases_path), ranking_scorer="cosine")
    Pipeline(config).run()
    metrics = read_metrics(config.out_dir)
    mrr, hits = _cosine_oracle(config, str(cases_path))
    assert metrics["mrr"] == pytest.approx(mrr, abs=1e-12)
    assert metrics["hit_at"] == hits


def _toy_ranking_pairs(cases_path: str) -> list[tuple[str, str]]:
    rows = [line.split("\t") for line in Path(cases_path).read_text().splitlines()]
    return [(row[0], t) for row in rows for t in row[1:]]


def _eval_context(pipeline: Pipeline) -> StageContext:
    return StageContext("eval", pipeline.config, pipeline.cache, pipeline.provider)


def test_cosine_ranking_scorer_equals_cosine_bit_for_bit(tmp_path):
    cases_path = toy_ranking_cases(tmp_path)
    config = toy_config(tmp_path, ranking_cases=cases_path, ranking_scorer="cosine")
    pipeline = Pipeline(config)
    pipeline.run()
    source, target = (
        dict(zip(*load_embeddings(Path(config.out_dir) / f"{side}.embeddings")[:2]))
        for side in ("source", "target")
    )
    pairs = _toy_ranking_pairs(cases_path)
    scores = pipeline_module._ranking_scorer(_eval_context(pipeline))(pairs)
    assert len(pairs) == 21 * 4
    for s, t in pairs:
        assert scores[(s, t)].hex() == retrieval_module.cosine(source[s], target[t]).hex()


def test_cosine_ranking_scorer_raises_on_a_zero_norm_vector_it_scores(tmp_path, monkeypatch):
    cases_path = toy_ranking_cases(tmp_path)
    config = toy_config(tmp_path, ranking_cases=cases_path, ranking_scorer="cosine")
    pipeline = Pipeline(config)
    pipeline.run()
    (s, t), *others = _toy_ranking_pairs(cases_path)
    load = pipeline_module.load_embeddings

    def zero_first_target(base):
        iris, matrix, sidecar = load(base)
        if Path(base).name == "target.embeddings":
            matrix = matrix.copy()
            matrix[iris.index(t)] = 0.0
        return iris, matrix, sidecar

    monkeypatch.setattr(pipeline_module, "load_embeddings", zero_first_target)
    scorer = pipeline_module._ranking_scorer(_eval_context(pipeline))
    others = [pair for pair in others if pair[1] != t]
    assert len(scorer(others)) == len(others)
    with pytest.raises(DegenerateVectorError):
        scorer([(s, t)])


def test_eval_scores_a_row_the_reference_lacks_as_written_and_warns(tmp_path, caplog):
    cases_path = Path(toy_ranking_cases(tmp_path))
    rows = [line.split("\t") for line in cases_path.read_text().splitlines()]
    # The first source again, with the second row's gold as its gold.
    extra = [rows[0][0], rows[1][1], rows[0][1]]
    with open(cases_path, "a", encoding="utf-8") as fp:
        fp.write("\t".join(extra) + "\n")
    config = toy_config(tmp_path, ranking_cases=str(cases_path))
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        Pipeline(config).run()
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "ontomatch.pipeline" and r.levelname == "WARNING"]
    assert warnings == [
        f"1 of {len(rows) + 1} ranking-case rows have a (source, gold) pair the reference "
        "lacks; scoring them as written"
    ]
    metrics = read_metrics(config.out_dir)
    mrr, hits = _cosine_oracle(config, str(cases_path))
    assert metrics["mrr"] == pytest.approx(mrr, abs=1e-12)
    assert metrics["hit_at"] == hits
    assert metrics["mrr"] < 1.0  # the extra row's gold is not the match of its source


@pytest.mark.parametrize("scorer", ["cosine", "pyes"])
def test_ranking_scorer_is_called_once_with_the_distinct_pairs(tmp_path, monkeypatch, scorer):
    cases_path = _edited_ranking_cases(tmp_path)
    rows = [line.split("\t") for line in cases_path.read_text().splitlines()]
    with open(cases_path, "a", encoding="utf-8") as fp:
        fp.write("\t".join(rows[0]) + "\n")  # every pair of this row is already scored
    calls = []
    scorer_of = pipeline_module._ranking_scorer

    def recording(ctx):
        score = scorer_of(ctx)
        return lambda pairs: calls.append(list(pairs)) or score(pairs)

    monkeypatch.setattr(pipeline_module, "_ranking_scorer", recording)
    config = toy_config(tmp_path, ranking_cases=str(cases_path), ranking_scorer=scorer)
    Pipeline(config).run()
    [pairs] = calls
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(row[0], t) for row in rows for t in row[1:]}


def test_bidirectional_toy_run_merges_both_retrieval_directions(tmp_path):
    config = toy_config(tmp_path, bidirectional=True, k=3)
    assert Pipeline(config).run() == {s: "complete" for s in STAGES}
    out = Path(config.out_dir)
    src_iris, src_matrix, _ = load_embeddings(out / "source.embeddings")
    tgt_iris, tgt_matrix, _ = load_embeddings(out / "target.embeddings")
    forward = generate_candidates(src_iris, src_matrix, ExactIndex(tgt_iris, tgt_matrix), k=3)
    backward = generate_candidates(tgt_iris, tgt_matrix, ExactIndex(src_iris, src_matrix), k=3)
    merged = merge_candidate_maps(forward, backward)
    assert sum(map(len, merged.values())) > sum(map(len, forward.values()))
    expected = io.StringIO()
    write_candidates(merged, expected)
    assert (out / "candidates.tsv").read_text() == expected.getvalue()


# -- manifest / resume -----------------------------------------------------------


def test_threshold_change_reruns_only_downstream_stages(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()

    # lambda_cs only enters the fuse digest; the fused output happens to be
    # byte-identical here, so eval skips on its own input digest
    relaxed = toy_config(tmp_path, lambda_cs=0.5)
    results = Pipeline(relaxed).run()
    assert results == {
        "ingest": "skipped", "define": "skipped", "embed": "skipped",
        "match": "skipped", "judge": "skipped", "fuse": "complete",
        "eval": "skipped",
    }


def test_stricter_probability_threshold_drops_llm_only_pairs(tmp_path):
    config = toy_config(tmp_path, lambda_prob=0.9995)
    Pipeline(config).run()
    with open(Path(config.out_dir) / "mappings.tsv", encoding="utf-8") as fp:
        mappings = MappingSet.read_tsv(fp)
    # the mock YES probability 0.99908804 fails the stricter threshold, so
    # only lexically matching pairs survive (via the exact route)
    assert len(mappings) == 15
    assert all(m.provenance == "exact" for m in mappings)
    metrics = read_metrics(config.out_dir)
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == pytest.approx(15 / 21, abs=1e-12)
    assert metrics["f1"] == pytest.approx(5 / 6, abs=1e-12)


def test_source_change_invalidates_ingest(tmp_path):
    source_copy = tmp_path / "source.jsonl"
    source_copy.write_bytes((TOY_DIR / "source.jsonl").read_bytes())
    config = toy_config(tmp_path, source=str(source_copy))
    Pipeline(config).run()

    lines = source_copy.read_text().splitlines(keepends=True)
    row = json.loads(lines[0])
    row["synonyms"] = list(row.get("synonyms", [])) + ["brand new synonym"]
    lines[0] = json.dumps(row, ensure_ascii=False) + "\n"
    source_copy.write_text("".join(lines))

    results = Pipeline(toy_config(tmp_path, source=str(source_copy))).run()
    assert results["ingest"] == "complete"
    assert results["define"] == "complete"


def test_ontology_name_change_reruns_define(tmp_path):
    # the definition prompt names both vocabularies
    Pipeline(toy_config(tmp_path)).run()
    results = Pipeline(toy_config(tmp_path, source_name="renamed-src")).run()
    assert results["ingest"] == "complete"
    assert results["define"] == "complete"


def test_embedding_change_reruns_ranking_eval(tmp_path):
    config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path))
    Pipeline(config).run()
    assert read_metrics(config.out_dir)["mrr"] is not None

    # the cosine ranking scorer reads the embeddings, even when the fused
    # mappings come out byte-identical
    provider = dict(config.provider, dimension=32)
    results = Pipeline(dataclasses.replace(config, provider=provider)).run()
    assert results["embed"] == "complete"
    assert results["eval"] == "complete"


def test_decision_column_is_p_yes_at_lambda_prob(tmp_path):
    out = tmp_path / "out"
    seen = set()
    for lambda_prob in (0.5, 0.99, 0.9995):
        Pipeline(toy_config(tmp_path, lambda_prob=lambda_prob)).run()
        lines = (out / "judgements.tsv").read_text().splitlines()[1:]
        rows = [line.split("\t") for line in lines]
        decisions = {(r[0], r[1]): r[4] for r in rows}
        seen.update(decisions.values())
        assert [r[4] for r in rows] == [
            "yes" if float(r[3]) >= lambda_prob else "no" for r in rows
        ]
        with open(out / "mappings.tsv", encoding="utf-8") as fp:
            llm = [m for m in MappingSet.read_tsv(fp) if m.provenance != "exact"]
        assert all(decisions[(m.source, m.target)] == "yes" for m in llm)
    assert seen == {"yes", "no"}


def test_torn_embedding_cache_entry_is_recomputed(tmp_path, counting_toy_provider, caplog):
    config = toy_config(tmp_path)
    Pipeline(config).run(stages=["ingest", "define", "embed"])
    before = snapshot(config.out_dir)
    sidecars = sorted((tmp_path / "cache" / "embed").glob("*.json"))
    assert len(sidecars) == 2
    text = sidecars[0].read_text()
    sidecars[0].write_text(text[: len(text) // 2])

    provider = counting_toy_provider(config)
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        results = Pipeline(config, provider=provider).run(stages=["embed"], force=True)
    assert results == {"embed": "complete"}
    assert provider.embed_calls == 1
    assert any("corrupt embedding cache entry" in r.getMessage() for r in caplog.records)
    assert snapshot(config.out_dir) == before
    assert json.loads(sidecars[0].read_text()) == json.loads(text)


def test_embedding_cache_serves_renamed_namespace(tmp_path, counting_toy_provider):
    first = toy_config(tmp_path, out_dir=str(tmp_path / "first"))
    Pipeline(first).run(stages=["ingest", "define", "embed"])

    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text(
        (TOY_DIR / "source.jsonl").read_text().replace("/src#", "/renamed#"), encoding="utf-8"
    )
    second = toy_config(tmp_path, source=str(renamed), out_dir=str(tmp_path / "second"))
    provider = counting_toy_provider(second)
    results = Pipeline(second, provider=provider).run(stages=["ingest", "define", "embed"])
    assert results["embed"] == "complete"
    assert provider.total_calls == 0

    load = retrieval_module.load_embeddings
    old_iris, old_matrix, _ = load(tmp_path / "first" / "source.embeddings")
    new_iris, new_matrix, _ = load(tmp_path / "second" / "source.embeddings")
    assert new_iris == [iri.replace("/src#", "/renamed#") for iri in old_iris]
    assert (new_matrix == old_matrix).all()


def test_judge_template_version_reruns_judge_not_define(tmp_path, monkeypatch):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    monkeypatch.setattr(judge_module, "JUDGE_TEMPLATE_VERSION", "changed")
    results = Pipeline(config).run()
    assert results["define"] == "skipped"
    assert results["judge"] == "complete"


# Fields that only say where outputs go or how fast to run.
NO_DIGEST_EFFECT = {"out_dir", "cache_dir", "max_workers"}


def test_every_config_field_enters_some_stage_digest(tmp_path):
    base = toy_config(tmp_path, few_shot=1, ranking_cases=toy_ranking_cases(tmp_path))
    Pipeline(base).run()
    base_digests = {s: Pipeline(base).input_digest(s) for s in STAGES}

    def edited_copy(path: str) -> str:
        copy = tmp_path / ("edited-" + Path(path).name)
        copy.write_bytes(Path(path).read_bytes() + b"\n")
        return str(copy)

    perturbed = {
        "source": edited_copy(base.source),
        "target": edited_copy(base.target),
        "source_name": "renamed-src",
        "target_name": "renamed-tgt",
        "k": 5,
        "lambda_prob": 0.5,
        "lambda_cs": 0.5,
        "few_shot": 2,
        "use_definitions": False,
        "bidirectional": True,
        "temperature": 0.2,
        "top_p": 0.5,
        "max_tokens": 64,
        "softmax_mode": "full",
        "with_provenance": False,
        "reference": edited_copy(base.reference),
        "ranking_cases": edited_copy(base.ranking_cases),
        "ranking_scorer": "pyes",
        "label_property": "http://example.org/label",
        "synonym_properties": ["http://example.org/synonym"],
        "provider": dict(base.provider, dimension=32),
        "few_shot_examples": [{"a": {"label": "x"}, "b": {"label": "y"}, "answer": "NO"}],
    }
    for field in dataclasses.fields(PipelineConfig):
        if field.name in NO_DIGEST_EFFECT:
            continue
        assert field.name in perturbed, (
            f"{field.name} needs a STAGE_TABLE entry and a perturbation here"
        )
        value = perturbed[field.name]
        assert value != getattr(base, field.name)
        pipeline = Pipeline(dataclasses.replace(base, **{field.name: value}))
        changed = [s for s in STAGES if pipeline.input_digest(s) != base_digests[s]]
        assert changed, f"changing {field.name} changes no stage digest"


def _fields_read(read, config: PipelineConfig) -> set[str]:
    """The config fields ``read(config)`` looks up."""
    seen = set()

    class Recorder:
        def __getattr__(self, name):
            seen.add(name)
            return getattr(config, name)

    read(Recorder())
    return seen


def test_the_config_fields_outside_every_row_are_those_that_set_no_output(tmp_path):
    """A method a row names (``shots``) covers the fields it reads, and a row
    that names a model covers the fields ``make_provider`` reads."""
    config = toy_config(tmp_path, few_shot=1)
    declared = set()
    for row in STAGE_TABLE.values():
        for name in row.files + row.config:
            method = getattr(PipelineConfig, name, None)
            declared |= _fields_read(method, config) if callable(method) else {name}
        if row.model:
            declared |= _fields_read(make_provider, config)
    fields = {field.name for field in dataclasses.fields(PipelineConfig)}
    assert declared <= fields
    assert fields - declared == NO_DIGEST_EFFECT


TEMPORARY = re.compile(r"tmp[0-9a-f]{32}\.tmp")  # atomic_open's


@pytest.mark.parametrize("scorer", ["cosine", "pyes"])
def test_each_stage_opens_only_what_its_row_declares(tmp_path, monkeypatch, scorer):
    """A spy on every way a file is opened, and on the rename that ends an
    atomic write. Each stage, with its input digest and manifest record,
    opens in the output directory only its row's artifacts, the manifest and
    temporary files, and of the input files only its row's ``files``."""
    config = toy_config(tmp_path, few_shot=1, ranking_cases=toy_ranking_cases(tmp_path),
                        ranking_scorer=scorer)
    out = Path(config.out_dir)
    input_files = {Path(getattr(config, name)): name
                   for name in ("source", "target", "reference", "ranking_cases")}
    opened: set[Path] = set()

    def spy(fn, arg=0):
        def spied(*args, **kwargs):
            if isinstance(args[arg], (str, os.PathLike)):
                opened.add(Path(args[arg]))
            return fn(*args, **kwargs)
        return spied

    for owner, name in ((builtins, "open"), (io, "open"), (os, "open")):
        monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    monkeypatch.setattr(os, "replace", spy(os.replace, arg=1))
    pipeline = Pipeline(config)
    for stage in STAGES:
        assert list(inspect.signature(getattr(pipeline_module, f"_{stage}")).parameters) == [
            "ctx", "limit"]
        row = STAGE_TABLE[stage]
        opened.clear()
        assert pipeline.run_stage(stage, force=True) == "complete"
        artifacts = {path.name for path in opened if path.parent == out}
        undeclared = {name for name in artifacts - {*row.reads, *row.writes, "manifest.json"}
                      if not TEMPORARY.fullmatch(name)}
        assert not undeclared, f"{stage} opens {sorted(undeclared)}, which its row lacks"
        assert {*row.reads, *row.writes} <= artifacts  # the spy sees them all
        assert {input_files[path] for path in opened if path in input_files} == set(row.files)


def test_define_limit_records_partial_then_resumes(tmp_path):
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    pipeline.run(stages=["ingest"])
    assert pipeline.run_stage("define", limit=10) == "partial"
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    assert manifest["stages"]["define"]["status"] == "partial"

    # a partial stage is never skipped; the rerun finishes the remainder
    assert pipeline.run_stage("define") == "complete"
    enriched = (Path(config.out_dir) / "target.enriched.jsonl").read_text()
    assert '"definition": null' not in enriched


def test_negative_limit_is_rejected_before_any_stage_runs(tmp_path):
    pipeline = Pipeline(toy_config(tmp_path))
    with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
        pipeline.run(limit=-1)
    with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
        pipeline.run_stage("ingest", limit=-1)
    assert not (Path(pipeline.out_dir) / "manifest.json").exists()
    assert not (Path(pipeline.out_dir) / "source.concepts.jsonl").exists()


def test_failed_stage_is_recorded_and_reraised(tmp_path):
    config = toy_config(tmp_path, reference=None)
    pipeline = Pipeline(config)
    pipeline.run()  # eval not selected without a reference
    with pytest.raises(ConfigError, match="reference"):
        pipeline.run_stage("eval")
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    assert manifest["stages"]["eval"]["status"] == "failed"
    assert "reference" in manifest["stages"]["eval"]["error"]


def test_a_failed_cache_write_fails_the_judge_stage_and_the_next_run_recomputes(tmp_path,
                                                                              monkeypatch):
    """Appends to the judge log fail: the commit that fills the first block
    raises, so the stage fails having sent at most a pool's worth of pairs
    past that block. Nothing reached the log, so the next run recomputes
    every pair, the answers of the failed run included."""
    config = toy_config(tmp_path)
    provider = CountingProvider(make_provider(config))
    pipeline = Pipeline(config, provider=provider)
    pipeline.run(stages=["ingest", "define", "embed", "match"])
    real_append = cache_module._append

    def refuse_judge(path, data, sync=False):
        if path.endswith("judge.log"):
            raise OSError(f"cannot append to {path}")
        real_append(path, data, sync)

    monkeypatch.setattr(cache_module, "_append", refuse_judge)
    with pytest.raises(OSError, match="cannot append"):
        pipeline.run_stage("judge")
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    assert manifest["stages"]["judge"]["status"] == "failed"
    failed_calls = provider.classify_calls
    assert BLOCK_ENTRIES <= failed_calls <= BLOCK_ENTRIES + QUEUE_PER_WORKER * config.max_workers

    monkeypatch.undo()
    assert pipeline.run_stage("judge") == "complete"
    pairs = len((Path(config.out_dir) / "judgements.tsv").read_text().splitlines()) - 1
    assert len(ResponseCache(config.cache_dir).stored("judge")) == pairs
    assert provider.classify_calls - failed_calls == pairs


def test_missing_prerequisite_names_the_stage_to_run(tmp_path):
    pipeline = Pipeline(toy_config(tmp_path))
    with pytest.raises(MissingArtifactError) as exc:
        pipeline.run_stage("embed")
    assert "source.enriched.jsonl" in str(exc.value)
    assert "'define' stage first" in str(exc.value)


def test_run_selects_stages_in_pipeline_order(tmp_path):
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    results = pipeline.run(stages=["define", "ingest"])
    assert list(results) == ["ingest", "define"]


def test_run_without_reference_omits_eval(tmp_path):
    config = toy_config(tmp_path, reference=None)
    results = Pipeline(config).run()
    assert "eval" not in results
    assert not (Path(config.out_dir) / "metrics.json").exists()


def test_failed_artifact_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    config = toy_config(tmp_path)
    ctx = StageContext("eval", config, ResponseCache(config.cache_dir))
    ctx.write("metrics.txt", lambda fp: fp.write("old\n"))

    def failing(fp):
        fp.write("new, half written")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        ctx.write("metrics.txt", failing)
    assert (tmp_path / "out" / "metrics.txt").read_text() == "old\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["metrics.txt"]


def test_failed_manifest_save_keeps_the_old_manifest_and_leaves_no_temporary(tmp_path):
    manifest = StageManifest(tmp_path / "manifest.json")
    manifest.record("ingest", "complete", "d", {}, 0.0)
    old = (tmp_path / "manifest.json").read_bytes()
    manifest.stages["define"] = {"status": object()}
    with pytest.raises(TypeError):
        manifest.save()
    assert (tmp_path / "manifest.json").read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("content", [
    "{not json",
    "\xff\xfe",
    "[]",
    '{"stages": []}',
    '{"stages": {"ingest": "x"}}',
    '{"stages": {"ingest": {"status": "complete", "outputs": []}}}',
])
def test_a_corrupt_or_misshapen_manifest_is_ignored(tmp_path, caplog, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content.encode("latin-1"))
    manifest = StageManifest(path)
    assert manifest.stages == {}
    assert not manifest.can_skip("ingest", "d", tmp_path)
    assert any("ignoring corrupt manifest" in r.getMessage() for r in caplog.records)


def test_a_corrupt_manifest_reruns_every_stage(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    (Path(config.out_dir) / "manifest.json").write_text('{"stages": {"ingest": "x"}}')
    assert Pipeline(config).run() == {s: "complete" for s in STAGES}


def test_run_stage_rejects_unknown_stage(tmp_path):
    with pytest.raises(ValueError):
        Pipeline(toy_config(tmp_path)).run_stage("transmogrify")


# -- config --------------------------------------------------------------------


def test_config_round_trips_through_dict():
    config = PipelineConfig(source="a", target="b", k=5, lambda_cs=0.9)
    again = PipelineConfig.from_dict(config.to_dict())
    assert again == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_dict({"sauce": "a"})


@pytest.mark.parametrize("key, value", [
    ("index", "exact"),
    ("hnsw_m", 16),
    ("source_format", "auto"),
    ("target_format", "concept-jsonl"),
])
def test_config_rejects_removed_index_keys(key, value):
    with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
        PipelineConfig.from_dict({key: value})


def test_config_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid config JSON"):
        PipelineConfig.from_file(path)


def test_config_from_file_rejects_a_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('["k"]')
    with pytest.raises(ConfigError, match="must be a JSON object, got list"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("overrides", [
    {"lambda_prob": 1.5},
    {"lambda_cs": -0.1},
    {"k": 0},
    {"few_shot": -1},
    {"softmax_mode": "argmax"},
    {"ranking_scorer": "bm25"},
    {"k": "10"},
    {"use_definitions": 1},
    {"label_property": None},
    {"synonym_properties": None},
])
def test_config_validation(overrides):
    [(name, value)] = overrides.items()
    with pytest.raises(ConfigError) as exc:
        PipelineConfig(**overrides)
    assert str(exc.value).startswith(name)
    assert f"got {value!r}" in str(exc.value)


def test_config_shots_selection():
    assert PipelineConfig(few_shot=0).shots() == ()
    assert PipelineConfig(few_shot=2).shots() == DEFAULT_FEW_SHOT
    assert PipelineConfig(few_shot=1).shots() == DEFAULT_FEW_SHOT[:1]
    with pytest.raises(ConfigError, match="only 2 examples"):
        PipelineConfig(few_shot=3).shots()


def test_config_custom_few_shot_examples():
    config = PipelineConfig(few_shot=1, few_shot_examples=[{
        "a": {"label": "x"}, "b": {"label": "y"}, "answer": "NO",
    }])
    (shot,) = config.shots()
    assert shot.answer == "NO"
    assert shot.a.label == "x"


def test_make_provider_mock_with_alias_file(tmp_path):
    alias_file = tmp_path / "aliases.json"
    alias_file.write_text(json.dumps([["a", "b"]]))
    provider = make_provider(PipelineConfig(provider={
        "kind": "mock", "dimension": 32, "seed": 7,
        "alias_groups_file": str(alias_file),
    }))
    assert isinstance(provider, MockProvider)
    assert provider.embed_model_id == "mock-embed-d32-s7"
    assert provider.alias.canonicalize("b") == "a"


def test_make_provider_http_kind():
    provider = make_provider(PipelineConfig(provider={
        "kind": "http", "base_url": "http://example.test/v1",
    }))
    assert isinstance(provider, HttpProvider)


@pytest.mark.parametrize("spec, unknown", [
    ({"kind": "mock", "dimensions": 32}, "dimensions"),
    ({"kind": "http", "base_ur": "http://example.test/v1"}, "base_ur"),
    ({"kind": "http", "max_in_flight": 4}, "max_in_flight"),
    ({"kind": "mock", "canned_generate": {}}, "canned_generate"),
    ({"kind": "mock", "alias_groups": [["a", "b"]]}, "alias_groups"),
])
def test_make_provider_rejects_unknown_keys(spec, unknown):
    with pytest.raises(ConfigError, match=f"unknown {spec['kind']} provider keys: \\['{unknown}'\\]"):
        make_provider(PipelineConfig(provider=spec))


def test_make_provider_unknown_kind():
    with pytest.raises(ConfigError, match="unknown provider kind"):
        make_provider(PipelineConfig(provider={"kind": "carrier-pigeon"}))


# -- definitions ablation ---------------------------------------------------------


def test_no_definitions_run_skips_generation_and_changes_texts(tmp_path, counting_toy_provider):
    ablated = toy_config(tmp_path, use_definitions=False)
    provider = counting_toy_provider(ablated)
    results = Pipeline(ablated, provider=provider).run()
    assert results["define"] == "complete"
    assert provider.generate_calls == 0

    enriched = (Path(ablated.out_dir) / "source.enriched.jsonl").read_text()
    for line in enriched.splitlines():
        assert json.loads(line)["definition"] is None


class RecordingProvider(CountingProvider):
    """Counts calls and keeps every text embedded and every judge message."""

    def __init__(self, inner):
        super().__init__(inner)
        self.texts: list[str] = []
        self.judge_messages: list[dict] = []

    def embed_batch(self, texts):
        self.texts.extend(texts)
        return super().embed_batch(texts)

    def classify_first_token(self, messages):
        self.judge_messages.extend(messages)
        return super().classify_first_token(messages)


def test_no_definitions_drops_the_definitions_an_input_carries(tmp_path):
    """Under use_definitions=False define writes every definition as null,
    so no embedding text or judge message (few-shot turns included) has one."""
    inputs = {}
    for side in ("source", "target"):
        rows = [json.loads(line) for line in (TOY_DIR / f"{side}.jsonl").read_text().splitlines()]
        for row in rows:
            row["definition"] = f"A given definition of {row['label']}."
        inputs[side] = tmp_path / f"{side}.jsonl"
        inputs[side].write_text("".join(json.dumps(row) + "\n" for row in rows))
    config = toy_config(tmp_path, source=str(inputs["source"]), target=str(inputs["target"]),
                        use_definitions=False, few_shot=2)
    provider = RecordingProvider(make_provider(config))
    results = Pipeline(config, provider=provider).run()
    assert set(results.values()) == {"complete"}
    assert provider.generate_calls == 0
    assert '"definition": "A given' in (Path(config.out_dir) / "source.concepts.jsonl").read_text()
    for side in ("source", "target"):
        with open(Path(config.out_dir) / f"{side}.enriched.jsonl", encoding="utf-8") as fp:
            enriched = read_concept_jsonl(fp, name=side)
        assert len(enriched) == 30
        assert all(c.definition is None for c in enriched.concepts.values())
    assert len(provider.texts) == 60 and provider.classify_calls > 0
    assert not [t for t in provider.texts if "Definition:" in t]
    assert len(provider.judge_messages) == 6 * provider.classify_calls
    assert not [m for m in provider.judge_messages if "Definition:" in m["content"]]


def test_use_definitions_enters_only_the_define_digest():
    rows = [s for s, row in pipeline_module.STAGE_TABLE.items() if "use_definitions" in row.config]
    assert rows == ["define"]


def test_no_definitions_still_finds_lexical_and_alias_pairs(tmp_path):
    ablated = toy_config(tmp_path, use_definitions=False)
    Pipeline(ablated).run()
    metrics = read_metrics(ablated.out_dir)
    # alias-grouped labels still embed identically, so the toy stays perfect
    assert metrics["f1"] == 1.0


# -- CLI ----------------------------------------------------------------------


def write_config_file(tmp_path, **overrides) -> str:
    config = toy_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict(), indent=2))
    return str(path)


def test_cli_run_executes_all_stages(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", write_config_file(tmp_path)])
    assert result.exit_code == 0, result.output
    for stage in STAGES:
        assert f"{stage}: complete" in result.output
    assert (tmp_path / "out" / "mappings.tsv").exists()


def test_cli_stage_command_runs_single_stage(tmp_path):
    runner = CliRunner()
    config_path = write_config_file(tmp_path)
    result = runner.invoke(main, ["ingest", "--config", config_path])
    assert result.exit_code == 0, result.output
    assert "ingest: complete" in result.output
    assert "define:" not in result.output
    assert (tmp_path / "out" / "source.concepts.jsonl").exists()


def test_cli_option_overrides_config_file(tmp_path):
    config_path = write_config_file(tmp_path)
    config = build_config(config_path, provider=None, k=3, lambda_prob=0.5)
    assert config.k == 3
    assert config.lambda_prob == 0.5
    assert config.source_name == "toy-src"  # untouched keys keep file values


def test_cli_no_definitions_flag(tmp_path):
    config = build_config(write_config_file(tmp_path), provider=None, use_definitions=False)
    assert config.use_definitions is False


def test_cli_provider_switch_replaces_spec_only_on_kind_change(tmp_path):
    config_path = write_config_file(tmp_path)
    kept = build_config(config_path, provider="mock")
    assert kept.provider["dimension"] == 64  # same kind: detailed spec kept
    swapped = build_config(config_path, provider="http")
    assert swapped.provider == {"kind": "http"}


def test_cli_bidirectional_flag(tmp_path):
    config_path = write_config_file(tmp_path)
    on = build_config(config_path, provider=None, bidirectional=True)
    assert on.bidirectional is True
    off = build_config(config_path, provider=None, bidirectional=None)
    assert off.bidirectional is False


def test_cli_rejects_a_negative_limit(tmp_path):
    result = CliRunner().invoke(main, ["define", "--config", write_config_file(tmp_path),
                                       "--limit", "-1"])
    assert result.exit_code == 2
    assert "Invalid value for '--limit'" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_config_errors_become_clean_failures(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda_prob": 1.5}))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 1
    assert "lambda_prob" in result.output
    assert "Traceback" not in result.output


_BAD_CONFIGS = {
    "reference": ({"reference": "missing.tsv"}, "reference 'missing.tsv' is not a file"),
    "ranking_cases": ({"ranking_cases": "missing.tsv"},
                      "ranking_cases 'missing.tsv' is not a file"),
    "source": ({"source": None}, "source '' is not a file"),
    "temperature": ({"temperature": -1}, "temperature must be >= 0, got -1"),
    "top_p": ({"top_p": 0}, "top_p must be in (0, 1], got 0"),
    "label_property": ({"label_property": ""}, "label_property must be non-empty, got ''"),
    "max_workers": ({"max_workers": 0}, "max_workers must be >= 1, got 0"),
    "few_shot": ({"few_shot": 5}, "few_shot=5 but only 2 examples available"),
    "k": ({"k": "10"}, "k must be int, got '10'"),
    "lambda_prob": ({"lambda_prob": "0.9"}, "lambda_prob must be float, got '0.9'"),
    "synonym_properties": ({"synonym_properties": "http://x"},
                           "synonym_properties must be list[str], got 'http://x'"),
    "provider": ({"provider": "mock"}, "provider must be dict, got 'mock'"),
    "provider_kind": ({"provider": {"kind": "bogus"}}, "unknown provider kind 'bogus'"),
    "provider_kind_list": ({"provider": {"kind": ["mock"]}}, "unknown provider kind ['mock']"),
    "provider_dimension": ({"provider": {"kind": "mock", "dimension": 1}},
                           "mock provider: dimension must be >= 2, got 1"),
    "provider_embed_batch_size": ({"provider": {"kind": "http", "embed_batch_size": 0}},
                                  "http provider: embed_batch_size must be >= 1, got 0"),
    "provider_max_attempts": ({"provider": {"kind": "http", "max_attempts": 0}},
                              "http provider: max_attempts must be >= 1, got 0"),
    "few_shot_examples": ({"few_shot_examples": ["x"]},
                          "few_shot_examples must be list[dict] | None, got ['x']"),
    "few_shot_example_key": (
        {"few_shot": 1, "few_shot_examples": [{"b": {"label": "x"}, "answer": "YES"}]},
        "few-shot example must be an object with a, b and answer, "
        "got {'b': {'label': 'x'}, 'answer': 'YES'}",
    ),
    "few_shot_example_concept": (
        {"few_shot": 1, "few_shot_examples": [{"a": "x", "b": {}, "answer": "NO"}]},
        "few-shot concept must be an object, got 'x'",
    ),
    "few_shot_example_synonyms": (
        {"few_shot": 1, "few_shot_examples": [
            {"a": {"synonyms": "heart"}, "b": {}, "answer": "NO"}]},
        "few-shot concept synonyms must be list[str], got 'heart'",
    ),
    "few_shot_example_label": (
        {"few_shot": 1, "few_shot_examples": [{"a": {}, "b": {"label": 1}, "answer": "NO"}]},
        "few-shot concept label must be str | None, got 1",
    ),
    "few_shot_example_unknown_key": (
        {"few_shot": 1, "few_shot_examples": [
            {"a": {"synonym": ["heart"]}, "b": {}, "answer": "NO"}]},
        "unknown few-shot concept keys: ['synonym']",
    ),
    "provider_timeout": ({"provider": {"kind": "http", "timeout": "60"}},
                         "http provider timeout must be float, got '60'"),
    "provider_max_attempts_type": ({"provider": {"kind": "http", "max_attempts": 2.5}},
                                   "http provider max_attempts must be int, got 2.5"),
    "provider_base_url": ({"provider": {"kind": "http", "base_url": 5}},
                          "http provider base_url must be str, got 5"),
    "provider_dimension_type": ({"provider": {"kind": "mock", "dimension": "64"}},
                                "mock provider dimension must be int, got '64'"),
    "provider_seed": ({"provider": {"kind": "mock", "seed": "x"}},
                      "mock provider seed must be int, got 'x'"),
    **{f"alias_groups_{name}": (
        {"provider": {"kind": "mock", "alias_groups_file": "aliases.json"}},
        f"mock provider alias_groups_file aliases.json must be list[list[str]], got {groups!r}",
        json.dumps(groups),
    ) for name, groups in (("item", [["a", 1]]), ("object", {"a": ["b"]}), ("string", "ab"))},
    "alias_groups_missing": ({"provider": {"kind": "mock", "alias_groups_file": "missing.json"}},
                             "mock provider: [Errno 2] No such file or directory: 'missing.json'"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_CONFIGS))
def test_cli_rejects_a_bad_config_before_any_stage(tmp_path, monkeypatch, bad):
    """An override of None leaves the key out of the config file. A third
    item is the text of ``aliases.json`` in the working directory."""
    overrides, message, *aliases = _BAD_CONFIGS[bad]
    monkeypatch.chdir(tmp_path)
    for text in aliases:
        (tmp_path / "aliases.json").write_text(text)
    data = toy_config(tmp_path).to_dict()
    data.update(overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert result.output == f"Error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def _predictions_and_reference(tmp_path) -> tuple[Path, Path]:
    predictions = tmp_path / "predictions.tsv"
    with open(predictions, "w", encoding="utf-8") as fp:
        MappingSet([
            Mapping("http://s#1", "http://t#1", 1.0),
            Mapping("http://s#2", "http://t#2", 1.0),
        ]).write_tsv(fp)
    reference = tmp_path / "reference.tsv"
    with open(reference, "w", encoding="utf-8") as fp:
        MappingSet([Mapping("http://s#1", "http://t#1", 1.0)]).write_tsv(fp)
    return predictions, reference


def _assert_half_precision_report(result):
    assert result.exit_code == 0, result.output
    assert "precision  0.500" in result.output
    assert "recall     1.000" in result.output
    assert "f1         0.667" in result.output


def test_cli_eval_predictions_mode(tmp_path):
    predictions, reference = _predictions_and_reference(tmp_path)
    result = CliRunner().invoke(main, [
        "eval", "--predictions", str(predictions), "--reference", str(reference),
    ])
    _assert_half_precision_report(result)


def test_cli_eval_predictions_takes_the_config_reference(tmp_path):
    predictions, reference = _predictions_and_reference(tmp_path)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"reference": str(reference)}))
    result = CliRunner().invoke(main, [
        "eval", "--predictions", str(predictions), "--config", str(config_path),
    ])
    _assert_half_precision_report(result)


def test_cli_eval_predictions_reports_a_missing_config_reference(tmp_path):
    predictions, _ = _predictions_and_reference(tmp_path)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"reference": str(tmp_path / "missing.tsv")}))
    result = CliRunner().invoke(main, [
        "eval", "--predictions", str(predictions), "--config", str(config_path),
    ])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: ") and "missing.tsv" in result.output


_BAD_ROWS = {
    "score": ("http://s#1\thttp://t#1\tabc\n", "could not convert string to float"),
    "alpha": ("http://s#1\thttp://t#1\t95\n", "alpha must be in [0, 1]"),
    "columns": ("http://s#1\n", "mapping row needs at least 2 columns"),
}


def _assert_clean_parse_error(result, message, line):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert result.output.startswith("Error: ")
    assert message in result.output
    assert result.output.rstrip().endswith(f"(line {line})")


@pytest.mark.parametrize("bad", sorted(_BAD_ROWS))
def test_cli_eval_predictions_reports_a_malformed_row(tmp_path, bad):
    row, message = _BAD_ROWS[bad]
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text("SrcEntity\tTgtEntity\tScore\n\n" + row)
    reference = tmp_path / "reference.tsv"
    reference.write_text("SrcEntity\tTgtEntity\tScore\nhttp://s#1\thttp://t#1\t1.0\n")
    result = CliRunner().invoke(main, [
        "eval", "--predictions", str(predictions), "--reference", str(reference),
    ])
    _assert_clean_parse_error(result, message, 3)


def test_cli_run_reports_a_malformed_reference_row(tmp_path):
    reference = tmp_path / "reference.tsv"
    reference.write_text((TOY_DIR / "reference.tsv").read_text() + _BAD_ROWS["score"][0])
    config_path = write_config_file(tmp_path)
    result = CliRunner().invoke(main, [
        "run", "--config", config_path, "--reference", str(reference),
    ])
    _assert_clean_parse_error(result, _BAD_ROWS["score"][1], 23)


def test_cli_eval_predictions_requires_reference(tmp_path):
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text("SrcEntity\tTgtEntity\tScore\n")
    runner = CliRunner()
    result = runner.invoke(main, ["eval", "--predictions", str(predictions)])
    assert result.exit_code == 2
    assert "--reference" in result.output


def test_python_dash_m_ontomatch_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "ontomatch", "--help"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Usage:" in result.stdout


def test_readme_names_every_config_field_and_cli_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    flags = {opt for command in (main, *main.commands.values())
             for param in command.params for opt in param.opts if opt.startswith("--")}
    assert [f for f in fields if f"`{f}`" not in readme] == []
    assert sorted(flag for flag in flags if flag not in readme) == []
