"""Pipeline orchestration: end-to-end toy run, caching, resume, CLI."""

import builtins
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ontomatch.cache as cache_module
import ontomatch.judge as judge_module
import ontomatch.pipeline as pipeline_module
import ontomatch.retrieval as retrieval_module
from ontomatch.cli import build_config, main
from ontomatch.errors import ConfigError, ItemError, MissingArtifactError
from ontomatch.cache import BLOCK_ENTRIES, DEFAULT_MAX_WORKERS, QUEUE_PER_WORKER, ResponseCache
from ontomatch.judge import DEFAULT_FEW_SHOT, judge_candidates
from ontomatch.fusion import exact_match, read_mappings, write_mappings
from ontomatch.model import Mapping, read_concept_jsonl
from ontomatch.pipeline import (
    SIDES,
    STAGE_TABLE,
    STAGES,
    Pipeline,
    PipelineConfig,
    StageContext,
    StageManifest,
    make_provider,
)
from ontomatch.providers import HttpProvider, MockProvider
from ontomatch.retrieval import (
    ExactIndex,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    read_candidates,
    save_embeddings,
    write_candidates,
)

from conftest import (
    TOY_DIR,
    CountingProvider,
    DigestProvider,
    RecordingCache,
    append_raw_entry,
    block_digests,
    log_blocks,
    load_alias_groups,
    load_toy_reference,
    toy_config,
    toy_ranking_cases,
)
from oracles import cosine, rank_by_score, reference_hit_at_k, reference_mrr, reference_p_yes


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


# -- parse reuse within a run -----------------------------------------------------


def _spy_parses(monkeypatch, out_dir: str) -> tuple[list[str], list[str]]:
    """Names of the concept JSONL files parsed, and of the ``out/`` embedding
    files loaded, through the pipeline module from here on."""
    jsonl, embeddings = [], []
    read, load = pipeline_module.read_concept_jsonl, pipeline_module.load_embeddings

    def spy_read(fp):
        jsonl.append(Path(fp.name).name)
        return read(fp)

    def spy_load(path):
        if Path(path).parent == Path(out_dir):
            embeddings.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(pipeline_module, "read_concept_jsonl", spy_read)
    monkeypatch.setattr(pipeline_module, "load_embeddings", spy_load)
    return jsonl, embeddings


@pytest.mark.parametrize("scorer", ["cosine", "pyes"])
def test_a_forced_run_parses_each_artifact_once(tmp_path, monkeypatch, scorer):
    """define alone parses the concepts, embed's enriched concepts serve
    judge (and the pyes scorer), match's embeddings serve the cosine scorer."""
    config = toy_config(tmp_path, few_shot=1, ranking_cases=toy_ranking_cases(tmp_path),
                        ranking_scorer=scorer)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    jsonl, embeddings = _spy_parses(monkeypatch, config.out_dir)
    assert Pipeline(config).run(force=True) == {s: "complete" for s in STAGES}
    assert sorted(jsonl) == [f"{side}.{kind}.jsonl" for side in ("source", "target")
                             for kind in ("concepts", "enriched")]
    assert embeddings == ["source.embeddings.npz", "target.embeddings.npz"]
    assert snapshot(config.out_dir) == before


def test_every_reader_in_a_run_gets_the_one_parse_of_an_artifact(tmp_path, monkeypatch):
    """A parse depends on its artifact's bytes alone, so each reader gets the
    object the run stores, never a copy: embed, judge and the pyes scorer
    one object for each enriched artifact."""
    config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path),
                        ranking_scorer="pyes")
    served = {}
    enriched = StageContext.enriched

    def spy(self, side):
        onto = enriched(self, side)
        artifact = f"{side}.enriched.jsonl"
        assert onto is self._parses[artifact, self._digests[artifact]], (self.stage, artifact)
        served.setdefault(artifact, []).append((self.stage, onto))
        return onto

    monkeypatch.setattr(StageContext, "enriched", spy)
    assert Pipeline(config).run() == {s: "complete" for s in STAGES}
    assert {artifact: [stage for stage, _ in readers] for artifact, readers in served.items()} == {
        f"{side}.enriched.jsonl": ["embed", "judge", "eval"] for side in ("source", "target")}
    for artifact, readers in served.items():
        assert all(onto is readers[0][1] for _, onto in readers), artifact


def test_an_artifact_rewritten_within_a_run_is_parsed_again(tmp_path, monkeypatch):
    """A parse is keyed by the bytes its stage digested: enriched concepts
    rewritten after embed reach judge as written."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    enriched = Path(config.out_dir) / "source.enriched.jsonl"
    rewritten = enriched.read_text(encoding="utf-8").replace(
        "Anatomical structure alpha 01", "Relabelled structure")
    judge_inputs = []
    judge_candidates = pipeline_module.judge_candidates

    def spy_judge(candidates, source, *args, **kwargs):
        judge_inputs.append(source)
        return judge_candidates(candidates, source, *args, **kwargs)

    jsonl, _ = _spy_parses(monkeypatch, config.out_dir)
    monkeypatch.setattr(pipeline_module, "judge_candidates", spy_judge)
    pipeline = Pipeline(config)
    run_stage = pipeline.run_stage

    def rewrite_after_embed(stage, **kwargs):
        status = run_stage(stage, **kwargs)
        if stage == "embed":
            enriched.write_text(rewritten, encoding="utf-8")
        return status

    pipeline.run_stage = rewrite_after_embed
    pipeline.run(stages=["embed", "judge"], force=True)
    assert jsonl.count("source.enriched.jsonl") == 2
    assert jsonl.count("target.enriched.jsonl") == 1
    [source] = judge_inputs
    assert source["http://example.org/src#S01"].label == "Relabelled structure"


def test_define_fills_its_own_parse_and_no_concepts_parse_enters_the_store(tmp_path):
    """Only define reads the concepts, so it fills in the parse it reads
    itself: the run's parse store never holds a concepts artifact, and the
    concepts files stay as ingest wrote them."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    out = Path(config.out_dir)
    concepts = {side: (out / f"{side}.concepts.jsonl").read_bytes()
                for side in ("source", "target")}
    pipeline = Pipeline(config)
    run_stage, stored = pipeline.run_stage, set()

    def record(stage, **kwargs):
        status = run_stage(stage, **kwargs)
        stored.update(artifact for artifact, _ in pipeline._parses)  # before run() drops any
        return status

    pipeline.run_stage = record
    pipeline.run(force=True)
    assert stored and not {a for a in stored if a.endswith(".concepts.jsonl")}
    for side in ("source", "target"):
        assert (out / f"{side}.concepts.jsonl").read_bytes() == concepts[side]
        with open(out / f"{side}.enriched.jsonl", encoding="utf-8") as fp:
            assert all(c.definition for c in read_concept_jsonl(fp).values())


def test_a_parse_is_held_only_until_its_last_reader_in_the_run(tmp_path):
    config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path))
    pipeline = Pipeline(config)
    run_stage, held = pipeline.run_stage, {}

    def record(stage, **kwargs):
        held[stage] = {key[0] for key in pipeline._parses}
        return run_stage(stage, **kwargs)

    pipeline.run_stage = record
    pipeline.run()
    for i, stage in enumerate(STAGES):
        read_later = {a for later in STAGES[i:] for a in STAGE_TABLE[later].reads}
        assert held[stage] <= read_later, stage
    assert held["fuse"] == held["eval"]  # fuse holds nothing of its own
    assert held["eval"] == {"source.embeddings.npz", "target.embeddings.npz",
                            "source.enriched.jsonl", "target.enriched.jsonl"}
    assert pipeline._parses is None


# -- exact matches ---------------------------------------------------------------


def test_ingest_writes_the_exact_matches_of_the_ingested_ontologies(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run(stages=["ingest"])
    out = Path(config.out_dir)
    ontologies = []
    for side in ("source", "target"):
        with open(out / f"{side}.concepts.jsonl", encoding="utf-8") as fp:
            ontologies.append(read_concept_jsonl(fp))
    with open(out / "exact.tsv", encoding="utf-8") as fp:
        written = read_mappings(fp)
    expected = exact_match(*ontologies)
    assert expected and all(m.provenance == "exact" for m in expected)
    assert written == {(m.source, m.target): m for m in expected}


def test_fuse_takes_the_exact_matches_from_exact_tsv_alone(tmp_path, monkeypatch):
    """fuse parses no concepts and matches nothing itself, and without
    ``exact.tsv`` it names ingest rather than compute the matches."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    calls = []
    for name in ("read_concept_jsonl", "exact_match"):
        monkeypatch.setattr(pipeline_module, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    assert Pipeline(config).run_stage("fuse", force=True) == "complete"
    assert snapshot(config.out_dir) == before
    (Path(config.out_dir) / "exact.tsv").unlink()
    with pytest.raises(MissingArtifactError,
                       match="missing artifact 'exact.tsv': run the 'ingest' stage first"):
        Pipeline(config).run_stage("fuse", force=True)
    assert calls == []


def test_an_out_dir_from_before_exact_tsv_resumes_with_one_plain_run(
        tmp_path, counting_toy_provider):
    """An ``out/`` written before ingest wrote ``exact.tsv``: no such file, an
    ingest entry without it, and a fuse entry digested from the concept
    files. Ingest runs again and writes the same concepts, so every stage up
    to judge stays skipped; fuse runs on its new reads and writes the same
    mappings, so eval stays skipped."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    out = Path(config.out_dir)
    before = snapshot(out)
    (out / "exact.tsv").unlink()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    del manifest["stages"]["ingest"]["outputs"]["exact.tsv"]
    manifest["stages"]["fuse"]["input_digest"] = "0" * 64  # stands for the old digest
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    provider = counting_toy_provider(config)
    assert Pipeline(config, provider=provider).run() == {
        s: "complete" if s in ("ingest", "fuse") else "skipped" for s in STAGES}
    assert provider.total_calls == 0
    assert snapshot(out) == before
    assert Pipeline(config, provider=provider).run() == {s: "skipped" for s in STAGES}


@pytest.mark.parametrize("change", ["overwrite", "delete"])
def test_a_changed_or_missing_output_reruns_only_the_stage_that_wrote_it(tmp_path, change):
    """The manifest records each output's hash, so a finished run whose
    mappings.tsv was edited or removed reruns fuse alone, which writes the
    original bytes back; eval, reading them, stays skipped."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    mappings = Path(config.out_dir) / "mappings.tsv"
    if change == "overwrite":
        mappings.write_text("SrcEntity\tTgtEntity\tScore\n", encoding="utf-8")
    else:
        mappings.unlink()
    assert Pipeline(config).run() == {s: "complete" if s == "fuse" else "skipped" for s in STAGES}
    assert snapshot(config.out_dir) == before


@pytest.mark.parametrize("stage", STAGES)
def test_an_entry_naming_an_artifact_its_row_does_not_write_reruns_its_stage(tmp_path, stage):
    """A manifest entry from before an artifact was renamed names files that
    may still exist with the recorded bytes; its stage runs again rather than
    leave the renamed artifact unwritten. Here the stage writes the same
    bytes again, so every other stage stays skipped."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    out = Path(config.out_dir)
    (out / "stale.npy").write_bytes(b"stale")
    before = snapshot(config.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"][stage]["outputs"]["stale.npy"] = hashlib.sha256(b"stale").hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert Pipeline(config).run() == {s: "complete" if s == stage else "skipped" for s in STAGES}
    assert Pipeline(config).run() == {s: "skipped" for s in STAGES}
    assert snapshot(config.out_dir) == before


def test_a_stage_context_refuses_what_its_row_does_not_declare(tmp_path):
    context = StageContext("fuse", toy_config(tmp_path), ResponseCache(tmp_path / "cache"),
                           provider=MockProvider())
    assert context.config.lambda_prob == toy_config(tmp_path).lambda_prob
    with pytest.raises(AttributeError,
                       match="stage 'fuse' does not declare config field 'k' in its STAGE_TABLE"):
        context.config.k
    with pytest.raises(AttributeError, match="stage 'fuse' names no model in its STAGE_TABLE"):
        context.provider
    with pytest.raises(AttributeError, match="stage 'fuse' does not declare artifact "
                                             "'candidates.tsv' in its STAGE_TABLE"):
        context.path("candidates.tsv")


def _readme_library_blocks() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_run_as_written(tmp_path, monkeypatch):
    """README's two library blocks, run from a directory that holds the test
    data: the pipeline completes every stage, and the judged pair scores the
    p_yes that README's comment states."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "data").symlink_to(TOY_DIR.parent, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    run_block, judge_block = _readme_library_blocks()
    run_scope, judge_scope = {}, {}
    exec(compile(run_block, "README.md", "exec"), run_scope)
    assert run_scope["statuses"] == {s: "complete" for s in STAGES}
    exec(compile(judge_block, "README.md", "exec"), judge_scope)
    assert round(judge_scope["judgement"].p_yes, 5) == 0.99909


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    """README's quick-start ``toy.json`` through the command line, from a
    directory that holds the test data: 21 predicted at f1 1.000 and the
    golden mappings, every stage skipped on a rerun, the four cache files
    (two logs, two embedding entries) unchanged by a forced warm run, and
    the same mappings from the spec without ``kind`` under ``--provider
    mock``, into a fresh out/ and cache.
    CI runs the same checks with the installed script."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "data").symlink_to(TOY_DIR.parent, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"cat > toy\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    Path("toy.json").write_text(block, encoding="utf-8")
    runner, golden = CliRunner(), (TOY_DIR / "mappings.golden.tsv").read_bytes()
    result = runner.invoke(main, ["run", "--config", "toy.json"])
    assert result.exit_code == 0, result.output
    metrics = Path("out/toy/metrics.txt").read_text(encoding="utf-8")
    assert re.search(r"^predicted +21$", metrics, re.M)
    assert re.search(r"^f1 +1\.000$", metrics, re.M)
    assert Path("out/toy/mappings.tsv").read_bytes() == golden
    rerun = runner.invoke(main, ["run", "--config", "toy.json"])
    assert rerun.stdout == "".join(f"{stage}: skipped\n" for stage in STAGES)

    def cache_files():
        return {p.as_posix(): p.read_bytes() for p in Path("cache/toy").rglob("*") if p.is_file()}

    cached = cache_files()
    assert sorted(Path(p).suffix for p in cached) == [".log", ".log", ".npz", ".npz"]
    assert runner.invoke(main, ["run", "--config", "toy.json", "--force"]).exit_code == 0
    assert cache_files() == cached

    config = json.loads(block)
    del config["provider"]["kind"]
    config.update(out_dir="out/toy-no-kind", cache_dir="cache/toy-no-kind")
    Path("toy-no-kind.json").write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", "toy-no-kind.json", "--provider", "mock"])
    assert result.exit_code == 0, result.output
    assert Path("out/toy-no-kind/mappings.tsv").read_bytes() == golden


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


def spy_served(monkeypatch) -> list[int]:
    """The served count of each ``ResponseCache.serve`` call from now on."""
    served = []
    real_serve = ResponseCache.serve

    def spy_serve(self, *args, **kwargs):
        result = real_serve(self, *args, **kwargs)
        served.append(result[1])
        return result

    monkeypatch.setattr(ResponseCache, "serve", spy_serve)
    return served


def test_a_cached_judgement_of_the_wrong_shape_is_not_counted_as_served(tmp_path, monkeypatch):
    """A block-sound entry without ``entries`` is recomputed on the calling
    thread; that pair is a provider call, not a cache hit."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    stored = ResponseCache(config.cache_dir).stored("judge")
    append_raw_entry(config.cache_dir, "judge", sorted(stored)[0], b'{"p_yes": 0.5}')
    served = spy_served(monkeypatch)
    provider = CountingProvider(make_provider(config))
    assert Pipeline(config, provider=provider).run_stage("judge", force=True) == "complete"
    pairs = len((Path(config.out_dir) / "judgements.tsv").read_text().splitlines()) - 1
    assert provider.classify_calls == 1
    assert served == [pairs - 1]


def test_bad_judge_blocks_are_recomputed_in_the_pool_and_stay_in_the_log(tmp_path, monkeypatch,
                                                                         caplog):
    """One flipped byte inside the judge log's second block and its last
    block torn mid-way: a forced judge run asks the provider again for
    exactly the entries of those two blocks, on pool threads, stores them on
    the calling thread and serves the rest. The bad bytes
    stay where they were, the recomputed entries are appended after them,
    and every later load skips both blocks again and serves every entry."""
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
    bad = bytes(data[:(start + end) // 2])
    log.write_bytes(bad)

    put_on = {}
    real_put = ResponseCache.put

    def recorded_put(self, kind, digest, payload):
        put_on[digest] = threading.current_thread().name
        return real_put(self, kind, digest, payload)

    monkeypatch.setattr(ResponseCache, "put", recorded_put)
    served = spy_served(monkeypatch)
    provider = CountingProvider(make_provider(config))
    classified_on = []
    classify = provider.classify_first_token

    def recorded_classify(messages):
        classified_on.append(threading.current_thread().name)
        return classify(messages)

    provider.classify_first_token = recorded_classify
    with caplog.at_level("WARNING", logger="ontomatch.cache"):
        assert Pipeline(config, provider=provider).run_stage("judge", force=True) == "complete"
    assert sum("bad block" in m for m in caplog.messages) == 2
    assert set(put_on) == lost and provider.classify_calls == len(lost)
    assert len(classified_on) == len(lost) and "MainThread" not in classified_on
    assert served == [sum(map(len, blocks)) - len(lost)]
    assert snapshot(config.out_dir) == before
    assert log.read_bytes()[:len(bad)] == bad
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="ontomatch.cache"):
            assert len(ResponseCache(config.cache_dir).stored("judge")) == sum(map(len, blocks))
        assert sum("bad block" in m for m in caplog.messages) == 2


def test_a_cold_run_uses_the_cache_on_the_calling_thread_only(tmp_path, monkeypatch):
    """Pool threads only call the provider: every cache lookup, store and
    log append of a cold toy run runs on the thread that runs the pipeline."""
    used_on = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            used_on.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return call

    for name in ("stored", "get", "put", "get_or_compute"):
        monkeypatch.setattr(ResponseCache, name, recorded(name, getattr(ResponseCache, name)))
    monkeypatch.setattr(cache_module, "_append", recorded("append", cache_module._append))
    config = toy_config(tmp_path)
    provider = CountingProvider(make_provider(config))
    provider.generate = recorded("generate", provider.generate)
    provider.classify_first_token = recorded("classify", provider.classify_first_token)
    Pipeline(config, provider=provider).run()
    here = threading.current_thread()
    chat = {"generate", "classify"}
    assert {name for name, _ in used_on} == {"stored", "get", "put", "get_or_compute",
                                             "append"} | chat
    assert {thread for name, thread in used_on if name not in chat} == {here}
    assert here not in {thread for name, thread in used_on if name in chat}


# The killed run's pool width. The lost answers are bounded by
# QUEUE_PER_WORKER * width + BLOCK_ENTRIES, which stays below the 150 calls
# the kill allows only at a width this narrow.
_KILLED_WIDTH = 8
_KILLED_RUN = f"""
import os, sys, threading
from pathlib import Path
from conftest import toy_config
from ontomatch.pipeline import Pipeline, make_provider

config = toy_config(Path(sys.argv[1]), max_workers={_KILLED_WIDTH})
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


def _killed_toy_run(tmp_path: Path, script: str, *args: str) -> PipelineConfig:
    """The toy config under ``tmp_path``, after ``script`` ran a toy run
    there in a subprocess and exited with status 3."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")) if p)
    killed = subprocess.run([sys.executable, "-c", script, str(tmp_path), *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert killed.returncode == 3, killed.stderr
    return toy_config(tmp_path)


def test_a_run_killed_mid_judge_resumes_to_the_same_artifacts(tmp_path):
    """A cold toy run on 8 workers exits abruptly after its 150th classify
    call; the rerun, at the default width, sends exactly the pairs whose
    answers the kill lost, at most the pool's queue and one open block, and
    writes what an uninterrupted run writes."""
    config = _killed_toy_run(tmp_path / "killed", _KILLED_RUN, "150")
    kept = len(ResponseCache(config.cache_dir).stored("judge"))
    assert 0 < 150 - kept <= QUEUE_PER_WORKER * _KILLED_WIDTH + BLOCK_ENTRIES

    provider = CountingProvider(make_provider(config))
    Pipeline(config, provider=provider).run()
    pairs = len(ResponseCache(config.cache_dir).stored("judge"))
    assert provider.total_calls == provider.classify_calls == pairs - kept
    whole = toy_config(tmp_path / "whole")
    Pipeline(whole).run()
    assert snapshot(config.out_dir) == snapshot(whole.out_dir)


def test_the_pool_width_changes_no_artifact_or_cache_byte(tmp_path):
    """A cold toy run on one worker and one at the default width write the
    same artifacts and the same cache logs, byte for byte."""
    def cold(name: str, **overrides) -> dict[str, bytes]:
        config = toy_config(tmp_path / name, **overrides)
        Pipeline(config).run()
        files = [Path(config.out_dir) / artifact for artifact in
                 ("candidates.tsv", "judgements.tsv", "mappings.tsv", "metrics.json")]
        files += [Path(config.cache_dir) / log for log in ("define.log", "judge.log")]
        return {path.name: path.read_bytes() for path in files}

    assert toy_config(tmp_path).max_workers == DEFAULT_MAX_WORKERS > 1
    assert cold("one", max_workers=1) == cold("wide")


_KILLED_AT_FUSE_RECORD = """
import os, sys
from pathlib import Path
from conftest import toy_config
from ontomatch.pipeline import Pipeline, StageManifest

save = StageManifest.save

def killing_save(self):
    if "fuse" in self.stages:
        os._exit(3)
    save(self)

StageManifest.save = killing_save
Pipeline(toy_config(Path(sys.argv[1]))).run()
"""


def test_a_run_killed_before_fuse_is_recorded_reruns_only_fuse_and_eval(tmp_path):
    """A cold toy run exits abruptly while the manifest records fuse, after
    ``mappings.tsv`` was renamed into place; the rerun re-runs fuse and eval
    only, with no provider call, and writes what an uninterrupted run writes."""
    config = _killed_toy_run(tmp_path / "killed", _KILLED_AT_FUSE_RECORD)
    out = Path(config.out_dir)
    assert (out / "mappings.tsv").exists() and not (out / "metrics.json").exists()
    assert "fuse" not in StageManifest(out / "manifest.json").stages

    provider = CountingProvider(make_provider(config))
    statuses = Pipeline(config, provider=provider).run()
    assert statuses == {stage: "complete" if stage in ("fuse", "eval") else "skipped"
                        for stage in STAGES}
    assert provider.total_calls == 0
    whole = toy_config(tmp_path / "whole")
    Pipeline(whole).run()
    assert snapshot(config.out_dir) == snapshot(whole.out_dir)


def test_provenance_counts_on_toy_run(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    with open(Path(config.out_dir) / "mappings.tsv", encoding="utf-8") as fp:
        mappings = read_mappings(fp)
    counts: dict[str, int] = {}
    for m in mappings.values():
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
    """Ranking metrics with each pair judged on its own, by a one-pair
    ``judge_candidates`` with a cache of its own; a pair with a missing
    concept scores 0.0."""
    out = Path(config.out_dir)
    ontologies = []
    for name in ("source.enriched.jsonl", "target.enriched.jsonl"):
        with open(out / name, encoding="utf-8") as fp:
            ontologies.append(read_concept_jsonl(fp))
    source, target = ontologies
    provider = make_provider(config)
    cache = ResponseCache(out / "oracle-cache")

    def p_yes(s, t):
        if s not in source or t not in target:
            return 0.0
        [judgement] = judge_candidates({s: [(t, 0.0)]}, source, target, provider, cache,
                                       shots=config.shots, softmax_mode=config.softmax_mode)
        return judgement.p_yes

    return _ranking_oracle(cases_path, p_yes)


def _cosine_oracle(config: PipelineConfig, cases_path: str) -> tuple[float, dict[str, float]]:
    """Ranking metrics with each pair scored by ``oracles.cosine`` over the
    embedding artifacts; a pair with a missing concept scores -1.0."""
    vectors = []
    for name in ("source.embeddings.npz", "target.embeddings.npz"):
        iris, matrix = load_embeddings(Path(config.out_dir) / name)
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
        dict(zip(*load_embeddings(Path(config.out_dir) / f"{side}.embeddings.npz")))
        for side in ("source", "target")
    )
    pairs = _toy_ranking_pairs(cases_path)
    scores = pipeline_module._ranking_scorer(_eval_context(pipeline))(pairs)
    assert len(pairs) == 21 * 4
    for s, t in pairs:
        assert scores[(s, t)].hex() == retrieval_module.cosine(source[s], target[t]).hex()


def test_cosine_ranking_scorer_scores_a_zero_norm_vector_as_absent(tmp_path, monkeypatch,
                                                                     caplog):
    """A zero-norm vector counts as a missing concept, as in match: each pair
    with it scores -1.0, under one warning, and every other pair's score is
    bit for bit what it was."""
    cases_path = toy_ranking_cases(tmp_path)
    config = toy_config(tmp_path, ranking_cases=cases_path, ranking_scorer="cosine")
    pipeline = Pipeline(config)
    pipeline.run()
    pairs = _toy_ranking_pairs(cases_path)
    s, t = pairs[0]
    scores = pipeline_module._ranking_scorer(_eval_context(pipeline))(pairs)
    load = pipeline_module.load_embeddings

    def zero_first_target(path):
        iris, matrix = load(path)
        if Path(path).name == "target.embeddings.npz":
            matrix = matrix.copy()
            matrix[iris.index(t)] = 0.0
        return iris, matrix

    monkeypatch.setattr(pipeline_module, "load_embeddings", zero_first_target)
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        zeroed = pipeline_module._ranking_scorer(_eval_context(pipeline))(pairs)
    absent = [pair for pair in pairs if pair[1] == t]
    assert len(absent) > 1 and (s, t) in absent
    assert {pair: score for pair, score in zeroed.items() if pair in absent} == dict.fromkeys(
        absent, -1.0)
    assert all(zeroed[pair].hex() == scores[pair].hex() for pair in pairs if pair not in absent)
    assert [m for m in caplog.messages if "ranking-case" in m] == [
        f"{len(absent)} ranking-case pairs scored -1.0, a concept missing from the embedding "
        f"artifacts or of zero norm; the first: {absent[:3]}"]


def test_eval_warns_once_for_bio_ml_candidate_tuples_it_reads_as_one_absent_target(tmp_path,
                                                                                     caplog):
    """A row in Bio-ML's own layout, its candidates one Python tuple literal,
    is read as a single candidate that no target concept has: its gold ranks
    first, and eval says how many pairs had no vector to score."""
    rows = [line.split("\t") for line in
            Path(toy_ranking_cases(tmp_path)).read_text().splitlines()]
    cases_path = tmp_path / "test.cands.tsv"
    cases_path.write_text("".join(f"{s}\t{gold}\t{tuple(negatives)!r}\n"
                                  for s, gold, *negatives in rows), encoding="utf-8")
    config = toy_config(tmp_path, ranking_cases=str(cases_path), ranking_scorer="cosine")
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        Pipeline(config).run()
    metrics = read_metrics(config.out_dir)
    assert (metrics["mrr"], set(metrics["hit_at"].values())) == (1.0, {1.0})
    warnings = [m for m in caplog.messages if "ranking-case pairs scored -1.0" in m]
    assert len(warnings) == 1 and warnings[0].startswith(f"{len(rows)} ranking-case pairs")
    assert repr(tuple(rows[0][2:])) in warnings[0]


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
    src_iris, src_matrix = load_embeddings(out / "source.embeddings.npz")
    tgt_iris, tgt_matrix = load_embeddings(out / "target.embeddings.npz")
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
        mappings = read_mappings(fp).values()
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
    # the definition prompt names both vocabularies, and nothing else does
    Pipeline(toy_config(tmp_path)).run()
    results = Pipeline(toy_config(tmp_path, source_name="renamed-src")).run()
    assert results["ingest"] == "skipped"
    assert results["define"] == "complete"


def test_changed_sampling_params_ask_for_every_definition_again(tmp_path,
                                                                counting_toy_provider):
    """A definition's cache key names the sampling parameters it was
    generated with, so a changed ``max_tokens`` misses every cached one, and
    a forced rerun under it is served from the cache."""
    config = toy_config(tmp_path)
    cold = counting_toy_provider(config)
    Pipeline(config, provider=cold).run()
    changed = toy_config(tmp_path, max_tokens=16)
    first, second = counting_toy_provider(changed), counting_toy_provider(changed)
    assert Pipeline(changed, provider=first).run()["define"] == "complete"
    assert first.generate_calls == cold.generate_calls > 0
    assert Pipeline(changed, provider=second).run(force=True)["define"] == "complete"
    assert second.generate_calls == 0


def test_a_changed_alias_file_reruns_define_through_eval(tmp_path):
    """The mock's alias groups shape its vectors and answers, so its model
    ids name them: a changed file re-runs every stage after ingest, and a
    fresh ``out/`` over the shared cache writes what a fresh cache does."""
    aliases = tmp_path / "aliases.json"
    aliases.write_text(json.dumps(load_alias_groups()))
    provider = dict(toy_config(tmp_path).provider, alias_groups_file=str(aliases))
    config = toy_config(tmp_path, provider=provider)
    Pipeline(config).run()
    aliased = snapshot(config.out_dir)

    aliases.write_text("[]")
    assert Pipeline(config).run() == {s: "skipped" if s == "ingest" else "complete"
                                      for s in STAGES}
    assert snapshot(config.out_dir) != aliased
    shared_cache = toy_config(tmp_path, provider=provider, out_dir=str(tmp_path / "fresh-out"))
    Pipeline(shared_cache).run()
    fresh_cache = toy_config(tmp_path / "fresh", provider=provider)
    Pipeline(fresh_cache).run()
    assert snapshot(shared_cache.out_dir) == snapshot(fresh_cache.out_dir)
    assert snapshot(config.out_dir) == snapshot(fresh_cache.out_dir)


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
            llm = [m for m in read_mappings(fp).values() if m.provenance != "exact"]
        assert all(decisions[(m.source, m.target)] == "yes" for m in llm)
    assert seen == {"yes", "no"}


def test_torn_embedding_cache_entry_is_recomputed(tmp_path, counting_toy_provider, caplog):
    config = toy_config(tmp_path)
    Pipeline(config).run(stages=["ingest", "define", "embed"])
    before = snapshot(config.out_dir)
    entries = sorted((tmp_path / "cache" / "embed").iterdir())
    assert [entry.suffix for entry in entries] == [".npz", ".npz"]
    original = entries[0].read_bytes()
    torn = bytearray(original)
    torn[original.index(load_embeddings(entries[0])[1].tobytes())] ^= 0x01  # under the CRC-32
    entries[0].write_bytes(bytes(torn))

    provider = counting_toy_provider(config)
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        results = Pipeline(config, provider=provider).run(stages=["embed"], force=True)
    assert results == {"embed": "complete"}
    assert provider.embed_calls == 1
    assert any("corrupt embedding cache entry" in r.getMessage() for r in caplog.records)
    assert snapshot(config.out_dir) == before
    assert entries[0].read_bytes() == original


def test_an_embedding_cache_entry_one_row_short_is_recomputed(tmp_path, counting_toy_provider,
                                                               caplog):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    entry = sorted((tmp_path / "cache" / "embed").iterdir())[0]
    original = entry.read_bytes()
    iris, matrix = load_embeddings(entry)
    save_embeddings(entry, iris[:-1], matrix[:-1])  # a valid file, one row short

    provider = counting_toy_provider(config)
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        results = Pipeline(config, provider=provider).run(stages=["embed"], force=True)
    assert results == {"embed": "complete"}
    assert provider.total_calls == provider.embed_calls == 1
    assert sum("corrupt embedding cache entry" in r.getMessage() for r in caplog.records) == 1
    assert entry.read_bytes() == original
    assert snapshot(config.out_dir) == before


def _nan_in_row_1(entry) -> str:
    iris, matrix = load_embeddings(entry)
    matrix[1] = np.nan
    save_embeddings(entry, iris, matrix)  # a valid file, its CRC-32 sound
    return "a float64 matrix with a value that is not a finite number"


def _iris_as_text(entry) -> str:
    iris, matrix = load_embeddings(entry)
    text = np.array(iris)
    np.savez(entry, iris=text, matrix=matrix)  # a valid file, its IRIs str, not bytes
    return repr(ValueError(f"IRIs in a 1-D {text.dtype} array, not 1-D bytes"))


@pytest.mark.parametrize("spoil", [_nan_in_row_1, _iris_as_text], ids=["nan", "text-iris"])
def test_a_corrupt_embedding_cache_entry_is_recomputed(tmp_path, counting_toy_provider, caplog,
                                                       spoil):
    """``spoil`` rewrites an embed cache entry as a valid file that
    ``load_embeddings`` rejects and returns the rejection: a forced embed
    recomputes the entry with one warning and one embed call, and leaves it
    and the artifacts as they were."""
    config = toy_config(tmp_path)
    Pipeline(config).run()
    before = snapshot(config.out_dir)
    entry = sorted((tmp_path / "cache" / "embed").iterdir())[0]
    original = entry.read_bytes()
    message = spoil(entry)

    provider = counting_toy_provider(config)
    with caplog.at_level("WARNING", logger="ontomatch.pipeline"):
        results = Pipeline(config, provider=provider).run(stages=["embed"], force=True)
    assert results == {"embed": "complete"}
    assert provider.total_calls == provider.embed_calls == 1
    assert [m for m in caplog.messages if "corrupt embedding cache entry" in m] == [
        f"recomputing corrupt embedding cache entry {entry.stem}: malformed embedding file "
        f"{entry}: {message}"]
    assert entry.read_bytes() == original
    assert snapshot(config.out_dir) == before


class ZeroEmbeddingProvider(CountingProvider):
    """Its embedding of the concept labelled ``label`` is the zero vector."""

    def __init__(self, inner, label):
        super().__init__(inner)
        self.label = label

    def embed_batch(self, texts):
        return [vector * 0.0 if text.startswith(f"Label: {self.label};") else vector
                for text, vector in zip(texts, super().embed_batch(texts))]


@pytest.mark.parametrize("label, iri, bidirectional", [
    ("ANATOMICAL STRUCTURE ALPHA 04", "http://example.org/tgt#T04", False),
    ("Anatomical structure alpha 04", "http://example.org/src#S04", True),
])
def test_a_zero_norm_stored_embedding_is_left_out_of_the_index(tmp_path, caplog, label, iri,
                                                                bidirectional):
    """One concept embedded as the zero vector: match leaves it out of the
    index it would be stored in, with one warning naming it, writes no
    candidate row with it, and eval scores each ranking pair with it -1.0,
    under one warning."""
    cases_path = toy_ranking_cases(tmp_path)
    config = toy_config(tmp_path, bidirectional=bidirectional, ranking_cases=cases_path)
    provider = ZeroEmbeddingProvider(make_provider(config), label)
    pipeline = Pipeline(config, provider=provider)
    with caplog.at_level("WARNING", logger="ontomatch.retrieval"):
        results = pipeline.run()
    assert set(results.values()) == {"complete"}
    assert [m for m in caplog.messages if "zero-norm" in m] == [
        f"zero-norm embeddings left out of the index: {[iri]}"]
    absent = list(dict.fromkeys(pair for pair in _toy_ranking_pairs(cases_path) if iri in pair))
    warned = [m for m in caplog.messages if "ranking-case pairs scored -1.0" in m]
    assert len(warned) == 1 and warned[0].startswith(f"{len(absent)} ranking-case pairs")
    with open(Path(config.out_dir) / "candidates.tsv", encoding="utf-8") as fp:
        candidates = read_candidates(fp)
    assert candidates and iri not in candidates
    assert all(iri not in (t for t, _ in cands) for cands in candidates.values())
    scores = pipeline_module._ranking_scorer(_eval_context(pipeline))(absent)
    assert absent and scores == dict.fromkeys(absent, -1.0)


def test_an_index_of_only_zero_norm_embeddings_fails_match(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run(stages=["ingest", "define", "embed"])
    path = Path(config.out_dir) / "target.embeddings.npz"
    iris, matrix = load_embeddings(path)
    save_embeddings(path, iris, matrix * 0.0)
    with pytest.raises(ItemError, match="zero-norm vectors for"):
        Pipeline(config).run_stage("match", force=True)


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
    old_iris, old_matrix = load(tmp_path / "first" / "source.embeddings.npz")
    new_iris, new_matrix = load(tmp_path / "second" / "source.embeddings.npz")
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


def _input_digests(config: PipelineConfig) -> dict[str, str]:
    """Each stage's input digest over ``config``, with the provider only
    where the stage's row names a model, as ``Pipeline.run_stage`` builds it."""
    cache, provider = ResponseCache(Path(config.cache_dir)), make_provider(config)
    return {stage: StageContext(stage, config, cache,
                                provider if STAGE_TABLE[stage].model else None).input_digest()
            for stage in STAGES}


def _perturbations(base: PipelineConfig, tmp_path: Path) -> dict:
    """A changed value of every config field but ``NO_DIGEST_EFFECT``'s; an
    input file's is an edited copy of it under ``tmp_path``."""

    def edited_copy(path: str) -> str:
        copy = tmp_path / ("edited-" + Path(path).name)
        copy.write_bytes(Path(path).read_bytes() + b"\n")
        return str(copy)

    return {
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


def test_softmax_mode_full_scores_each_pair_on_its_whole_cached_distribution(tmp_path,
                                                                             monkeypatch):
    """Under ``DigestProvider``, whose replies carry a third token, ``Maybe``,
    each ``PYes`` of a toy run in ``full`` mode is the mpmath full-mode value
    of its pair's cached first-token distribution, and some differ from a
    ``pair`` run's."""
    keys = {}
    judge_pair = judge_module.judge_pair
    printed = {}
    for mode in ("full", "pair"):
        config = toy_config(tmp_path / mode, softmax_mode=mode)
        cache = RecordingCache(config.cache_dir)

        def recording_judge_pair(source, target, *args):
            # Each pair is judged cold, so its accept runs inside its lookup.
            keys[source, target] = cache.key()[1]
            return judge_pair(source, target, *args)

        monkeypatch.setattr(judge_module, "judge_pair", recording_judge_pair)
        pipeline = Pipeline(config, provider=DigestProvider(config))
        pipeline.cache = cache
        pipeline.run()
        rows = (Path(config.out_dir) / "judgements.tsv").read_text(encoding="utf-8")
        printed[mode] = {tuple(row[:2]): row[3]
                         for row in (line.split("\t") for line in rows.splitlines()[1:])}
    assert printed["full"].keys() == printed["pair"].keys() == keys.keys()
    cache = ResponseCache(tmp_path / "full" / "cache")
    for pair, p in printed["full"].items():
        entries = cache.get("judge", keys[pair])["entries"]
        assert "Maybe" in entries
        assert p == f"{reference_p_yes(entries, mode='full'):.8f}"
    assert any(printed["full"][pair] != printed["pair"][pair] for pair in keys)


def _perturbation_base(tmp_path: Path) -> PipelineConfig:
    return toy_config(tmp_path, few_shot=1, ranking_cases=toy_ranking_cases(tmp_path))


def test_every_config_field_enters_some_stage_digest(tmp_path):
    base = _perturbation_base(tmp_path)
    Pipeline(base).run()
    base_digests = _input_digests(base)
    perturbed = _perturbations(base, tmp_path)
    for field in dataclasses.fields(PipelineConfig):
        if field.name in NO_DIGEST_EFFECT:
            continue
        assert field.name in perturbed, (
            f"{field.name} needs a STAGE_TABLE entry and a perturbation here"
        )
        value = perturbed[field.name]
        assert value != getattr(base, field.name)
        digests = _input_digests(dataclasses.replace(base, **{field.name: value}))
        changed = [s for s in STAGES if digests[s] != base_digests[s]]
        assert changed, f"changing {field.name} changes no stage digest"


@pytest.fixture(scope="module")
def digest_base_run(tmp_path_factory) -> PipelineConfig:
    """The config of a finished perturbation-base run under ``DigestProvider``,
    whose two inputs are copies of the toy pair's under the run's directory."""
    root = tmp_path_factory.mktemp("base")
    base = _perturbation_base(root)
    base = dataclasses.replace(base, **{
        side: str(shutil.copy(getattr(base, side), root / f"{side}.jsonl")) for side in SIDES})
    Pipeline(base, provider=DigestProvider(base)).run()
    return base


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PipelineConfig)
                                   if f.name not in NO_DIGEST_EFFECT])
def test_a_resumed_run_of_a_changed_config_writes_what_a_fresh_run_writes(
        tmp_path, digest_base_run, field):
    """A copy of a finished run, resumed under one changed field, writes
    every artifact as a run of the changed config into a fresh ``out/`` and
    cache does, and then skips every stage. ``DigestProvider`` answers a
    digest of its arguments, so a cached answer served for other arguments
    than its own, or a stage skipped on inputs it did not digest, shows."""
    base = digest_base_run
    value = _perturbations(base, tmp_path)[field]
    resumed, fresh = (dataclasses.replace(base, out_dir=str(tmp_path / run / "out"),
                                          cache_dir=str(tmp_path / run / "cache"),
                                          **{field: value})
                      for run in ("resumed", "fresh"))
    shutil.copytree(base.out_dir, resumed.out_dir)
    shutil.copytree(base.cache_dir, resumed.cache_dir)
    for config in (resumed, fresh):
        Pipeline(config, provider=DigestProvider(config)).run()
    assert snapshot(resumed.out_dir) == snapshot(fresh.out_dir)
    provider = CountingProvider(DigestProvider(resumed))
    assert Pipeline(resumed, provider=provider).run() == {s: "skipped" for s in STAGES}
    assert provider.total_calls == 0


INPUT_EDITS = {
    "relabelled": lambda rows: [dict(rows[0], label="Relabelled concept"), *rows[1:]],
    "added": lambda rows: [*rows, {"iri": rows[0]["iri"] + "-added", "label": "Added concept"}],
    "dropped": lambda rows: rows[:-1],
}


@pytest.mark.parametrize("edit", INPUT_EDITS)
@pytest.mark.parametrize("side", SIDES)
def test_an_edited_input_writes_what_a_fresh_run_writes(tmp_path, digest_base_run, side, edit):
    """A copy of a finished run whose input had one concept relabelled,
    added or dropped, in place at the path the run read: a plain run writes
    every artifact as a run of the edited inputs into a fresh ``out/`` and
    cache does, and a second skips every stage with no provider call."""
    base = digest_base_run
    resumed, fresh = (dataclasses.replace(base, out_dir=str(tmp_path / run / "out"),
                                          cache_dir=str(tmp_path / run / "cache"))
                      for run in ("resumed", "fresh"))
    shutil.copytree(base.out_dir, resumed.out_dir)
    shutil.copytree(base.cache_dir, resumed.cache_dir)
    path = Path(getattr(base, side))
    original = path.read_bytes()
    rows = [json.loads(line) for line in original.decode("utf-8").splitlines()]
    try:
        path.write_text("".join(json.dumps(row) + "\n" for row in INPUT_EDITS[edit](rows)),
                        encoding="utf-8")
        for config in (resumed, fresh):
            Pipeline(config, provider=DigestProvider(config)).run()
        assert snapshot(resumed.out_dir) == snapshot(fresh.out_dir)
        provider = CountingProvider(DigestProvider(resumed))
        assert Pipeline(resumed, provider=provider).run() == {s: "skipped" for s in STAGES}
        assert provider.total_calls == 0
    finally:
        path.write_bytes(original)  # the other tests read the finished run's inputs


def _flip_middle_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(data)


ARTIFACTS = [a for row in STAGE_TABLE.values() for a in row.writes]
ARTIFACT_EDITS = {
    "deleted": Path.unlink,
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
    "flipped": _flip_middle_byte,
}


@pytest.fixture(scope="module")
def finished_toy_run(tmp_path_factory) -> PipelineConfig:
    """The config of a finished toy run with ranking cases."""
    config = _perturbation_base(tmp_path_factory.mktemp("finished"))
    Pipeline(config).run()
    return config


@pytest.mark.parametrize("edit", ARTIFACT_EDITS)
@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_an_edited_artifact_is_rebuilt_from_the_cache(tmp_path, finished_toy_run, artifact, edit):
    """A copy of a finished run whose artifact was deleted, truncated to half
    or had one byte flipped: a plain run rebuilds every artifact as the
    finished run wrote it, with no provider call, and a second skips every
    stage."""
    base = finished_toy_run
    config = dataclasses.replace(base, out_dir=str(tmp_path / "out"),
                                 cache_dir=str(tmp_path / "cache"))
    shutil.copytree(base.out_dir, config.out_dir)
    shutil.copytree(base.cache_dir, config.cache_dir)
    finished = snapshot(base.out_dir)
    assert sorted(finished) == sorted(ARTIFACTS)
    ARTIFACT_EDITS[edit](Path(config.out_dir) / artifact)
    provider = CountingProvider(make_provider(config))
    Pipeline(config, provider=provider).run()
    assert snapshot(config.out_dir) == finished
    assert Pipeline(config, provider=provider).run() == {s: "skipped" for s in STAGES}
    assert provider.total_calls == 0


LOG_EDITS = {
    "appended": lambda path: path.write_bytes(path.read_bytes() + b"garbage"),
    "truncated": ARTIFACT_EDITS["truncated"],
    "flipped": ARTIFACT_EDITS["flipped"],
}


@pytest.mark.parametrize("edit", LOG_EDITS)
@pytest.mark.parametrize("log", ["define.log", "judge.log"])
def test_an_edited_cache_log_still_gives_the_finished_artifacts(tmp_path, finished_toy_run,
                                                                log, edit):
    """A copy of a finished run's cache whose log had garbage appended, was
    truncated to half or had its middle byte flipped: a run into a fresh
    out/ writes every artifact as the finished run did, asking the provider
    again for what the edit lost, and a forced run after it asks for
    nothing."""
    base = finished_toy_run
    config = dataclasses.replace(base, out_dir=str(tmp_path / "out"),
                                 cache_dir=str(tmp_path / "cache"))
    shutil.copytree(base.cache_dir, config.cache_dir)
    LOG_EDITS[edit](Path(config.cache_dir) / log)
    Pipeline(config).run()
    assert snapshot(config.out_dir) == snapshot(base.out_dir)
    provider = CountingProvider(make_provider(config))
    assert Pipeline(config, provider=provider).run(force=True) == {s: "complete" for s in STAGES}
    assert provider.total_calls == 0
    assert snapshot(config.out_dir) == snapshot(base.out_dir)


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
    """A property a row names (``shots``) covers the fields its getter reads,
    and a row that names a model covers the fields ``make_provider`` reads."""
    config = toy_config(tmp_path, few_shot=1)
    declared = set()
    for row in STAGE_TABLE.values():
        for name in row.files + row.config:
            prop = getattr(PipelineConfig, name, None)
            declared |= _fields_read(prop.fget, config) if isinstance(prop, property) else {name}
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


def test_define_limit_records_partial_then_resumes(tmp_path, counting_toy_provider):
    config = toy_config(tmp_path)
    provider = counting_toy_provider(config)
    pipeline = Pipeline(config, provider=provider)
    pipeline.run(stages=["ingest"])
    assert pipeline.run_stage("define", limit=10) == "partial"
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    assert manifest["stages"]["define"]["status"] == "partial"
    calls = provider.generate_calls
    assert calls > 0

    # cached items count toward the limit: the same limit takes the same
    # concepts again, so it makes no provider call and stays partial
    assert pipeline.run_stage("define", limit=10) == "partial"
    assert provider.generate_calls == calls

    # a partial stage is never skipped; the rerun finishes the remainder
    assert pipeline.run_stage("define") == "complete"
    enriched = (Path(config.out_dir) / "target.enriched.jsonl").read_text()
    assert '"definition": null' not in enriched


class FailingConceptProvider(CountingProvider):
    """Its generate call for the concept labelled ``label`` raises an ``ItemError``."""

    def __init__(self, inner, label):
        super().__init__(inner)
        self.label = label

    def generate(self, messages, params):
        if messages[-1]["content"].startswith(f"Concept: {self.label}\n"):
            self.generate_calls += 1
            raise ItemError("backend down")
        return super().generate(messages, params)


def test_a_failed_definition_is_not_cached_and_only_it_is_asked_for_again(tmp_path):
    """One concept's generate call fails: define is partial and caches
    nothing for that concept, the later stages still run, and a rerun with
    a healthy provider makes one generate call and writes what an
    uninterrupted run writes."""
    config = toy_config(tmp_path / "failed")
    provider = FailingConceptProvider(make_provider(config), "Anatomical structure alpha 02")
    assert Pipeline(config, provider=provider).run()["define"] == "partial"
    with open(Path(config.out_dir) / "source.enriched.jsonl", encoding="utf-8") as fp:
        enriched = read_concept_jsonl(fp)
    undefined = [iri for iri, c in enriched.items() if c.definition is None]
    assert undefined == ["http://example.org/src#S02"]
    assert len(ResponseCache(config.cache_dir).stored("define")) == provider.generate_calls - 1

    rerun = CountingProvider(make_provider(config))
    assert Pipeline(config, provider=rerun).run()["define"] == "complete"
    assert rerun.generate_calls == 1
    whole = toy_config(tmp_path / "whole")
    Pipeline(whole).run()
    assert snapshot(config.out_dir) == snapshot(whole.out_dir)


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
    """Appends to the judge log fail: the store that fills the first block
    raises, so the stage fails having sent at most a pool's worth of pairs
    past that block. Nothing reached the log, so the next run recomputes
    every pair, the answers of the failed run included. The width is pinned
    at 8, so that bound stays as tight as 160 pairs."""
    config = toy_config(tmp_path, max_workers=8)
    provider = CountingProvider(make_provider(config))
    pipeline = Pipeline(config, provider=provider)
    pipeline.run(stages=["ingest", "define", "embed", "match"])
    real_append = cache_module._append

    def refuse_judge(path, data):
        if path.endswith("judge.log"):
            raise OSError(f"cannot append to {path}")
        real_append(path, data)

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


def test_run_rejects_unknown_stages_before_writing_anything(tmp_path):
    config = toy_config(tmp_path)
    with pytest.raises(ValueError, match="unknown stage 'judg', 'fused'$"):
        Pipeline(config).run(stages=["ingest", "judg", "fused"])
    assert not Path(config.out_dir).exists()
    assert not Path(config.cache_dir).exists()


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
    assert PipelineConfig(few_shot=0).shots == ()
    assert PipelineConfig(few_shot=2).shots == DEFAULT_FEW_SHOT
    assert PipelineConfig(few_shot=1).shots == DEFAULT_FEW_SHOT[:1]
    with pytest.raises(ConfigError, match="only 2 examples"):
        PipelineConfig(few_shot=3).shots


def test_config_custom_few_shot_examples():
    config = PipelineConfig(few_shot=1, few_shot_examples=[{
        "a": {"label": "x"}, "b": {"label": "y"}, "answer": "NO",
    }])
    (shot,) = config.shots
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
    assert provider.embed_model_id == "mock-embed-d32-s7-acccb00f1aa26"
    assert provider.alias.canonicalize("b") == "a"


def test_make_provider_http_kind():
    provider = make_provider(PipelineConfig(provider={
        "kind": "http", "base_url": "http://example.test/v1",
    }))
    assert isinstance(provider, HttpProvider)


@pytest.mark.parametrize("width", [5, DEFAULT_MAX_WORKERS])
def test_make_provider_keeps_one_http_connection_per_worker(width):
    """The session an http provider builds pools as many connections per
    host as the config's max_workers, for http and https alike."""
    provider = make_provider(PipelineConfig(max_workers=width, provider={
        "kind": "http", "base_url": "http://example.test/v1",
    }))
    try:
        for url in ("http://example.test/v1", "https://example.test/v1"):
            adapter = provider._session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == width
    finally:
        provider.close()


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
            enriched = read_concept_jsonl(fp)
        assert len(enriched) == 30
        assert all(c.definition is None for c in enriched.values())
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


def test_cli_provider_mock_keeps_a_spec_without_kind(tmp_path):
    """A spec without ``kind`` is mock, so ``--provider mock`` keeps it and
    ``--provider http`` replaces it."""
    spec = {key: value for key, value in toy_config(tmp_path).provider.items() if key != "kind"}
    config_path = write_config_file(tmp_path, provider=spec)
    assert build_config(config_path, provider="mock").provider == spec
    assert build_config(config_path, provider="http").provider == {"kind": "http"}


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


def _assert_one_clean_error(result, message: str) -> None:
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and message in errors[0], result.output


def test_cli_reports_a_corrupt_embedding_artifact_and_a_run_rebuilds_it(tmp_path):
    artifact = tmp_path / "out" / "target.embeddings.npz"
    _check_a_bad_embedding_artifact_is_reported_and_rebuilt(
        tmp_path, lambda: artifact.write_bytes(b"garbage\n"),
        f"malformed embedding file {artifact}")


def test_cli_reports_a_nan_in_an_embedding_artifact_and_a_run_rebuilds_it(tmp_path):
    artifact = tmp_path / "out" / "target.embeddings.npz"

    def nan_row():
        iris, matrix = load_embeddings(artifact)
        matrix[iris.index("http://example.org/tgt#T04")] = np.nan
        save_embeddings(artifact, iris, matrix)

    _check_a_bad_embedding_artifact_is_reported_and_rebuilt(
        tmp_path, nan_row, f"malformed embedding file {artifact}: a float64 matrix with a value")


def test_cli_reports_text_iris_in_an_embedding_artifact_and_a_run_rebuilds_it(tmp_path):
    artifact = tmp_path / "out" / "target.embeddings.npz"

    def text_iris():
        iris, matrix = load_embeddings(artifact)
        np.savez(artifact, iris=np.array(iris), matrix=matrix)

    _check_a_bad_embedding_artifact_is_reported_and_rebuilt(
        tmp_path, text_iris, f"malformed embedding file {artifact}: ValueError('IRIs in a 1-D <U")


def _check_a_bad_embedding_artifact_is_reported_and_rebuilt(tmp_path, spoil, message):
    """After ``spoil`` edits the target embedding artifact of a finished run,
    a forced match fails with one ``Error:`` line holding ``message``, and a
    plain run reruns embed and match alone, back to the golden mappings."""
    config_path = write_config_file(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", config_path]).exit_code == 0
    spoil()
    result = runner.invoke(main, ["match", "--config", config_path, "--force"])
    _assert_one_clean_error(result, message)

    result = runner.invoke(main, ["run", "--config", config_path])
    assert result.exit_code == 0, result.output
    assert result.output == "".join(
        f"{stage}: {'complete' if stage in ('embed', 'match') else 'skipped'}\n"
        for stage in STAGES)
    assert (tmp_path / "out" / "mappings.tsv").read_bytes() == (
        TOY_DIR / "mappings.golden.tsv").read_bytes()


# An artifact, the column of a scored cell in it, a value outside the
# column's range, the stage that reads it, and the error line's message.
_OUT_OF_RANGE = {
    "judgement p_yes": ("judgements.tsv", 3, "1.5", "fuse", "PYes must be in [0, 1], got 1.5"),
    "judgement cosine": ("judgements.tsv", 2, "nan", "fuse", "Cosine must be in [-1, 1], got nan"),
    "candidate cosine": ("candidates.tsv", 3, "-inf", "judge",
                         "Cosine must be in [-1, 1], got -inf"),
}


@pytest.mark.parametrize("what", sorted(_OUT_OF_RANGE))
def test_cli_reports_a_scored_artifact_cell_out_of_range(tmp_path, what):
    artifact, column, value, stage, message = _OUT_OF_RANGE[what]
    config_path = write_config_file(tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", config_path]).exit_code == 0
    path = tmp_path / "out" / artifact
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[5].rstrip("\n").split("\t")
    cells[column] = value
    lines[5] = "\t".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    result = runner.invoke(main, [stage, "--config", config_path])
    _assert_one_clean_error(result, f"bad {what.split()[0]} row: {message} (line 6)")


def test_cli_reports_an_ontology_without_classes_before_ingest_writes(tmp_path):
    empty = tmp_path / "empty.owl"
    empty.write_text('<?xml version="1.0"?>\n'
                     '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>\n')
    result = CliRunner().invoke(main, ["run", "--config", write_config_file(tmp_path),
                                       "--target", str(empty)])
    _assert_one_clean_error(result, f"{empty} has no classes")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("field", ["out_dir", "cache_dir"])
def test_an_out_or_cache_dir_that_is_a_file_fails_before_any_provider_call(
        tmp_path, counting_toy_provider, field, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    path = str(blocker / "sub" if under else blocker)
    config = toy_config(tmp_path, **{field: path})
    provider = counting_toy_provider(config)
    with pytest.raises(ConfigError) as exc:
        Pipeline(config, provider=provider).run()
    assert str(exc.value) == f"{field} {path!r} is a file or lies under one"
    assert provider.total_calls == 0
    assert blocker.read_text() == "a file\n"


def test_cli_reports_a_config_cache_dir_under_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    config_path = write_config_file(tmp_path, cache_dir=str(blocker / "cache"))
    result = CliRunner().invoke(main, ["run", "--config", config_path])
    _assert_one_clean_error(result, f"cache_dir {str(blocker / 'cache')!r} is a file or lies")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval-reference", "eval-predictions", "ingest-source"])
def test_cli_reports_text_that_is_not_utf8_as_one_error(tmp_path, command):
    """A Latin-1 byte in a TSV or JSONL input is one ``Error:`` line naming
    the file, not a traceback."""
    tsv, jsonl = tmp_path / "latin1.tsv", tmp_path / "latin1.jsonl"
    tsv.write_bytes(b"SrcEntity\tTgtEntity\nhttp://a#caf\xe9\thttp://b#cafe\n")
    jsonl.write_bytes(b'{"iri": "http://a#x", "label": "caf\xe9"}\n')
    config_path = write_config_file(tmp_path)
    runner = CliRunner()
    if command == "eval-reference":
        assert runner.invoke(main, ["run", "--config", config_path]).exit_code == 0
        args, bad = ["eval", "--config", config_path, "--reference", str(tsv)], tsv
    elif command == "eval-predictions":
        args, bad = ["eval", "--predictions", str(tsv),
                     "--reference", str(TOY_DIR / "reference.tsv")], tsv
    else:
        args, bad = ["ingest", "--config", config_path, "--source", str(jsonl)], jsonl
    _assert_one_clean_error(runner.invoke(main, args), f"{bad} is not UTF-8 text")


@pytest.mark.parametrize("case", ["jsonl-tab", "rdfxml-tab", "rdfxml-newline"])
def test_cli_reports_a_concept_iri_with_a_control_character_before_any_provider_call(
        tmp_path, monkeypatch, case):
    """A tab or a line break in a concept IRI would split its row of
    ``candidates.tsv``: either reader rejects it at ingest, naming the IRI
    (and, in concept JSONL, its line), before any provider call."""
    if case == "jsonl-tab":
        iri, where = "http://example.org/src#S02\tX", " (line 2)"
        rows = [json.loads(line) for line in (TOY_DIR / "source.jsonl").read_text().splitlines()]
        rows[1]["iri"] = iri
        source = tmp_path / "source.jsonl"
        source.write_text("".join(json.dumps(row) + "\n" for row in rows))
    else:
        escaped, char = {"rdfxml-tab": ("&#9;", "\t"), "rdfxml-newline": ("&#10;", "\n")}[case]
        iri, where = f"http://x.org/onto#A{char}X", ""
        source = tmp_path / "source.owl"
        source.write_text(
            '<?xml version="1.0"?>\n'
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
            '         xmlns:owl="http://www.w3.org/2002/07/owl#">\n'
            '  <owl:Class rdf:about="http://x.org/onto#B"/>\n'
            f'  <owl:Class rdf:about="http://x.org/onto#A{escaped}X"/>\n'
            '</rdf:RDF>\n')
    providers = []

    def counting_provider(config):
        providers.append(CountingProvider(make_provider(config)))
        return providers[-1]

    monkeypatch.setattr(pipeline_module, "make_provider", counting_provider)
    result = CliRunner().invoke(main, ["run", "--config", write_config_file(tmp_path),
                                       "--source", str(source)])
    _assert_one_clean_error(result, f"iri holds a control character: {iri!r}{where}")
    assert [provider.total_calls for provider in providers] == [0]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


def test_cli_ingest_reports_a_class_iri_that_a_relative_xml_base_leaves_relative(tmp_path):
    """``xml:base="onto/"`` joins ``rdf:about="A"`` into ``onto/A``, which
    no later stage can read: ingest rejects it at the parse and writes no
    concept artifact."""
    source = tmp_path / "source.owl"
    source.write_text(
        '<?xml version="1.0"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '         xmlns:owl="http://www.w3.org/2002/07/owl#" xml:base="onto/">\n'
        '  <owl:Class rdf:about="A"/>\n'
        '</rdf:RDF>\n')
    result = CliRunner().invoke(main, ["ingest", "--config", write_config_file(tmp_path),
                                       "--source", str(source)])
    _assert_one_clean_error(result, "iri is not absolute: 'onto/A'")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("reader", ["jsonl", "rdfxml"])
def test_cli_ingest_accepts_a_concept_iri_of_any_scheme(tmp_path, reader):
    """An IRI is absolute when it starts with a scheme and a colon, so a
    ``urn:`` IRI, which has no ``//``, is a concept as an ``http:`` one is."""
    if reader == "jsonl":
        iris = ["urn:example:A", "urn:example:B"]
        source = tmp_path / "source.jsonl"
        source.write_text("".join(json.dumps({"iri": iri, "label": iri[-1]}) + "\n"
                                  for iri in iris))
    else:
        iris = ["urn:lsid:example.org:onto:A", "urn:lsid:example.org:onto:B"]
        source = tmp_path / "source.owl"
        source.write_text(
            '<?xml version="1.0"?>\n'
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
            '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
            '         xmlns:owl="http://www.w3.org/2002/07/owl#">\n'
            f'  <owl:Class rdf:about="{iris[0]}"/>\n'
            f'  <owl:Class rdf:about="{iris[1]}">\n'
            f'    <rdfs:subClassOf rdf:resource="{iris[0]}"/>\n'
            '  </owl:Class>\n'
            '</rdf:RDF>\n')
    result = CliRunner().invoke(main, ["ingest", "--config", write_config_file(tmp_path),
                                       "--source", str(source)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "out" / "source.concepts.jsonl", encoding="utf-8") as fp:
        concepts = read_concept_jsonl(fp)
    assert sorted(concepts) == iris


def test_a_tsv_input_that_starts_with_a_bom_reads_like_one_without(tmp_path):
    """The toy reference and ranking cases, each with and without a UTF-8
    BOM and with and without a header line, give equal metrics."""
    config = toy_config(tmp_path, ranking_cases=toy_ranking_cases(tmp_path))
    Pipeline(config).run()
    header, rows = (TOY_DIR / "reference.tsv").read_text(encoding="utf-8").split("\n", 1)
    cases = Path(config.ranking_cases).read_text(encoding="utf-8")
    metrics = {}
    for bom in ("", "\ufeff"):
        for headed in (False, True):
            name = f"{'bom' if bom else 'plain'}-{'header' if headed else 'bare'}"
            reference, ranking = tmp_path / f"reference-{name}.tsv", tmp_path / f"cases-{name}.tsv"
            reference.write_text(bom + (header + "\n" if headed else "") + rows, encoding="utf-8")
            ranking.write_text(bom + ("SrcEntity\tTgtEntity\n" if headed else "") + cases,
                               encoding="utf-8")
            variant = dataclasses.replace(config, reference=str(reference),
                                          ranking_cases=str(ranking))
            assert Pipeline(variant).run(["eval"], force=True) == {"eval": "complete"}
            metrics[name] = json.loads((Path(config.out_dir) / "metrics.json").read_text())
    assert metrics["plain-header"]["reference_count"] == 21
    assert metrics["plain-header"]["mrr"] is not None
    assert all(m == metrics["plain-header"] for m in metrics.values()), metrics


_BAD_CONFIGS = {
    "reference": ({"reference": "missing.tsv"}, "reference 'missing.tsv' is not a file"),
    "ranking_cases": ({"ranking_cases": "missing.tsv"},
                      "ranking_cases 'missing.tsv' is not a file"),
    "source": ({"source": None}, "source '' is not a file"),
    "temperature": ({"temperature": -1}, "temperature must be >= 0, got -1"),
    "temperature_nan": ({"temperature": float("nan")}, "temperature must be float, got nan"),
    "temperature_infinity": ({"temperature": float("inf")},
                             "temperature must be float, got inf"),
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
    "provider_timeout_nan": ({"provider": {"kind": "http", "timeout": float("nan")}},
                             "http provider timeout must be float, got nan"),
    "provider_timeout_infinity": ({"provider": {"kind": "http", "timeout": float("inf")}},
                                  "http provider timeout must be float, got inf"),
    "provider_backoff_base_nan": ({"provider": {"kind": "http", "backoff_base": float("nan")}},
                                  "http provider backoff_base must be float, got nan"),
    "provider_backoff_base_infinity": (
        {"provider": {"kind": "http", "backoff_base": float("inf")}},
        "http provider backoff_base must be float, got inf",
    ),
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
    item is the text of ``aliases.json`` in the working directory. The
    pipeline builds its provider for every command, so a bad provider spec
    fails ``ingest`` too, although ingest reads no model."""
    overrides, message, *aliases = _BAD_CONFIGS[bad]
    monkeypatch.chdir(tmp_path)
    for text in aliases:
        (tmp_path / "aliases.json").write_text(text)
    data = toy_config(tmp_path).to_dict()
    data.update(overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    for command in ("run", "ingest") if "provider" in overrides else ("run",):
        result = CliRunner().invoke(main, [command, "--config", str(config_path)])
        assert result.exit_code == 1, (command, result.output)
        assert isinstance(result.exception, SystemExit)  # no uncaught exception
        assert result.output == f"Error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()


def _predictions_and_reference(tmp_path) -> tuple[Path, Path]:
    predictions = tmp_path / "predictions.tsv"
    with open(predictions, "w", encoding="utf-8") as fp:
        write_mappings([
            Mapping("http://s#1", "http://t#1", 1.0),
            Mapping("http://s#2", "http://t#2", 1.0),
        ], fp)
    reference = tmp_path / "reference.tsv"
    with open(reference, "w", encoding="utf-8") as fp:
        write_mappings([Mapping("http://s#1", "http://t#1", 1.0)], fp)
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


def test_cli_eval_without_predictions_runs_the_eval_stage(tmp_path):
    config_path = write_config_file(tmp_path)
    assert CliRunner().invoke(main, ["run", "--config", config_path]).exit_code == 0
    (tmp_path / "out" / "metrics.json").unlink()
    result = CliRunner().invoke(main, ["eval", "--config", config_path])
    assert result.exit_code == 0, result.output
    assert [line for line in result.output.splitlines()
            if line.split(":")[0] in STAGES] == ["eval: complete"]
    assert read_metrics(str(tmp_path / "out"))["f1"] == 1.0


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
    "alpha": ("http://s#1\thttp://t#1\t95\n", "Score must be in [0, 1], got 95.0"),
    "provenance": ("http://s#1\thttp://t#1\t0.5\tguess\n", "unknown provenance 'guess'"),
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
    commands = result.stdout.split("Commands:\n", 1)[1]
    assert sorted(line.split()[0] for line in commands.splitlines() if line.strip()) == sorted(
        ("run", *STAGES))


def test_readme_names_every_config_field_and_cli_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    flags = {opt for command in (main, *main.commands.values())
             for param in command.params for opt in param.opts if opt.startswith("--")}
    assert [f for f in fields if f"`{f}`" not in readme] == []
    assert sorted(flag for flag in flags if flag not in readme) == []
