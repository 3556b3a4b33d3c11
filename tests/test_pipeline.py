"""Pipeline orchestration: end-to-end toy run, caching, resume, CLI."""

import dataclasses
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import ontomatch.judge as judge_module
from ontomatch.cli import build_config, main
from ontomatch.errors import ConfigError, MissingArtifactError
from ontomatch.evaluate import write_ranking_cases
from ontomatch.judge import DEFAULT_FEW_SHOT
from ontomatch.model import Mapping, MappingSet
from ontomatch.pipeline import STAGES, Pipeline, PipelineConfig, make_provider
from ontomatch.providers import HttpProvider, MockProvider

from conftest import TOY_DIR, CountingProvider, load_toy_reference, toy_config


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


def test_provenance_counts_on_toy_run(tmp_path):
    config = toy_config(tmp_path)
    Pipeline(config).run()
    with open(Path(config.out_dir) / "mappings.tsv", encoding="utf-8") as fp:
        mappings = MappingSet.read_tsv(fp)
    counts: dict[str, int] = {}
    for m in mappings:
        counts[m.provenance] = counts.get(m.provenance, 0) + 1
    assert counts == {"both": 14, "llm": 6, "exact": 1}


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


def toy_ranking_cases(tmp_path: Path) -> str:
    """Ranking cases over the toy reference: each gold target against the
    next three reference targets as negatives."""
    reference = sorted(load_toy_reference())
    targets = [t for _, t in reference]
    rows = {
        src: (gold, [targets[(i + j) % len(targets)] for j in (1, 2, 3)])
        for i, (src, gold) in enumerate(reference)
    }
    path = tmp_path / "ranking_cases.tsv"
    with open(path, "w", encoding="utf-8") as fp:
        write_ranking_cases(rows, fp)
    return str(path)


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
        "source_format": "jsonl",
        "target_format": "jsonl",
        "source_name": "renamed-src",
        "target_name": "renamed-tgt",
        "k": 5,
        "lambda_prob": 0.5,
        "lambda_cs": 0.5,
        "few_shot": 2,
        "use_definitions": False,
        "index": "exact",
        "hnsw_m": 8,
        "hnsw_ef_construction": 100,
        "hnsw_ef_search": 64,
        "hnsw_seed": 1,
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


def test_failed_stage_is_recorded_and_reraised(tmp_path):
    config = toy_config(tmp_path, reference=None)
    pipeline = Pipeline(config)
    pipeline.run()  # eval not selected without a reference
    with pytest.raises(ConfigError, match="reference"):
        pipeline.run_stage("eval")
    manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
    assert manifest["stages"]["eval"]["status"] == "failed"
    assert "reference" in manifest["stages"]["eval"]["error"]


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


def test_config_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid config JSON"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("overrides", [
    {"lambda_prob": 1.5},
    {"lambda_cs": -0.1},
    {"k": 0},
    {"index": "faiss"},
    {"few_shot": -1},
    {"softmax_mode": "argmax"},
    {"ranking_scorer": "bm25"},
])
def test_config_validation(overrides):
    with pytest.raises(ConfigError):
        PipelineConfig(**overrides)


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
    config = build_config(
        config_path, no_definitions=False, provider=None, bidirectional=False,
        k=3, lambda_prob=0.5,
    )
    assert config.k == 3
    assert config.lambda_prob == 0.5
    assert config.source_name == "toy-src"  # untouched keys keep file values


def test_cli_no_definitions_flag(tmp_path):
    config = build_config(
        write_config_file(tmp_path), no_definitions=True, provider=None,
        bidirectional=False,
    )
    assert config.use_definitions is False


def test_cli_provider_switch_replaces_spec_only_on_kind_change(tmp_path):
    config_path = write_config_file(tmp_path)
    kept = build_config(config_path, no_definitions=False, provider="mock",
                        bidirectional=False)
    assert kept.provider["dimension"] == 64  # same kind: detailed spec kept
    swapped = build_config(config_path, no_definitions=False, provider="http",
                           bidirectional=False)
    assert swapped.provider == {"kind": "http"}


def test_cli_bidirectional_flag(tmp_path):
    config_path = write_config_file(tmp_path)
    on = build_config(config_path, no_definitions=False, provider=None,
                      bidirectional=True)
    assert on.bidirectional is True
    off = build_config(config_path, no_definitions=False, provider=None,
                       bidirectional=False)
    assert off.bidirectional is False


def test_cli_config_errors_become_clean_failures(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda_prob": 1.5}))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 1
    assert "lambda_prob" in result.output
    assert "Traceback" not in result.output


def test_cli_eval_predictions_mode(tmp_path):
    predictions = tmp_path / "predictions.tsv"
    with open(predictions, "w", encoding="utf-8") as fp:
        MappingSet([
            Mapping("http://s#1", "http://t#1", 1.0),
            Mapping("http://s#2", "http://t#2", 1.0),
        ]).write_tsv(fp)
    reference = tmp_path / "reference.tsv"
    with open(reference, "w", encoding="utf-8") as fp:
        MappingSet([Mapping("http://s#1", "http://t#1", 1.0)]).write_tsv(fp)

    runner = CliRunner()
    result = runner.invoke(main, [
        "eval", "--predictions", str(predictions), "--reference", str(reference),
    ])
    assert result.exit_code == 0, result.output
    assert "precision  0.500" in result.output
    assert "recall     1.000" in result.output
    assert "f1         0.667" in result.output


def test_cli_eval_predictions_requires_reference(tmp_path):
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text("SrcEntity\tTgtEntity\tScore\n")
    runner = CliRunner()
    result = runner.invoke(main, ["eval", "--predictions", str(predictions)])
    assert result.exit_code == 2
    assert "--reference" in result.output
