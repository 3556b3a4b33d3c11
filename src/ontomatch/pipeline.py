"""Stage orchestration: ingest -> define -> embed -> match -> judge -> fuse
(-> eval), with content-digest manifests for resume and a shared response
cache so warm reruns make zero provider calls.

Every stage writes its artifacts atomically under the output directory and
records input/output digests in ``manifest.json``. What each stage reads and
writes is declared once, in ``STAGE_TABLE``. A stage re-runs iff its input
digest changed or ``force`` is set; a stage interrupted by ``limit``
records status ``partial`` and re-runs next time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

from . import definitions, judge
from .cache import ResponseCache
from .definitions import build_embedding_text, enrich_ontology
from .errors import ConfigError, MissingArtifactError
from .evaluate import (
    MetricsReport,
    global_metrics,
    local_ranking,
    make_ranking_cases,
    read_ranking_cases,
)
from .fusion import exact_match, filter_and_fuse
from .ingest import ExtractionConfig, parse_ontology
from .judge import (
    DEFAULT_FEW_SHOT,
    FewShotExample,
    judge_candidates,
    judge_pair,
    read_judgements,
    write_judgements,
)
from .model import (
    ContextBlock,
    MappingSet,
    Ontology,
    Thresholds,
    concept_context,
    read_concept_jsonl,
    write_concept_jsonl,
)
from .providers import (
    HttpProvider,
    HttpProviderConfig,
    MockProvider,
    Provider,
    SamplingParams,
)
from .retrieval import (
    HnswParams,
    build_index,
    embedding_paths,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    read_candidates,
    save_embeddings,
    write_candidates,
)

logger = logging.getLogger(__name__)

__all__ = ["PipelineConfig", "Pipeline", "StageManifest", "make_provider", "STAGES"]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: everything a stage reads and writes.

    ``reads`` and ``writes`` are artifacts in the output directory; a stage
    needs all of its ``reads`` before it runs. ``files`` are config fields
    naming input files, which enter the digest by content. ``config`` are
    the other ``PipelineConfig`` fields the stage reads; a method name stands
    for its result. ``model`` is the provider attribute holding the model id
    and ``template`` the module attribute holding the prompt template version.
    The input digest covers everything but ``writes``.
    """

    reads: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    config: tuple[str, ...] = ()
    model: str | None = None
    template: tuple[ModuleType, str] | None = None
    writes: tuple[str, ...] = ()


_CONCEPTS = ("source.concepts.jsonl", "target.concepts.jsonl")
_ENRICHED = ("source.enriched.jsonl", "target.enriched.jsonl")
_EMBEDDINGS = (
    "source.embeddings.npy",
    "source.embeddings.json",
    "target.embeddings.npy",
    "target.embeddings.json",
)
# Config that a pair's p_yes depends on, besides the model and template.
_P_YES_CONFIG = ("shots", "use_definitions", "softmax_mode")

STAGE_TABLE: dict[str, Stage] = {
    "ingest": Stage(
        files=("source", "target"),
        config=("source_format", "target_format", "source_name", "target_name",
                "label_property", "synonym_properties"),
        writes=_CONCEPTS,
    ),
    "define": Stage(
        reads=_CONCEPTS,
        config=("source_name", "target_name", "use_definitions",
                "temperature", "top_p", "max_tokens"),
        model="chat_model_id",
        template=(definitions, "TEMPLATE_VERSION"),
        writes=_ENRICHED,
    ),
    "embed": Stage(
        reads=_ENRICHED,
        config=("use_definitions",),
        model="embed_model_id",
        writes=_EMBEDDINGS,
    ),
    "match": Stage(
        reads=_EMBEDDINGS,
        config=("k", "index", "hnsw_m", "hnsw_ef_construction", "hnsw_ef_search",
                "hnsw_seed", "bidirectional"),
        writes=("candidates.tsv",),
    ),
    # lambda_prob sets the Decision column of judgements.tsv.
    "judge": Stage(
        reads=("candidates.tsv", *_ENRICHED),
        config=(*_P_YES_CONFIG, "lambda_prob"),
        model="chat_model_id",
        template=(judge, "JUDGE_TEMPLATE_VERSION"),
        writes=("judgements.tsv",),
    ),
    "fuse": Stage(
        reads=("judgements.tsv", *_CONCEPTS),
        config=("lambda_prob", "lambda_cs", "with_provenance"),
        writes=("mappings.tsv",),
    ),
    # The ranking scorer reads the embeddings ("cosine") or judges each
    # ranking case like the judge stage ("pyes").
    "eval": Stage(
        reads=("mappings.tsv", *_EMBEDDINGS, *_ENRICHED),
        files=("reference", "ranking_cases"),
        config=("ranking_scorer", *_P_YES_CONFIG),
        model="chat_model_id",
        template=(judge, "JUDGE_TEMPLATE_VERSION"),
        writes=("metrics.json", "metrics.txt"),
    ),
}

STAGES = tuple(STAGE_TABLE)

_PRODUCER = {a: stage for stage, row in STAGE_TABLE.items() for a in row.writes}


@dataclass
class PipelineConfig:
    source: str = ""
    target: str = ""
    source_format: str = "auto"
    target_format: str = "auto"
    source_name: str = "source"
    target_name: str = "target"
    out_dir: str = "out"
    cache_dir: str = "cache"
    k: int = 10
    lambda_prob: float = 0.99
    lambda_cs: float = 0.97
    few_shot: int = 0
    use_definitions: bool = True
    index: str = "hnsw"
    hnsw_m: int = 16
    hnsw_ef_construction: int = 200
    hnsw_ef_search: int = 128
    hnsw_seed: int = 0
    bidirectional: bool = False
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int = 256
    softmax_mode: str = "pair"
    with_provenance: bool = False
    reference: str | None = None
    ranking_cases: str | None = None
    ranking_scorer: str = "cosine"
    max_workers: int = 8
    label_property: str | None = None
    synonym_properties: list[str] | None = None
    provider: dict = field(default_factory=lambda: {"kind": "mock"})
    few_shot_examples: list[dict] | None = None

    def __post_init__(self):
        if not 0.0 <= self.lambda_prob <= 1.0:
            raise ConfigError(f"lambda_prob must be in [0, 1], got {self.lambda_prob}")
        if not 0.0 <= self.lambda_cs <= 1.0:
            raise ConfigError(f"lambda_cs must be in [0, 1], got {self.lambda_cs}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.index not in ("exact", "hnsw"):
            raise ConfigError(f"index must be 'exact' or 'hnsw', got {self.index!r}")
        if self.few_shot < 0:
            raise ConfigError(f"few_shot must be >= 0, got {self.few_shot}")
        if self.softmax_mode not in ("pair", "full"):
            raise ConfigError(f"softmax_mode must be 'pair' or 'full', got {self.softmax_mode!r}")
        if self.ranking_scorer not in ("cosine", "pyes"):
            raise ConfigError(f"ranking_scorer must be 'cosine' or 'pyes'")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fp:
            try:
                data = json.load(fp)
            except json.JSONDecodeError as e:
                raise ConfigError(f"invalid config JSON in {path}: {e}") from e
        return cls.from_dict(data)

    def extraction_config(self) -> ExtractionConfig:
        kwargs = {}
        if self.label_property is not None:
            kwargs["label_property"] = self.label_property
        if self.synonym_properties is not None:
            kwargs["synonym_properties"] = tuple(self.synonym_properties)
        return ExtractionConfig(**kwargs)

    def thresholds(self) -> Thresholds:
        return Thresholds(lambda_prob=self.lambda_prob, lambda_cs=self.lambda_cs)

    def sampling(self) -> SamplingParams:
        return SamplingParams(
            temperature=self.temperature, top_p=self.top_p, max_tokens=self.max_tokens
        )

    def hnsw_params(self) -> HnswParams:
        return HnswParams(
            m=self.hnsw_m,
            ef_construction=self.hnsw_ef_construction,
            ef_search=self.hnsw_ef_search,
            seed=self.hnsw_seed,
        )

    def shots(self) -> tuple[FewShotExample, ...]:
        if self.few_shot == 0:
            return ()
        if self.few_shot_examples is not None:
            pool = tuple(_shot_from_dict(d) for d in self.few_shot_examples)
        else:
            pool = DEFAULT_FEW_SHOT
        if self.few_shot > len(pool):
            raise ConfigError(
                f"few_shot={self.few_shot} but only {len(pool)} examples available"
            )
        return pool[: self.few_shot]


def _shot_from_dict(d: dict) -> FewShotExample:
    def ctx(block: dict) -> ContextBlock:
        return ContextBlock(
            iri=block.get("iri", "urn:example:shot"),
            label=block.get("label"),
            synonyms=list(block.get("synonyms", [])),
            parents=list(block.get("parents", [])),
            descriptions=list(block.get("descriptions", [])),
            definition=block.get("definition"),
        )

    return FewShotExample(a=ctx(d["a"]), b=ctx(d["b"]), answer=d["answer"])


def make_provider(config: PipelineConfig) -> Provider:
    spec = dict(config.provider)
    kind = spec.pop("kind", "mock")
    if kind == "mock":
        alias_groups = spec.pop("alias_groups", ())
        alias_file = spec.pop("alias_groups_file", None)
        if alias_file:
            with open(alias_file, "r", encoding="utf-8") as fp:
                alias_groups = json.load(fp)
        return MockProvider(
            dimension=spec.pop("dimension", 64),
            seed=spec.pop("seed", 0),
            alias_groups=alias_groups,
            canned_generate=spec.pop("canned_generate", None),
            canned_distributions=spec.pop("canned_distributions", None),
        )
    if kind == "http":
        http_config = HttpProviderConfig(**spec).apply_env_overrides()
        return HttpProvider(http_config)
    raise ConfigError(f"unknown provider kind {kind!r}")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_of(parts: dict) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, ensure_ascii=False, default=asdict).encode("utf-8")
    ).hexdigest()


class StageManifest:
    """Per-stage run records: status, input digest, output digests, timing."""

    def __init__(self, path: Path):
        self.path = path
        self.stages: dict[str, dict] = {}
        if path.exists():
            try:
                with open(path, "r", encoding="utf-8") as fp:
                    self.stages = json.load(fp).get("stages", {})
            except json.JSONDecodeError:
                logger.warning("ignoring corrupt manifest %s", path)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            json.dump({"stages": self.stages}, fp, indent=2, sort_keys=True)
            fp.write("\n")
        os.replace(tmp, self.path)

    def can_skip(self, stage: str, input_digest: str, out_dir: Path) -> bool:
        entry = self.stages.get(stage)
        if not entry or entry.get("status") != "complete":
            return False
        if entry.get("input_digest") != input_digest:
            return False
        for artifact, digest in entry.get("outputs", {}).items():
            path = out_dir / artifact
            if not path.exists() or _sha256_file(path) != digest:
                return False
        return True

    def record(self, stage: str, status: str, input_digest: str, outputs: dict[str, str],
               seconds: float, error: str | None = None) -> None:
        entry = {
            "status": status,
            "input_digest": input_digest,
            "outputs": outputs,
            "seconds": round(seconds, 6),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if error:
            entry["error"] = error
        self.stages[stage] = entry
        self.save()


class Pipeline:
    def __init__(self, config: PipelineConfig, provider: Provider | None = None):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.cache = ResponseCache(Path(config.cache_dir))
        self._provider = provider
        self.manifest = StageManifest(self.out_dir / "manifest.json")

    @property
    def provider(self) -> Provider:
        if self._provider is None:
            self._provider = make_provider(self.config)
        return self._provider

    # -- helpers -------------------------------------------------------------

    def _artifact(self, name: str) -> Path:
        return self.out_dir / name

    def _write_text(self, name: str, writer: Callable) -> None:
        """Write an artifact atomically with LF newlines."""
        path = self._artifact(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fp:
            writer(fp)
        os.replace(tmp, path)

    def _load_ontology(self, name: str, onto_name: str) -> Ontology:
        with open(self._artifact(name), "r", encoding="utf-8") as fp:
            return read_concept_jsonl(fp, name=onto_name)

    # -- stages ---------------------------------------------------------------

    def _stage_ingest(self, limit: int | None) -> None:
        cfg = self.config
        for path, fmt, onto_name, artifact in (
            (cfg.source, cfg.source_format, cfg.source_name, "source.concepts.jsonl"),
            (cfg.target, cfg.target_format, cfg.target_name, "target.concepts.jsonl"),
        ):
            onto = parse_ontology(path, format=fmt, cfg=cfg.extraction_config(), name=onto_name)
            logger.info("ingested %s: %d concepts (%d dangling parent refs)",
                        onto_name, len(onto), onto.dangling_parent_count)
            self._write_text(artifact, lambda fp, o=onto: write_concept_jsonl(o, fp))

    def _stage_define(self, limit: int | None) -> bool:
        """Returns True when the stage fully covered all concepts."""
        cfg = self.config
        complete = True
        remaining = limit
        for concepts_name, enriched_name, onto_name, other in (
            ("source.concepts.jsonl", "source.enriched.jsonl", cfg.source_name, cfg.target_name),
            ("target.concepts.jsonl", "target.enriched.jsonl", cfg.target_name, cfg.source_name),
        ):
            onto = self._load_ontology(concepts_name, onto_name)
            if cfg.use_definitions:
                todo = sum(1 for c in onto.concepts.values() if c.definition is None)
                processed = enrich_ontology(
                    onto,
                    other,
                    self.provider,
                    cache=self.cache,
                    params=cfg.sampling(),
                    limit=remaining,
                    max_workers=cfg.max_workers,
                )
                if remaining is not None:
                    remaining = max(0, remaining - processed)
                if processed < todo:
                    complete = False
            self._write_text(enriched_name, lambda fp, o=onto: write_concept_jsonl(o, fp))
        return complete

    def _embedding_cache_key(self, texts: list[str]) -> str:
        return _digest_of({"model": self.provider.embed_model_id, "texts": texts})

    def _embed_ontology(self, onto: Ontology, base_name: str) -> None:
        iris = sorted(onto.concepts)
        texts = [
            build_embedding_text(onto.concepts[i], include_definition=self.config.use_definitions)
            for i in iris
        ]
        key = self._embedding_cache_key(texts)
        cache_base = Path(self.config.cache_dir) / "embed" / key
        cache_base.parent.mkdir(parents=True, exist_ok=True)
        cached_npy, cached_json = embedding_paths(cache_base)
        if cached_npy.exists() and cached_json.exists():
            cached_iris, matrix, _ = load_embeddings(cache_base)
            if cached_iris != iris:
                raise ConfigError("embedding cache entry does not match ontology IRIs")
        else:
            vectors = self.provider.embed_batch(texts)
            matrix = np.stack(vectors)
            save_embeddings(cache_base, iris, matrix, self.provider.embed_model_id)
        save_embeddings(
            self._artifact(base_name), iris, matrix, self.provider.embed_model_id
        )

    def _stage_embed(self, limit: int | None) -> None:
        for concepts_name, base, onto_name in (
            ("source.enriched.jsonl", "source.embeddings", self.config.source_name),
            ("target.enriched.jsonl", "target.embeddings", self.config.target_name),
        ):
            onto = self._load_ontology(concepts_name, onto_name)
            self._embed_ontology(onto, base)

    def _stage_match(self, limit: int | None) -> None:
        cfg = self.config
        src_iris, src_matrix, _ = load_embeddings(self._artifact("source.embeddings"))
        tgt_iris, tgt_matrix, _ = load_embeddings(self._artifact("target.embeddings"))
        tgt_index = build_index(
            {iri: tgt_matrix[i] for i, iri in enumerate(tgt_iris)},
            kind=cfg.index,
            params=cfg.hnsw_params(),
        )
        queries = {iri: src_matrix[i] for i, iri in enumerate(src_iris)}
        candidates = generate_candidates(queries, tgt_index, k=cfg.k)
        if cfg.bidirectional:
            src_index = build_index(queries, kind=cfg.index, params=cfg.hnsw_params())
            backward = generate_candidates(
                {iri: tgt_matrix[i] for i, iri in enumerate(tgt_iris)}, src_index, k=cfg.k
            )
            candidates = merge_candidate_maps(candidates, backward)
        self._write_text("candidates.tsv", lambda fp: write_candidates(candidates, fp))

    def _stage_judge(self, limit: int | None) -> bool:
        cfg = self.config
        with open(self._artifact("candidates.tsv"), "r", encoding="utf-8") as fp:
            candidates = read_candidates(fp)
        source = self._load_ontology("source.enriched.jsonl", cfg.source_name)
        target = self._load_ontology("target.enriched.jsonl", cfg.target_name)
        total = sum(len(v) for v in candidates.values())
        judgements = judge_candidates(
            candidates,
            source,
            target,
            self.provider,
            thresholds=cfg.thresholds(),
            shots=cfg.shots(),
            include_definition=cfg.use_definitions,
            cache=self.cache,
            softmax_mode=cfg.softmax_mode,
            limit=limit,
            max_workers=cfg.max_workers,
        )
        self._write_text("judgements.tsv", lambda fp: write_judgements(judgements, fp))
        return limit is None or limit >= total

    def _stage_fuse(self, limit: int | None) -> None:
        cfg = self.config
        with open(self._artifact("judgements.tsv"), "r", encoding="utf-8") as fp:
            judgements = read_judgements(fp)
        source = self._load_ontology("source.concepts.jsonl", cfg.source_name)
        target = self._load_ontology("target.concepts.jsonl", cfg.target_name)
        exact = exact_match(source, target)
        fused = filter_and_fuse(
            judgements, exact, lambda_prob=cfg.lambda_prob, lambda_cs=cfg.lambda_cs
        )
        self._write_text(
            "mappings.tsv",
            lambda fp: fused.write_tsv(fp, with_provenance=cfg.with_provenance),
        )

    def _ranking_scorer(self) -> Callable[[str, str], float]:
        cfg = self.config
        if cfg.ranking_scorer == "cosine":
            src_iris, src_matrix, _ = load_embeddings(self._artifact("source.embeddings"))
            tgt_iris, tgt_matrix, _ = load_embeddings(self._artifact("target.embeddings"))
            src = {iri: src_matrix[i] for i, iri in enumerate(src_iris)}
            tgt = {iri: tgt_matrix[i] for i, iri in enumerate(tgt_iris)}
            from .retrieval import cosine as _cos

            def score(s: str, t: str) -> float:
                if s not in src or t not in tgt:
                    return -1.0
                return _cos(src[s], tgt[t])

            return score
        source = self._load_ontology("source.enriched.jsonl", cfg.source_name)
        target = self._load_ontology("target.enriched.jsonl", cfg.target_name)

        def score(s: str, t: str) -> float:
            sc = source.concepts.get(s)
            tc = target.concepts.get(t)
            if sc is None or tc is None:
                return 0.0
            judgement = judge_pair(
                concept_context(sc, source),
                concept_context(tc, target),
                0.0,
                self.provider,
                thresholds=cfg.thresholds(),
                shots=cfg.shots(),
                include_definition=cfg.use_definitions,
                cache=self.cache,
                softmax_mode=cfg.softmax_mode,
            )
            return judgement.p_yes

        return score

    def _stage_eval(self, limit: int | None) -> None:
        cfg = self.config
        if not cfg.reference:
            raise ConfigError("eval stage needs a reference mapping file")
        with open(self._artifact("mappings.tsv"), "r", encoding="utf-8") as fp:
            predicted = MappingSet.read_tsv(fp)
        with open(cfg.reference, "r", encoding="utf-8") as fp:
            reference = MappingSet.read_tsv(fp)
        precision, recall, f1 = global_metrics(predicted.pairs(), reference.pairs())
        report = MetricsReport(
            precision=precision,
            recall=recall,
            f1=f1,
            predicted_count=len(predicted),
            reference_count=len(reference),
        )
        if cfg.ranking_cases:
            with open(cfg.ranking_cases, "r", encoding="utf-8") as fp:
                rows = read_ranking_cases(fp)
            cases = make_ranking_cases(
                reference.pairs(),
                self._ranking_scorer(),
                negatives={src: negs for src, (gold, negs) in rows.items()},
            )
            if cases:
                mrr, hits = local_ranking(cases, ks=(1, 5, 10))
                report.mrr = mrr
                report.hit_at = hits
        self._write_text("metrics.json", lambda fp: fp.write(report.to_json()))
        self._write_text("metrics.txt", lambda fp: fp.write(report.to_text()))

    # -- digests --------------------------------------------------------------

    def input_digest(self, stage: str) -> str:
        """Digest of everything ``stage`` reads, per its ``STAGE_TABLE`` row;
        ``run_stage`` skips the stage while this matches the manifest."""
        row = STAGE_TABLE[stage]
        cfg = self.config

        def config_value(name: str):
            value = getattr(cfg, name)
            return value() if callable(value) else value

        return _digest_of({
            "artifacts": {a: _sha256_file(self._artifact(a)) for a in row.reads},
            "files": {
                f: _sha256_file(Path(getattr(cfg, f))) if getattr(cfg, f) else None
                for f in row.files
            },
            "config": {name: config_value(name) for name in row.config},
            "model": getattr(self.provider, row.model) if row.model else None,
            "template": getattr(*row.template) if row.template else None,
        })

    # -- driver ---------------------------------------------------------------

    def run_stage(self, stage: str, force: bool = False, limit: int | None = None) -> str:
        """Run one stage; returns 'complete', 'partial', or 'skipped'."""
        if stage not in STAGE_TABLE:
            raise ValueError(f"unknown stage {stage!r}")
        for artifact in STAGE_TABLE[stage].reads:
            if not self._artifact(artifact).exists():
                raise MissingArtifactError(artifact, _PRODUCER[artifact])
        input_digest = self.input_digest(stage)
        if not force and self.manifest.can_skip(stage, input_digest, self.out_dir):
            logger.info("stage %s: inputs unchanged, skipping", stage)
            return "skipped"
        started = time.monotonic()
        runner = getattr(self, f"_stage_{stage}")
        try:
            outcome = runner(limit)
        except Exception as e:
            self.manifest.record(
                stage, "failed", input_digest, {}, time.monotonic() - started, error=str(e)
            )
            raise
        status = "complete" if outcome in (None, True) else "partial"
        outputs = {
            a: _sha256_file(self._artifact(a))
            for a in STAGE_TABLE[stage].writes
            if self._artifact(a).exists()
        }
        self.manifest.record(stage, status, input_digest, outputs, time.monotonic() - started)
        logger.info("stage %s: %s", stage, status)
        return status

    def run(
        self,
        stages: Sequence[str] | None = None,
        force: bool = False,
        limit: int | None = None,
    ) -> dict[str, str]:
        """Run the listed stages in pipeline order (defaults to all,
        including eval only when a reference is configured)."""
        if stages is None:
            stages = [s for s in STAGES if s != "eval" or self.config.reference]
        ordered = [s for s in STAGES if s in set(stages)]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        results = {}
        for stage in ordered:
            results[stage] = self.run_stage(stage, force=force, limit=limit)
        return results
