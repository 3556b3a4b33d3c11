"""Stage orchestration: ingest -> define -> embed -> match -> judge -> fuse
(-> eval), with content-digest manifests for resume and a shared response
cache so warm reruns make zero provider calls.

Every stage writes its artifacts atomically under the output directory and
records input/output digests in ``manifest.json``. What each stage reads and
writes is declared once, in ``STAGE_TABLE``; a stage sees only its row, through
a ``StageContext`` that hashes the same values into its input digest. A stage
re-runs iff its input digest changed or ``force`` is set; a stage interrupted
by ``limit`` records status ``partial`` and re-runs next time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import Callable, Sequence, TypeVar, get_type_hints

import numpy as np

from . import definitions, judge
from .cache import DEFAULT_MAX_WORKERS, ResponseCache, atomic_open
from .definitions import build_embedding_text, enrich_ontology
from .errors import ConfigError, ItemError, MissingArtifactError, OntologyParseError
from .evaluate import (
    MetricsReport,
    Pair,
    global_metrics,
    local_ranking,
    make_ranking_cases,
    read_ranking_cases,
)
from .fusion import exact_match, filter_and_fuse, read_mappings, write_mappings
from .ingest import DEFAULT_LABEL_PROPERTY, DEFAULT_SYNONYM_PROPERTIES, parse_ontology
from .judge import (
    DEFAULT_FEW_SHOT,
    FewShotExample,
    judge_candidates,
    read_judgements,
    write_judgements,
)
from .model import (
    Judgement,
    Mapping,
    Ontology,
    check_record,
    read_concept_jsonl,
    write_concept_jsonl,
)
from .providers import DEFAULT_PROVIDER_KIND, Provider, SamplingParams, make_provider
from .retrieval import (
    build_index,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    normed_cosine,
    read_candidates,
    save_embeddings,
    write_candidates,
)

logger = logging.getLogger(__name__)
T = TypeVar("T")

__all__ = ["PipelineConfig", "Pipeline", "StageManifest", "global_report", "make_provider",
           "STAGES", "StageContext"]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: everything a stage reads and writes.

    ``reads`` and ``writes`` are artifacts in the output directory; a stage
    needs all of its ``reads`` before it runs. ``files`` are config fields
    naming input files, which enter the digest by content. ``config`` are
    the other ``PipelineConfig`` attributes the stage reads. ``model`` is the
    provider attribute holding the model id and ``template`` the module
    attribute holding the prompt template version.
    The input digest covers everything but ``writes``.
    """

    reads: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    config: tuple[str, ...] = ()
    model: str | None = None
    template: tuple[ModuleType, str] | None = None
    writes: tuple[str, ...] = ()


# The two ontologies. Each has an input file in the config (``{side}``) and its
# own ``{side}.*`` artifacts; its display name (``{side}_name``) enters only
# define's prompt.
SIDES = ("source", "target")
_CONCEPTS = tuple(f"{side}.concepts.jsonl" for side in SIDES)
_ENRICHED = tuple(f"{side}.enriched.jsonl" for side in SIDES)
_EMBEDDINGS = tuple(f"{side}.embeddings.npz" for side in SIDES)
# Config that a pair's p_yes depends on, besides the model, the template and
# the enriched concepts.
_P_YES_CONFIG = ("shots", "softmax_mode")

STAGE_TABLE: dict[str, Stage] = {
    "ingest": Stage(
        files=("source", "target"),
        config=("label_property", "synonym_properties"),
        writes=(*_CONCEPTS, "exact.tsv"),
    ),
    # Under use_definitions=False define writes every definition as null, so
    # later stages find none to render; shots drops the examples' own.
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
        model="embed_model_id",
        writes=_EMBEDDINGS,
    ),
    "match": Stage(
        reads=_EMBEDDINGS,
        config=("k", "bidirectional"),
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
        reads=("judgements.tsv", "exact.tsv"),
        config=("lambda_prob", "lambda_cs", "with_provenance"),
        writes=("mappings.tsv",),
    ),
    # The ranking scorer reads the embeddings ("cosine") or judges every
    # ranking-case pair like the judge stage ("pyes").
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
    source_name: str = "source"
    target_name: str = "target"
    out_dir: str = "out"
    cache_dir: str = "cache"
    k: int = 10
    lambda_prob: float = 0.99
    lambda_cs: float = 0.97
    few_shot: int = 0
    use_definitions: bool = True
    bidirectional: bool = False
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int = 256
    softmax_mode: str = "pair"
    with_provenance: bool = False
    reference: str | None = None
    ranking_cases: str | None = None
    ranking_scorer: str = "cosine"
    max_workers: int = DEFAULT_MAX_WORKERS
    label_property: str = DEFAULT_LABEL_PROPERTY
    synonym_properties: list[str] = field(default_factory=lambda: list(DEFAULT_SYNONYM_PROPERTIES))
    provider: dict = field(default_factory=lambda: {"kind": DEFAULT_PROVIDER_KIND})
    few_shot_examples: list[dict] | None = None

    def __post_init__(self):
        check_record(vars(self), get_type_hints(PipelineConfig))
        for name, ok, rule in (
            ("lambda_prob", 0.0 <= self.lambda_prob <= 1.0, "in [0, 1]"),
            ("lambda_cs", 0.0 <= self.lambda_cs <= 1.0, "in [0, 1]"),
            ("k", self.k >= 1, ">= 1"),
            ("few_shot", self.few_shot >= 0, ">= 0"),
            ("softmax_mode", self.softmax_mode in ("pair", "full"), "'pair' or 'full'"),
            ("ranking_scorer", self.ranking_scorer in ("cosine", "pyes"), "'cosine' or 'pyes'"),
            ("max_workers", self.max_workers >= 1, ">= 1"),
            ("label_property", bool(self.label_property), "non-empty"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        try:  # the objects the stages build from these fields check them
            SamplingParams(self.temperature, self.top_p, self.max_tokens)
            self.shots
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        check_record(data, get_type_hints(cls))
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fp:
            try:
                data = json.load(fp)
            except json.JSONDecodeError as e:
                raise ConfigError(f"invalid config JSON in {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config in {path} must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    @property
    def shots(self) -> tuple[FewShotExample, ...]:
        """The judge's few-shot examples, without their definitions under
        ``use_definitions=False``."""
        if self.few_shot_examples is None:
            pool = DEFAULT_FEW_SHOT
        else:
            pool = tuple(map(FewShotExample.from_dict, self.few_shot_examples))
        if self.few_shot > len(pool):
            raise ConfigError(
                f"few_shot={self.few_shot} but only {len(pool)} examples available"
            )
        if not self.use_definitions:
            pool = tuple(replace(shot, a=replace(shot.a, definition=None),
                                 b=replace(shot.b, definition=None)) for shot in pool)
        return pool[: self.few_shot]


def global_report(predicted: dict[Pair, Mapping], reference: dict[Pair, Mapping]) -> MetricsReport:
    """Precision, recall, F1 and the pair counts of ``predicted`` against
    ``reference``, each keyed by pair as ``read_mappings`` returns it."""
    precision, recall, f1 = global_metrics(predicted, reference)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        predicted_count=len(predicted),
        reference_count=len(reference),
    )


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
                    stages = json.load(fp).get("stages", {})
                if not all(isinstance(e.get("outputs", {}), dict) for e in stages.values()):
                    raise ValueError("an entry's outputs are not an object")
                self.stages = stages
            except (ValueError, AttributeError):  # not UTF-8 JSON of stage entries
                logger.warning("ignoring corrupt manifest %s", path)

    def save(self) -> None:
        with atomic_open(self.path) as fp:
            json.dump({"stages": self.stages}, fp, indent=2, sort_keys=True)
            fp.write("\n")

    def can_skip(self, stage: str, input_digest: str, out_dir: Path) -> bool:
        entry = self.stages.get(stage)
        if not entry or entry.get("status") != "complete":
            return False
        if entry.get("input_digest") != input_digest:
            return False
        outputs = entry.get("outputs", {})
        # An entry that names other artifacts than the row writes (one from
        # before an artifact was renamed) did not write what later stages read.
        if outputs.keys() != set(STAGE_TABLE[stage].writes):
            return False
        for artifact, digest in outputs.items():
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


class _RowConfig(SimpleNamespace):
    """A stage row's config values and ``_stage``."""

    def __getattr__(self, name: str):  # only for a name the row does not declare
        raise AttributeError(f"stage {self._stage!r} does not declare config field {name!r} "
                             "in its STAGE_TABLE row")


class StageContext:
    """All one stage may read, taken from its ``STAGE_TABLE`` row: ``config``
    (the row's config attributes), ``path`` and the ``read``/``write``/
    ``enriched``/``embeddings`` built on it (the row's artifacts), ``provider``
    (only when the row names a model), ``cache`` and ``max_workers``, which
    sets speed and never output. Anything else raises ``AttributeError``.
    ``input_digest`` hashes the same values, so a stage reads only what its
    digest covers.

    ``parses`` is the run's store of artifact parses, keyed by artifact name
    and the sha256 ``input_digest`` took of it: ``enriched`` and
    ``embeddings`` serve a parse an earlier stage of the run made of the same
    bytes, and store their own. Served parses are shared, so a stage must not
    change them. Without ``parses``, or before ``input_digest``, every call
    parses."""

    def __init__(self, stage: str, config: PipelineConfig, cache: ResponseCache,
                 provider: Provider | None = None, parses: dict | None = None):
        row = STAGE_TABLE[stage]
        self.stage, self._row, self.cache = stage, row, cache
        self.config = _RowConfig(_stage=stage, **{name: getattr(config, name)
                                                  for name in row.files + row.config})
        self.max_workers = config.max_workers
        self._out_dir = Path(config.out_dir)
        self._provider = provider
        self._parses = parses
        self._digests: dict[str, str] = {}  # artifact -> sha256, set by input_digest

    @property
    def provider(self) -> Provider:
        if not self._row.model:
            raise AttributeError(f"stage {self.stage!r} names no model in its STAGE_TABLE row")
        return self._provider

    def path(self, name: str) -> Path:
        """A declared artifact."""
        if name not in {*self._row.reads, *self._row.writes}:
            raise AttributeError(f"stage {self.stage!r} does not declare artifact {name!r} "
                                 "in its STAGE_TABLE row")
        return self._out_dir / name

    def read(self, name: str, reader: Callable):
        """``reader(fp)`` over a declared artifact, opened as UTF-8 text."""
        with open(self.path(name), "r", encoding="utf-8") as fp:
            return reader(fp)

    def write(self, name: str, writer: Callable) -> None:
        """Write a declared artifact atomically with LF newlines."""
        with atomic_open(self.path(name)) as fp:
            writer(fp)

    def _shared(self, artifact: str, parse: Callable[[], T]) -> T:
        """``parse()`` of ``artifact``, or the run's parse of the same bytes."""
        if self._parses is None or artifact not in self._digests:
            return parse()
        key = (artifact, self._digests[artifact])
        if key not in self._parses:
            self._parses[key] = parse()
        return self._parses[key]

    def enriched(self, side: str) -> Ontology:
        """One side's ``enriched`` artifact."""
        artifact = f"{side}.enriched.jsonl"
        return self._shared(artifact, lambda: self.read(artifact, read_concept_jsonl))

    def embeddings(self, side: str) -> tuple[list[str], np.ndarray]:
        """One side's IRIs and embedding matrix, from its ``embeddings`` artifact."""
        artifact = f"{side}.embeddings.npz"
        return self._shared(artifact, lambda: load_embeddings(self.path(artifact)))

    def input_digest(self) -> str:
        """Digest of all the stage reads; ``run_stage`` skips it while unchanged."""
        row, cfg = self._row, self.config
        self._digests = {a: _sha256_file(self.path(a)) for a in row.reads}
        return _digest_of({
            "artifacts": self._digests,
            "files": {f: _sha256_file(Path(getattr(cfg, f))) if getattr(cfg, f) else None
                      for f in row.files},
            "config": {name: getattr(cfg, name) for name in row.config},
            "model": getattr(self.provider, row.model) if row.model else None,
            "template": getattr(*row.template) if row.template else None,
        })


def _ingest(ctx: StageContext, limit: int | None) -> None:
    cfg = ctx.config
    ontologies = {}
    for side in SIDES:
        path = getattr(cfg, side)
        onto = parse_ontology(path, label_property=cfg.label_property,
                              synonym_properties=cfg.synonym_properties)
        if not onto:
            raise OntologyParseError(f"{path} has no classes")
        dangling = sum(p not in onto for c in onto.values() for p in c.parents)
        logger.info("ingested %s: %d concepts (%d dangling parent refs)",
                    side, len(onto), dangling)
        ontologies[side] = onto
    for side, onto in ontologies.items():
        ctx.write(f"{side}.concepts.jsonl", partial(write_concept_jsonl, onto))
    exact = exact_match(*ontologies.values())
    ctx.write("exact.tsv", lambda fp: write_mappings(exact, fp, with_provenance=True))


def _define(ctx: StageContext, limit: int | None) -> bool:
    """Returns True when every concept has a definition (or none is wanted)."""
    cfg = ctx.config
    complete = True
    remaining = limit
    for side, other in zip(SIDES, reversed(SIDES)):
        # define alone reads the concepts, so it fills in its own parse.
        onto = ctx.read(f"{side}.concepts.jsonl", read_concept_jsonl)
        if cfg.use_definitions:
            processed = enrich_ontology(
                onto,
                (getattr(cfg, f"{side}_name"), getattr(cfg, f"{other}_name")),
                ctx.provider,
                ctx.cache,
                params=SamplingParams(cfg.temperature, cfg.top_p, cfg.max_tokens),
                limit=remaining,
                max_workers=ctx.max_workers,
            )
            if remaining is not None:
                remaining = max(0, remaining - processed)
            complete = complete and all(c.definition is not None for c in onto.values())
        else:
            for concept in onto.values():
                concept.definition = None
        ctx.write(f"{side}.enriched.jsonl", partial(write_concept_jsonl, onto))
    return complete


def _embed(ctx: StageContext, limit: int | None) -> None:
    model = ctx.provider.embed_model_id
    for side in SIDES:
        onto = ctx.enriched(side)
        iris = sorted(onto)
        texts = [build_embedding_text(onto[i]) for i in iris]
        key = _digest_of({"model": model, "texts": texts})
        entry = ctx.cache.root / "embed" / f"{key}.npz"
        matrix = None
        if entry.exists():
            try:
                # Rows follow the texts the key covers, whatever IRIs the
                # entry was written under.
                _, matrix = load_embeddings(entry)
                if len(matrix) != len(texts):
                    raise OntologyParseError(f"{entry} holds {len(matrix)} rows for "
                                             f"{len(texts)} texts")
            except OntologyParseError as e:
                logger.warning("recomputing corrupt embedding cache entry %s: %s", key, e)
                matrix = None
        if matrix is None:
            matrix = np.stack(ctx.provider.embed_batch(texts))
            save_embeddings(entry, iris, matrix)
        save_embeddings(ctx.path(f"{side}.embeddings.npz"), iris, matrix)


def _match(ctx: StageContext, limit: int | None) -> None:
    cfg = ctx.config
    source, target = map(ctx.embeddings, SIDES)
    candidates = generate_candidates(*source, build_index(*target), k=cfg.k)
    if cfg.bidirectional:
        backward = generate_candidates(*target, build_index(*source), k=cfg.k)
        candidates = merge_candidate_maps(candidates, backward)
    ctx.write("candidates.tsv", lambda fp: write_candidates(candidates, fp))


def _judge_pairs(ctx: StageContext, candidates: dict[str, list[tuple[str, float]]],
                 limit: int | None = None) -> list[Judgement]:
    """``judge_candidates`` over the enriched ontologies with the judge
    config: the one judging call of the judge stage and the ``pyes`` scorer."""
    return judge_candidates(
        candidates,
        *(ctx.enriched(side) for side in SIDES),
        ctx.provider,
        ctx.cache,
        shots=ctx.config.shots,
        softmax_mode=ctx.config.softmax_mode,
        limit=limit,
        max_workers=ctx.max_workers,
    )


def _judge(ctx: StageContext, limit: int | None) -> bool:
    candidates = ctx.read("candidates.tsv", read_candidates)
    judgements = _judge_pairs(ctx, candidates, limit)
    ctx.write("judgements.tsv",
              lambda fp: write_judgements(judgements, fp, ctx.config.lambda_prob))
    return limit is None or limit >= sum(len(v) for v in candidates.values())


def _fuse(ctx: StageContext, limit: int | None) -> None:
    cfg = ctx.config
    judgements = ctx.read("judgements.tsv", read_judgements)
    exact = ctx.read("exact.tsv", read_mappings).values()
    fused = filter_and_fuse(
        judgements, exact, lambda_prob=cfg.lambda_prob, lambda_cs=cfg.lambda_cs
    )
    ctx.write("mappings.tsv", lambda fp: write_mappings(fused, fp, cfg.with_provenance))


def _ranking_scorer(ctx: StageContext) -> Callable[[list[Pair]], dict[Pair, float]]:
    """Batch scorer of ranking-case pairs: the cosine of their embedding
    artifacts (-1.0, with one warning for the batch, for a concept missing
    from them or of zero norm), or their p_yes from one ``judge_candidates``
    call (0.0 for a missing concept)."""
    if ctx.config.ranking_scorer == "cosine":
        # Each row as float64, as cosine takes it, with its norm.
        src, tgt = ({iri: (v, float(np.linalg.norm(v)))
                     for iri, v in zip(iris, matrix.astype(np.float64, copy=False))}
                    for iris, matrix in map(ctx.embeddings, SIDES))

        def cosine(pairs: list[Pair]) -> dict[Pair, float]:
            scores, absent = {}, []
            for s, t in pairs:
                try:
                    scores[s, t] = normed_cosine(*src[s], *tgt[t])
                except (KeyError, ItemError):  # a missing concept, or a zero-norm one
                    scores[s, t] = -1.0
                    absent.append((s, t))
            if absent:
                logger.warning("%d ranking-case pairs scored -1.0, a concept missing from the "
                               "embedding artifacts or of zero norm; the first: %s",
                               len(absent), absent[:3])
            return scores

        return cosine

    def p_yes(pairs: list[Pair]) -> dict[Pair, float]:
        targets: dict[str, list[tuple[str, float]]] = {}
        for s, t in pairs:
            targets.setdefault(s, []).append((t, 0.0))
        judged = {(j.source, j.target): j.p_yes for j in _judge_pairs(ctx, targets)}
        return {pair: judged.get(pair, 0.0) for pair in pairs}

    return p_yes


def _eval(ctx: StageContext, limit: int | None) -> None:
    cfg = ctx.config
    if not cfg.reference:
        raise ConfigError("eval stage needs a reference mapping file")
    predicted = ctx.read("mappings.tsv", read_mappings)
    with open(cfg.reference, "r", encoding="utf-8") as fp:
        reference = read_mappings(fp)
    report = global_report(predicted, reference)
    if cfg.ranking_cases:
        with open(cfg.ranking_cases, "r", encoding="utf-8") as fp:
            rows = read_ranking_cases(fp)
        unreferenced = sum(1 for source, gold, _ in rows if (source, gold) not in reference)
        if unreferenced:
            logger.warning("%d of %d ranking-case rows have a (source, gold) pair the "
                           "reference lacks; scoring them as written", unreferenced, len(rows))
        cases = make_ranking_cases(rows, _ranking_scorer(ctx))
        if cases:
            report.mrr, report.hit_at = local_ranking(cases, ks=(1, 5, 10))
    ctx.write("metrics.json", lambda fp: fp.write(report.to_json()))
    ctx.write("metrics.txt", lambda fp: fp.write(report.to_text()))


class Pipeline:
    def __init__(self, config: PipelineConfig, provider: Provider | None = None):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.cache = ResponseCache(Path(config.cache_dir))
        self.provider = provider if provider is not None else make_provider(config)
        self.manifest = StageManifest(self.out_dir / "manifest.json")
        self._parses: dict | None = None  # the artifact parses of the running run()

    def run_stage(self, stage: str, force: bool = False, limit: int | None = None) -> str:
        """Run one stage; returns 'complete', 'partial', or 'skipped'."""
        if stage not in STAGE_TABLE:
            raise ValueError(f"unknown stage {stage!r}")
        if limit is not None and limit < 0:  # it would slice work lists from their end
            raise ValueError(f"limit must be >= 0, got {limit}")
        row = STAGE_TABLE[stage]
        for artifact in row.reads:
            if not (self.out_dir / artifact).exists():
                raise MissingArtifactError(artifact, _PRODUCER[artifact])
        ctx = StageContext(stage, self.config, self.cache, self.provider, self._parses)
        input_digest = ctx.input_digest()
        if not force and self.manifest.can_skip(stage, input_digest, self.out_dir):
            logger.info("stage %s: inputs unchanged, skipping", stage)
            return "skipped"
        started = time.monotonic()
        try:
            outcome = globals()[f"_{stage}"](ctx, limit)
        except Exception as e:
            self.manifest.record(
                stage, "failed", input_digest, {}, time.monotonic() - started, error=str(e)
            )
            raise
        status = "complete" if outcome in (None, True) else "partial"
        outputs = {
            a: _sha256_file(self.out_dir / a) for a in row.writes if (self.out_dir / a).exists()
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
        including eval only when a reference is configured), once every
        input file they read is there and neither ``out_dir`` nor
        ``cache_dir`` is a file or lies under one. A stage reuses an artifact
        parse an earlier stage of this run made of the same bytes; a parse is
        dropped after the last listed stage whose row reads its artifact. An
        unknown stage name raises ValueError before anything is written."""
        if stages is None:
            stages = [s for s in STAGES if s != "eval" or self.config.reference]
        unknown = [s for s in stages if s not in STAGE_TABLE]
        if unknown:
            raise ValueError(f"unknown stage {', '.join(map(repr, unknown))}")
        ordered = [s for s in STAGES if s in set(stages)]
        for name in (f for stage in ordered for f in STAGE_TABLE[stage].files):
            path = getattr(self.config, name)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name} {path!r} is not a file")
        for name in ("out_dir", "cache_dir"):
            path = getattr(self.config, name)
            if any(p.exists() and not p.is_dir() for p in (Path(path), *Path(path).parents)):
                raise ConfigError(f"{name} {path!r} is a file or lies under one")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        last_reader = {a: stage for stage in ordered for a in STAGE_TABLE[stage].reads}
        results = {}
        self._parses = {}
        try:
            for stage in ordered:
                results[stage] = self.run_stage(stage, force=force, limit=limit)
                for key in [k for k in self._parses if last_reader[k[0]] == stage]:
                    del self._parses[key]
        finally:
            self._parses = None
        return results
