"""LLM equivalence judgement over candidate pairs.

The judge prompt presents two concept blocks (Name / Synonyms / Superclass /
Definition, empty lines omitted) and asks for a bare YES or NO. The score is
the probability mass of YES-variant tokens renormalized against the NO-variant
mass in the first-token distribution, computed in log space.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Sequence

from .cache import ResponseCache
from .errors import OntologyParseError, UnparseableJudgementError
from .model import ContextBlock, Judgement, Ontology, Thresholds, concept_context
from .providers import (
    Message,
    Prompt,
    Provider,
    ProviderPool,
    TokenDistribution,
    prompt_digest,
)

logger = logging.getLogger(__name__)

__all__ = [
    "JUDGE_TEMPLATE_VERSION",
    "JUDGE_SYSTEM",
    "FewShotExample",
    "DEFAULT_FEW_SHOT",
    "build_judgement_prompt",
    "p_yes",
    "judge_pair",
    "judge_candidates",
    "write_judgements",
    "read_judgements",
]

JUDGE_TEMPLATE_VERSION = "1"

JUDGE_SYSTEM = (
    "You are an expert in biomedical concept classification. You will be given "
    "two biomedical concepts. Based on the information provided, determine "
    "whether the two concepts refer to the same real-world entity (ontology "
    "matching). Only respond with YES or NO."
)

YES_VARIANTS = ("YES", "Yes", "yes", " YES", " Yes", " yes")
NO_VARIANTS = ("NO", "No", "no", " NO", " No", " no")

LOGPROB_FLOOR = -20.0


def _concept_block(heading: str, ctx: ContextBlock, include_definition: bool) -> str:
    lines = [heading, f"Name: {ctx.display_name()}"]
    if ctx.synonyms:
        lines.append("Synonyms: " + ", ".join(ctx.synonyms))
    if ctx.parents:
        lines.append("Superclass: " + ", ".join(ctx.parents))
    if include_definition and ctx.definition:
        lines.append(f"Definition: {ctx.definition}")
    return "\n".join(lines)


def _pair_text(a: ContextBlock, b: ContextBlock, include_definition: bool) -> str:
    return (
        _concept_block("Concept A", a, include_definition)
        + "\n\n"
        + _concept_block("Concept B", b, include_definition)
    )


@dataclass(frozen=True)
class FewShotExample:
    a: ContextBlock
    b: ContextBlock
    answer: str  # "YES" or "NO"

    def __post_init__(self):
        if self.answer not in ("YES", "NO"):
            raise ValueError(f"few-shot answer must be YES or NO, got {self.answer!r}")


def _shot_context(name: str, synonyms: list[str], parents: list[str], definition: str) -> ContextBlock:
    return ContextBlock(
        iri=f"urn:example:{name.replace(' ', '-')}",
        label=name,
        synonyms=synonyms,
        parents=parents,
        descriptions=[],
        definition=definition,
    )


# A static positive/negative pair of invented concepts; configuration may
# replace these. They are intentionally generic so they leak no benchmark data.
DEFAULT_FEW_SHOT = (
    FewShotExample(
        a=_shot_context(
            "myocardium",
            ["cardiac muscle tissue"],
            ["muscle tissue"],
            "The muscular tissue layer of the heart wall responsible for contraction.",
        ),
        b=_shot_context(
            "heart muscle",
            ["myocardial tissue"],
            ["muscle structure"],
            "The contractile muscle component forming the wall of the heart.",
        ),
        answer="YES",
    ),
    FewShotExample(
        a=_shot_context(
            "left kidney",
            ["left renal organ"],
            ["kidney"],
            "The kidney located on the left side of the retroperitoneal space.",
        ),
        b=_shot_context(
            "right kidney",
            ["right renal organ"],
            ["kidney"],
            "The kidney located on the right side of the retroperitoneal space.",
        ),
        answer="NO",
    ),
)


def build_judgement_prompt(
    a: ContextBlock,
    b: ContextBlock,
    shots: Sequence[FewShotExample] = (),
    include_definition: bool = True,
) -> list[Message]:
    """System turn, alternating few-shot user/assistant turns, live user turn."""
    messages: list[Message] = [{"role": "system", "content": JUDGE_SYSTEM}]
    for shot in shots:
        messages.append(
            {"role": "user", "content": _pair_text(shot.a, shot.b, include_definition)}
        )
        messages.append({"role": "assistant", "content": shot.answer})
    messages.append({"role": "user", "content": _pair_text(a, b, include_definition)})
    return messages


def _mass(dist: dict[str, float], variants: Sequence[str], floor: float) -> tuple[float, bool]:
    present = [dist[v] for v in variants if v in dist]
    if not present:
        return floor, False
    top = max(present)
    return top + math.log(sum(math.exp(x - top) for x in present)), True


def p_yes(
    dist: TokenDistribution | dict[str, float],
    floor: float = LOGPROB_FLOOR,
    mode: str = "pair",
) -> float:
    """Probability of YES from a first-token distribution.

    ``pair`` renormalizes the YES-variant mass against the NO-variant mass
    (an absent side takes ``floor``); ``full`` divides the YES mass by the
    total mass of every entry in the distribution. Shift-invariant in ``pair``
    mode. Raises UnparseableJudgementError when neither side has any variant.
    """
    entries = dist.entries if isinstance(dist, TokenDistribution) else dist
    if not entries:
        raise UnparseableJudgementError("empty token distribution")
    yes_mass, yes_found = _mass(entries, YES_VARIANTS, floor)
    no_mass, no_found = _mass(entries, NO_VARIANTS, floor)
    if not yes_found and not no_found:
        raise UnparseableJudgementError(
            f"no YES or NO variant among tokens {sorted(entries)[:8]}"
        )
    if mode == "pair":
        # 1 / (1 + exp(no - yes)), stable for large |no - yes|
        diff = no_mass - yes_mass
        if diff >= 0:
            return math.exp(-math.log1p(math.exp(-diff)) - diff)
        return 1.0 / (1.0 + math.exp(diff))
    if mode == "full":
        values = list(entries.values())
        top = max(values)
        total = top + math.log(sum(math.exp(v - top) for v in values))
        if not yes_found:
            return 0.0
        return math.exp(yes_mass - total)
    raise ValueError(f"unknown p_yes mode {mode!r}")


def _judge_prompt(
    source_ctx: ContextBlock,
    target_ctx: ContextBlock,
    shots: Sequence[FewShotExample],
    include_definition: bool,
    provider: Provider,
) -> Prompt:
    messages = build_judgement_prompt(
        source_ctx, target_ctx, shots=shots, include_definition=include_definition
    )
    return Prompt(
        messages,
        prompt_digest("judge", JUDGE_TEMPLATE_VERSION, provider.chat_model_id, messages),
    )


def judge_pair(
    source_ctx: ContextBlock,
    target_ctx: ContextBlock,
    cos: float,
    provider: Provider,
    thresholds: Thresholds = Thresholds(),
    shots: Sequence[FewShotExample] = (),
    include_definition: bool = True,
    cache: ResponseCache | None = None,
    softmax_mode: str = "pair",
    prompt: Prompt | None = None,
) -> Judgement:
    """Judge one pair. ``prompt``, when given, is this pair's prompt as
    ``judge_candidates`` already rendered it; it is not rendered again."""
    if prompt is None:
        prompt = _judge_prompt(source_ctx, target_ctx, shots, include_definition, provider)
    messages = prompt.messages

    def compute() -> dict:
        dist = provider.classify_first_token(messages)
        return {"model": provider.chat_model_id, "entries": dist.entries}

    if cache is None:
        entries = compute()["entries"]
    else:
        entries = cache.get_or_compute("judge", prompt.digest, compute)["entries"]
    score = p_yes(entries, mode=softmax_mode)
    return Judgement(
        source=source_ctx.iri,
        target=target_ctx.iri,
        cosine=cos,
        p_yes=score,
        decision=score >= thresholds.lambda_prob,
    )


def judge_candidates(
    candidates: dict[str, list[tuple[str, float]]],
    source_onto: Ontology,
    target_onto: Ontology,
    provider: Provider,
    thresholds: Thresholds = Thresholds(),
    shots: Sequence[FewShotExample] = (),
    include_definition: bool = True,
    cache: ResponseCache | None = None,
    softmax_mode: str = "pair",
    limit: int | None = None,
    max_workers: int = 8,
) -> list[Judgement]:
    """Judge every candidate pair; returns judgements sorted by (source, target).

    Pairs whose concepts are missing from either ontology are skipped with a
    warning. ``limit`` bounds the number of pairs judged (for smoke runs).
    Pairs whose answer is cached are judged on the calling thread; only the
    others go to a ``ProviderPool`` of ``max_workers`` threads.
    """
    pairs: list[tuple[str, str, float]] = []
    for src in sorted(candidates):
        for tgt, sim in candidates[src]:
            pairs.append((src, tgt, sim))
    if limit is not None:
        pairs = pairs[:limit]

    options = dict(
        thresholds=thresholds,
        shots=shots,
        include_definition=include_definition,
        cache=cache,
        softmax_mode=softmax_mode,
    )
    results: list[Judgement] = []
    with ProviderPool(ThreadPoolExecutor, max_workers) as pool:
        for src, tgt, sim in pairs:
            sc = source_onto.concepts.get(src)
            tc = target_onto.concepts.get(tgt)
            if sc is None or tc is None:
                logger.warning("skipping pair (%s, %s): concept missing", src, tgt)
                continue
            a = concept_context(sc, source_onto)
            b = concept_context(tc, target_onto)
            prompt = _judge_prompt(a, b, shots, include_definition, provider)
            if cache is not None and cache.contains("judge", prompt.digest):
                results.append(judge_pair(a, b, sim, provider, prompt=prompt, **options))
            else:
                pool.submit(judge_pair, a, b, sim, provider, prompt=prompt, **options)
        served = len(results)
        results.extend(pool.results())
    logger.info(
        "judged %d pairs: %d served from cache, %d sent to the provider",
        len(results), served, len(results) - served,
    )
    results.sort(key=lambda j: (j.source, j.target))
    return results


def write_judgements(judgements: Sequence[Judgement], fp: IO[str]) -> None:
    fp.write("SrcEntity\tTgtEntity\tCosine\tPYes\tDecision\n")
    for j in sorted(judgements, key=lambda j: (j.source, j.target)):
        fp.write(
            f"{j.source}\t{j.target}\t{j.cosine:.8f}\t{j.p_yes:.8f}\t"
            f"{'yes' if j.decision else 'no'}\n"
        )


def read_judgements(fp: IO[str]) -> list[Judgement]:
    out: list[Judgement] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if lineno == 1 and parts[0] == "SrcEntity":
            continue
        if len(parts) != 5:
            raise OntologyParseError("judgement row needs 5 columns", line=lineno)
        out.append(
            Judgement(
                source=parts[0],
                target=parts[1],
                cosine=float(parts[2]),
                p_yes=float(parts[3]),
                decision=parts[4] == "yes",
            )
        )
    return out
