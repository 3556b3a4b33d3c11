"""LLM equivalence judgement over candidate pairs.

The judge prompt presents two concept blocks (Name / Synonyms / Superclass /
Definition, empty lines omitted) and asks for a bare YES or NO. The score is
the probability mass of YES-variant tokens renormalized against the NO-variant
mass in the first-token distribution, computed in log space.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Sequence, get_type_hints

from .cache import ResponseCache
from .errors import ConfigError, ItemError
from .model import ContextBlock, Judgement, Ontology, check_record, concept_context, read_tsv_rows
from .providers import Message, Prompt, PromptFrame, Provider, json_escape, prompt_digest

logger = logging.getLogger(__name__)

__all__ = [
    "JUDGE_TEMPLATE_VERSION",
    "JUDGE_SYSTEM",
    "FewShotExample",
    "DEFAULT_FEW_SHOT",
    "build_judgement_prompt",
    "judge_prompt",
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
_NUMBER_TYPES = frozenset((int, float))  # a bool is not a log-probability
_PAIR = itemgetter(0, 1)  # a Judgement's (source, target)


def _concept_block(heading: str, ctx: ContextBlock) -> str:
    lines = [heading, f"Name: {ctx.display_name()}"]
    if ctx.synonyms:
        lines.append("Synonyms: " + ", ".join(ctx.synonyms))
    if ctx.parents:
        lines.append("Superclass: " + ", ".join(ctx.parents))
    if ctx.definition:
        lines.append(f"Definition: {ctx.definition}")
    return "\n".join(lines)


def _pair_text(a: ContextBlock, b: ContextBlock) -> str:
    return _concept_block("Concept A", a) + "\n\n" + _concept_block("Concept B", b)


def _head_turns(shots: Sequence[FewShotExample]) -> list[Message]:
    """The turns before the live pair's: system, then each shot's user/assistant turns."""
    messages: list[Message] = [{"role": "system", "content": JUDGE_SYSTEM}]
    for shot in shots:
        messages.append({"role": "user", "content": _pair_text(shot.a, shot.b)})
        messages.append({"role": "assistant", "content": shot.answer})
    return messages


@dataclass(frozen=True)
class FewShotExample:
    a: ContextBlock
    b: ContextBlock
    answer: str  # "YES" or "NO"

    def __post_init__(self):
        if self.answer not in ("YES", "NO"):
            raise ValueError(f"few-shot answer must be YES or NO, got {self.answer!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "FewShotExample":
        """An example from ``{"a": {...}, "b": {...}, "answer": "YES" | "NO"}``.
        Each concept takes ``ContextBlock``'s keys, all optional: ``label``,
        ``synonyms``, ``parents``, ``descriptions``, ``definition`` and an
        ``iri``, which the prompt does not show. A misshapen example, or an
        unknown key or a value of the wrong JSON type in a concept, is a
        ``ConfigError`` that names it."""

        def context(block: dict) -> ContextBlock:
            if not isinstance(block, dict):
                raise ConfigError(f"few-shot concept must be an object, got {block!r}")
            check_record(block, get_type_hints(ContextBlock), "few-shot concept")
            return ContextBlock(**{"iri": "urn:example:shot", "label": None, "synonyms": [],
                                   "parents": [], "descriptions": [], **block})

        if not isinstance(d, dict) or not {"a", "b", "answer"} <= d.keys():
            raise ConfigError(
                f"few-shot example must be an object with a, b and answer, got {d!r}")
        return cls(a=context(d["a"]), b=context(d["b"]), answer=d["answer"])


# A static positive/negative pair of invented concepts; configuration may
# replace these. They are intentionally generic so they leak no benchmark data.
DEFAULT_FEW_SHOT = tuple(map(FewShotExample.from_dict, (
    {
        "a": {
            "iri": "urn:example:myocardium",
            "label": "myocardium",
            "synonyms": ["cardiac muscle tissue"],
            "parents": ["muscle tissue"],
            "definition":
                "The muscular tissue layer of the heart wall responsible for contraction.",
        },
        "b": {
            "iri": "urn:example:heart-muscle",
            "label": "heart muscle",
            "synonyms": ["myocardial tissue"],
            "parents": ["muscle structure"],
            "definition": "The contractile muscle component forming the wall of the heart.",
        },
        "answer": "YES",
    },
    {
        "a": {
            "iri": "urn:example:left-kidney",
            "label": "left kidney",
            "synonyms": ["left renal organ"],
            "parents": ["kidney"],
            "definition": "The kidney located on the left side of the retroperitoneal space.",
        },
        "b": {
            "iri": "urn:example:right-kidney",
            "label": "right kidney",
            "synonyms": ["right renal organ"],
            "parents": ["kidney"],
            "definition": "The kidney located on the right side of the retroperitoneal space.",
        },
        "answer": "NO",
    },
)))


def build_judgement_prompt(
    a: ContextBlock,
    b: ContextBlock,
    shots: Sequence[FewShotExample] = (),
) -> list[Message]:
    """System turn, alternating few-shot user/assistant turns, live user turn."""
    return [*_head_turns(shots), {"role": "user", "content": _pair_text(a, b)}]


def _mass(dist: dict[str, float], variants: Sequence[str]) -> tuple[float, bool]:
    """The log-sum-exp of the log-probabilities of ``variants`` in ``dist``,
    summed in variant order, and whether any is there. Plain loops: a
    comprehension or generator costs more than the work on a short reply,
    and this runs twice for every judged pair."""
    present = []
    for v in variants:
        if v in dist:
            present.append(dist[v])
    if not present:
        return LOGPROB_FLOOR, False
    top = max(present)
    if top == -math.inf:
        return top, True
    total = 0.0  # as sum() starts: 0 + x is x for every exp(x - top) >= 0
    for x in present:
        total += math.exp(x - top)
    return top + math.log(total), True


def p_yes(entries: dict[str, float], mode: str = "pair") -> float:
    """Probability of YES from a first-token distribution (token text ->
    log-probability, as ``classify_first_token`` returns it).

    ``pair`` renormalizes the YES-variant mass against the NO-variant mass
    (an absent side takes ``LOGPROB_FLOOR``); ``full`` divides the YES mass by
    the total mass of every entry in the distribution. Shift-invariant in
    ``pair`` mode. Raises ``ItemError`` when neither side has any variant, or
    when the masses it divides are all zero (log-probability ``-inf``).
    """
    yes_mass, yes_found = _mass(entries, YES_VARIANTS)
    no_mass, no_found = _mass(entries, NO_VARIANTS)
    if not yes_found and not no_found:
        raise ItemError(f"no YES or NO variant among tokens {sorted(entries)[:8]}")
    if mode == "pair":
        if yes_mass == no_mass == -math.inf:
            raise ItemError("YES and NO both have log-probability -inf")
        # 1 / (1 + exp(no - yes)), stable for large |no - yes|
        diff = no_mass - yes_mass
        if diff >= 0:
            return math.exp(-math.log1p(math.exp(-diff)) - diff)
        return 1.0 / (1.0 + math.exp(diff))
    if mode == "full":
        values = list(entries.values())
        top = max(values)
        if top == -math.inf:
            raise ItemError("every token has log-probability -inf")
        total = top + math.log(sum(math.exp(v - top) for v in values))
        if not yes_found:
            return 0.0
        return math.exp(yes_mass - total)
    raise ValueError(f"unknown p_yes mode {mode!r}")


def judge_prompt(
    source_ctx: ContextBlock,
    target_ctx: ContextBlock,
    provider: Provider,
    shots: Sequence[FewShotExample] = (),
) -> Prompt:
    """The judge prompt of one pair, keyed for ``provider``'s chat model."""
    messages = build_judgement_prompt(source_ctx, target_ctx, shots=shots)
    return Prompt(
        messages,
        prompt_digest("judge", JUDGE_TEMPLATE_VERSION, provider.chat_model_id, messages),
    )


def judge_pair(
    prompt: Prompt,
    source: str,
    target: str,
    cos: float,
    provider: Provider,
    cache: ResponseCache,
    softmax_mode: str = "pair",
) -> Judgement:
    """Judge the pair ``(source, target)`` from its ``judge_prompt``, served
    from ``cache`` when it holds the answer. A reply without a YES or NO
    variant raises ``ItemError`` and is not cached; a cached one, or a cached
    entry without an ``entries`` object of numeric log-probabilities, is
    never served but recomputed and overwritten."""
    scored: list[float] = []

    def compute() -> dict:
        entries = provider.classify_first_token(prompt.messages)
        # Scored before it is returned, so an unparseable reply is never stored.
        scored.append(p_yes(entries, mode=softmax_mode))
        return {"entries": entries}

    entries = cache.get_or_compute("judge", prompt.digest, compute).get("entries")
    if not scored:
        try:
            if not isinstance(entries, dict) or not _NUMBER_TYPES.issuperset(
                map(type, entries.values())
            ):
                raise ItemError("no entries object of log-probabilities")
            scored.append(p_yes(entries, mode=softmax_mode))
        except ItemError as e:
            logger.warning("recomputing cached judgement %s: %s", prompt.digest, e)
            cache.recompute("judge", prompt.digest, compute)
    return Judgement(source, target, cos, scored[0])


def _blocks(heading: str, iris: set[str], onto: Ontology) -> dict[str, tuple[str, str]]:
    """The prompt block of each of ``iris`` that ``onto`` has, and its ``json_escape``."""
    blocks = {iri: _concept_block(heading, concept_context(onto.concepts[iri], onto))
              for iri in iris & onto.concepts.keys()}
    return {iri: (block, json_escape(block)) for iri, block in blocks.items()}


def judge_candidates(
    candidates: dict[str, list[tuple[str, float]]],
    source_onto: Ontology,
    target_onto: Ontology,
    provider: Provider,
    cache: ResponseCache,
    shots: Sequence[FewShotExample] = (),
    softmax_mode: str = "pair",
    limit: int | None = None,
    max_workers: int = 8,
) -> list[Judgement]:
    """Judge every candidate pair; returns judgements sorted by (source, target).

    Pairs whose concepts are missing from either ontology are skipped with a
    warning. ``limit`` bounds the number of pairs judged (for smoke runs).
    Each concept's block is rendered and escaped once; a ``PromptFrame`` keys each pair.
    ``cache.serve`` judges cached pairs on the calling thread and the others on up
    to ``max_workers`` threads. Pairs with the same prompt share one provider
    call.
    """
    def pairs():  # read three times rather than held as a list: 64 bytes of tuple a pair
        return itertools.islice(
            ((src, tgt, sim) for src in sorted(candidates) for tgt, sim in candidates[src]), limit)

    source_blocks = _blocks("Concept A", {src for src, _, _ in pairs()}, source_onto)
    target_blocks = _blocks("Concept B", {tgt for _, tgt, _ in pairs()}, target_onto)
    head = _head_turns(shots)
    frame = PromptFrame("judge", JUDGE_TEMPLATE_VERSION, provider.chat_model_id,
                        [*head, {"role": "user"}])
    separator = json_escape("\n\n")

    def jobs():
        for src, tgt, sim in pairs():
            a = source_blocks.get(src)
            b = target_blocks.get(tgt)
            if a is None or b is None:
                logger.warning("skipping pair (%s, %s): concept missing", src, tgt)
                continue
            prompt = Prompt([*head, {"role": "user", "content": a[0] + "\n\n" + b[0]}],
                            frame.digest(a[1] + separator + b[1]))
            yield prompt.digest, functools.partial(
                judge_pair, prompt, src, tgt, sim, provider, cache, softmax_mode
            )

    results, served = cache.serve("judge", jobs(), max_workers)
    logger.info(
        "judged %d pairs: %d served from cache, %d sent to the provider",
        len(results), served, len(results) - served,
    )
    results.sort(key=_PAIR)
    return results


def write_judgements(judgements: Sequence[Judgement], fp: IO[str], lambda_prob: float) -> None:
    """One row per pair, in (source, target) order; ``Decision`` is ``yes``
    iff ``p_yes >= lambda_prob``."""
    fp.write("SrcEntity\tTgtEntity\tCosine\tPYes\tDecision\n")
    fp.writelines(
        f"{source}\t{target}\t{cosine:.8f}\t{p:.8f}\t{'yes' if p >= lambda_prob else 'no'}\n"
        for source, target, cosine, p in sorted(judgements, key=_PAIR)
    )


def read_judgements(fp: IO[str]) -> list[Judgement]:
    """Scores of a ``judgements.tsv``; the ``Decision`` column is not read."""
    return list(read_tsv_rows(
        fp, "judgement", 5,
        lambda parts: Judgement(parts[0], parts[1], float(parts[2]), float(parts[3])),
    ))
