"""Definition enrichment: prompt construction, generation, embedding texts.

The definition prompt tells the model which two vocabularies are being
aligned and supplies the concept's label, synonyms, parents, and any
verbalized equivalence descriptions; lines with empty fields are omitted
entirely. Embedding input strings follow the segment layout
``Label: ...; Synonyms: ...; Definition: ...;`` with absent segments dropped.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .cache import ResponseCache
from .errors import EmptyCompletionError, ProviderError
from .model import Concept, ContextBlock, Ontology, concept_context, iri_fragment
from .providers import (
    Message,
    Prompt,
    Provider,
    ProviderPool,
    SamplingParams,
    prompt_digest,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TEMPLATE_VERSION",
    "build_definition_prompt",
    "generate_definition",
    "enrich_ontology",
    "build_embedding_text",
    "truncate_words",
]

TEMPLATE_VERSION = "1"

DEFINITION_SYSTEM_TEMPLATE = (
    "You are generating a definition for a concept from the {source_name} ontology. "
    "The definition will be used to align it with candidate concepts in the "
    "{target_name} ontology.\n"
    "\n"
    "You are a biomedical ontology expert. Your task is to generate a concise, "
    "alignment-friendly definition for a given biomedical concept. The definition "
    "should be semantically precise, distinguishable from related terms, and "
    "suitable for matching across ontologies.\n"
    "\n"
    "Only return the definition."
)

DEFINITION_MAX_WORDS = 120


def _strip_period(text: str) -> str:
    return text[:-1] if text.endswith(".") else text


def build_definition_prompt(
    ctx: ContextBlock, source_name: str, target_name: str
) -> list[Message]:
    """Render the two-message definition prompt for one concept.

    Empty fields omit their line; a concept with neither label nor synonyms
    falls back to the IRI fragment for the Concept line.
    """
    name = ctx.display_name()
    if ctx.label is None:
        logger.warning("concept %s has no label; using IRI fragment", ctx.iri)
    lines = [f"Concept: {name}"]
    if ctx.synonyms:
        lines.append("Synonyms: " + ", ".join(ctx.synonyms))
    if ctx.parents:
        lines.append("Parents: " + ", ".join(ctx.parents))
    if ctx.descriptions:
        lines.append(
            "Description: " + "; ".join(_strip_period(d) for d in ctx.descriptions)
        )
    system = DEFINITION_SYSTEM_TEMPLATE.format(
        source_name=source_name, target_name=target_name
    )
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": "\n".join(lines)},
    ]


def _single_paragraph(text: str) -> str:
    """First paragraph of the completion, internal newlines collapsed."""
    stripped = text.strip()
    if not stripped:
        return ""
    paragraph = stripped.split("\n\n", 1)[0]
    return " ".join(paragraph.split())


def _definition_prompt(
    ctx: ContextBlock, source_name: str, target_name: str, provider: Provider
) -> Prompt:
    messages = build_definition_prompt(ctx, source_name, target_name)
    return Prompt(
        messages, prompt_digest("define", TEMPLATE_VERSION, provider.chat_model_id, messages)
    )


def generate_definition(
    ctx: ContextBlock,
    source_name: str,
    target_name: str,
    provider: Provider,
    cache: ResponseCache | None = None,
    params: SamplingParams | None = None,
    prompt: Prompt | None = None,
) -> str:
    """Generate (or replay from cache) one concept definition.

    Returns "" when the provider persistently yields nothing usable; the
    caller records the concept as flagged rather than failing the stage.
    ``prompt``, when given, is this concept's prompt as ``enrich_ontology``
    already rendered it; it is not rendered again.
    """
    params = params or SamplingParams()
    if prompt is None:
        prompt = _definition_prompt(ctx, source_name, target_name, provider)
    messages = prompt.messages

    def compute() -> dict:
        try:
            text = _single_paragraph(provider.generate(messages, params))
        except (EmptyCompletionError, ProviderError) as e:
            logger.warning("definition generation failed for %s: %s", ctx.iri, e)
            text = ""
        return {"model": provider.chat_model_id, "text": text}

    if cache is None:
        return compute()["text"]
    return cache.get_or_compute("define", prompt.digest, compute)["text"]


def enrich_ontology(
    ontology: Ontology,
    other_name: str,
    provider: Provider,
    cache: ResponseCache | None = None,
    params: SamplingParams | None = None,
    limit: int | None = None,
    max_workers: int = 8,
) -> int:
    """Fill ``definition`` for up to ``limit`` concepts (IRI order); returns
    the number processed. Concepts that already carry a definition are skipped.
    Concepts whose definition is cached are filled on the calling thread; only
    the others go to a ``ProviderPool`` of ``max_workers`` threads."""
    todo: list[Concept] = [
        c for c in ontology.sorted_concepts() if c.definition is None
    ]
    if limit is not None:
        todo = todo[:limit]

    names = (ontology.name, other_name)
    misses: list[Concept] = []
    with ProviderPool(ThreadPoolExecutor, max_workers) as pool:
        for concept in todo:
            ctx = concept_context(concept, ontology)
            prompt = _definition_prompt(ctx, *names, provider)
            if cache is not None and cache.contains("define", prompt.digest):
                concept.definition = generate_definition(
                    ctx, *names, provider, cache=cache, params=params, prompt=prompt
                )
            else:
                misses.append(concept)
                pool.submit(
                    generate_definition,
                    ctx, *names, provider, cache=cache, params=params, prompt=prompt,
                )
        for concept, definition in zip(misses, pool.results()):
            concept.definition = definition
    logger.info(
        "defined %d %s concepts: %d served from cache, %d sent to the provider",
        len(todo), ontology.name, len(todo) - len(misses), len(misses),
    )
    return len(todo)


def truncate_words(text: str, max_words: int = DEFINITION_MAX_WORDS) -> str:
    words = text.split()
    if len(words) <= max_words:
        return text
    return " ".join(words[:max_words])


def build_embedding_text(concept: Concept, include_definition: bool = True) -> str:
    """Embedding input string: ``Label: ...; Synonyms: a, b; Definition: ...;``.

    Absent segments are omitted. Definitions are truncated to
    ``DEFINITION_MAX_WORDS`` words. A concept with no usable text falls back
    to its IRI fragment as the label segment.
    """
    segments: list[str] = []
    if concept.label:
        segments.append(f"Label: {concept.label}")
    if concept.synonyms:
        segments.append("Synonyms: " + ", ".join(concept.synonyms))
    if include_definition and concept.definition:
        segments.append("Definition: " + truncate_words(concept.definition))
    if not segments:
        logger.warning(
            "concept %s has no label, synonyms, or definition; embedding IRI fragment",
            concept.iri,
        )
        segments.append(f"Label: {iri_fragment(concept.iri)}")
    return "; ".join(segments) + ";"
