"""Definition enrichment: prompt construction, generation, embedding texts.

The definition prompt tells the model which two vocabularies are being
aligned and supplies the concept's label, synonyms, parents, and any
verbalized equivalence descriptions; lines with empty fields are omitted
entirely. Embedding input strings follow the segment layout
``Label: ...; Synonyms: ...; Definition: ...;`` with absent segments dropped.
"""

from __future__ import annotations

import functools
import logging

from .cache import DEFAULT_MAX_WORKERS, ResponseCache
from .errors import ItemError
from .model import Concept, ContextBlock, Ontology, concept_context, iri_fragment
from .providers import Message, PromptFrame, Provider, SamplingParams, json_escape

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
    return [
        _system_turn(source_name, target_name),
        {"role": "user", "content": "\n".join(lines)},
    ]


def _system_turn(source_name: str, target_name: str) -> Message:
    return {"role": "system", "content": DEFINITION_SYSTEM_TEMPLATE.format(
        source_name=source_name, target_name=target_name)}


def _single_paragraph(text: str) -> str:
    """First paragraph of the completion, internal newlines collapsed."""
    paragraph = text.strip().split("\n\n", 1)[0]
    return " ".join(paragraph.split())


def generate_definition(
    provider: Provider, messages: list[Message], params: SamplingParams = SamplingParams()
) -> dict:
    """One provider call for the definition ``messages`` ask for, as the
    payload ``enrich_ontology`` caches: ``{"text": ...}``, the completion's
    first paragraph, single-spaced, the one form served, fresh or cached."""
    return {"text": _single_paragraph(provider.generate(messages, params))}


def _accept_definition(payload: dict) -> str:
    text = payload.get("text")
    if not isinstance(text, str) or not text or text != _single_paragraph(text):
        raise ItemError("not one non-empty paragraph of single-spaced words")
    return text


def enrich_ontology(
    ontology: Ontology,
    names: tuple[str, str],
    provider: Provider,
    cache: ResponseCache,
    params: SamplingParams = SamplingParams(),
    limit: int | None = None,
    max_workers: int = DEFAULT_MAX_WORKERS,
) -> int:
    """Fill ``definition`` for up to ``limit`` concepts (IRI order); returns
    the number processed. ``names`` are the display names the prompt gives
    this ontology and the other one. Concepts that already carry a definition
    are skipped. One whose generation fails, or yields nothing usable, keeps
    None with a warning; nothing is cached then, so a later run asks again.
    ``cache.serve`` fills concepts whose definition is cached on the calling thread
    and the others on up to ``max_workers`` threads; concepts with the same
    prompt share one provider call, and so one definition. The system turn
    depends only on the two names, so one ``PromptFrame`` keys every concept."""
    todo = [c for _, c in sorted(ontology.items()) if c.definition is None][:limit]
    frame = PromptFrame("define", TEMPLATE_VERSION, provider.chat_model_id,
                        [_system_turn(*names), {"role": "user"}], params)

    def jobs():
        for concept in todo:
            messages = build_definition_prompt(concept_context(concept, ontology), *names)
            yield (frame.digest(json_escape(messages[-1]["content"])),
                   functools.partial(generate_definition, provider, messages, params),
                   _accept_definition)

    def failed(index: int, error: ItemError) -> None:
        logger.warning("definition generation failed for %s: %s", todo[index].iri, error)

    results, served = cache.serve("define", jobs(), max_workers, failed)
    for concept, definition in zip(todo, results):
        concept.definition = definition
    logger.info(
        "defined %d %s concepts: %d served from cache, %d sent to the provider",
        len(todo), names[0], served, len(todo) - served,
    )
    return len(todo)


def truncate_words(text: str, max_words: int = DEFINITION_MAX_WORDS) -> str:
    words = text.split()
    if len(words) <= max_words:
        return text
    return " ".join(words[:max_words])


def build_embedding_text(concept: Concept) -> str:
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
    if concept.definition:
        segments.append("Definition: " + truncate_words(concept.definition))
    if not segments:
        logger.warning(
            "concept %s has no label, synonyms, or definition; embedding IRI fragment",
            concept.iri,
        )
        segments.append(f"Label: {iri_fragment(concept.iri)}")
    return "; ".join(segments) + ";"
