"""Definition prompts, generation with caching, and embedding text layout."""

import pytest

from ontomatch.cache import ResponseCache
from ontomatch.definitions import (
    DEFINITION_MAX_WORDS,
    TEMPLATE_VERSION,
    _single_paragraph,
    build_definition_prompt,
    build_embedding_text,
    enrich_ontology,
    generate_definition,
    truncate_words,
)
from ontomatch.errors import EmptyCompletionError, ProviderError
from ontomatch.model import Concept, ContextBlock, Ontology, read_concept_jsonl
from ontomatch.providers import MockProvider, SamplingParams

from conftest import TOY_DIR, CountingProvider, golden_text

SNOMED_LABEL = "Product containing only betamethasone and calcipotriol (medicinal product)"
SNOMED_SYNONYM = "Betamethasone and calcipotriol only product"
SNOMED_PARENT = "Product containing betamethasone and calcipotriol (medicinal product)"
SNOMED_DEFINITION = (
    "A medicinal product specifically formulated to contain solely betamethasone "
    "and calcipotriol as its active ingredients, designed for the treatment or "
    "management of specific dermatological conditions."
)


def snomed_context() -> ContextBlock:
    return ContextBlock(
        iri="http://snomed.info/id/776210003",
        label=SNOMED_LABEL,
        synonyms=[SNOMED_SYNONYM],
        parents=[SNOMED_PARENT],
        descriptions=[golden_text("verbalization.txt")],
    )


def minimal_context(**overrides) -> ContextBlock:
    values = dict(
        iri="http://x.org/c#C1", label="Heart", synonyms=[], parents=[], descriptions=[]
    )
    values.update(overrides)
    return ContextBlock(**values)


def test_definition_system_prompt_matches_golden():
    messages = build_definition_prompt(snomed_context(), "SNOMED", "NCIT")
    assert messages[0]["role"] == "system"
    assert messages[0]["content"] == golden_text("definition_system.txt")


def test_definition_user_prompt_matches_golden():
    messages = build_definition_prompt(snomed_context(), "SNOMED", "NCIT")
    assert messages[1]["role"] == "user"
    assert messages[1]["content"] == golden_text("definition_user.txt")


def test_definition_prompt_is_two_messages():
    assert len(build_definition_prompt(snomed_context(), "SNOMED", "NCIT")) == 2


def test_empty_fields_omit_their_lines():
    messages = build_definition_prompt(minimal_context(), "A", "B")
    assert messages[1]["content"] == "Concept: Heart"


def test_synonyms_line_present_only_when_synonyms_exist():
    ctx = minimal_context(synonyms=["Cor", "Pump"])
    user = build_definition_prompt(ctx, "A", "B")[1]["content"]
    assert user == "Concept: Heart\nSynonyms: Cor, Pump"


def test_parents_line_joins_display_names():
    ctx = minimal_context(parents=["Organ", "Muscular structure"])
    user = build_definition_prompt(ctx, "A", "B")[1]["content"]
    assert user == "Concept: Heart\nParents: Organ, Muscular structure"


def test_description_line_strips_trailing_periods_and_joins():
    ctx = minimal_context(descriptions=["Heart that pumps blood.", "Organ in thorax"])
    user = build_definition_prompt(ctx, "A", "B")[1]["content"]
    assert user == (
        "Concept: Heart\nDescription: Heart that pumps blood; Organ in thorax"
    )


def test_unlabeled_concept_uses_iri_fragment_and_warns(caplog):
    ctx = minimal_context(label=None)
    with caplog.at_level("WARNING"):
        user = build_definition_prompt(ctx, "A", "B")[1]["content"]
    assert user == "Concept: C1"
    assert any("no label" in r.message for r in caplog.records)


def test_vocabulary_names_are_interpolated():
    system = build_definition_prompt(minimal_context(), "FMA", "DOID")[0]["content"]
    assert "from the FMA ontology" in system
    assert "in the DOID ontology" in system


def test_single_paragraph_collapses_and_truncates():
    assert _single_paragraph("First line\nsecond line\n\nSecond paragraph") == (
        "First line second line"
    )
    assert _single_paragraph("  padded  text  ") == "padded text"
    assert _single_paragraph("") == ""
    assert _single_paragraph(" \n\n ") == ""


def test_generate_definition_uses_mock_provider():
    provider = MockProvider()
    text = generate_definition(minimal_context(), "A", "B", provider)
    assert text == "A biomedical concept referring to heart."


def test_generate_definition_cache_hit_skips_provider(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = CountingProvider(MockProvider())
    ctx = minimal_context()
    first = generate_definition(ctx, "A", "B", provider, cache=cache)
    second = generate_definition(ctx, "A", "B", provider, cache=cache)
    assert first == second
    assert provider.generate_calls == 1


def test_generate_definition_without_cache_calls_every_time():
    provider = CountingProvider(MockProvider())
    generate_definition(minimal_context(), "A", "B", provider)
    generate_definition(minimal_context(), "A", "B", provider)
    assert provider.generate_calls == 2


class _FailingProvider:
    chat_model_id = "failing-chat"
    embed_model_id = "failing-embed"

    def __init__(self, error):
        self._error = error

    def generate(self, messages, params):
        raise self._error

    def embed_batch(self, texts):
        raise AssertionError("not used")

    def classify_first_token(self, messages):
        raise AssertionError("not used")


@pytest.mark.parametrize("error", [
    EmptyCompletionError("empty"),
    ProviderError("down"),
])
def test_generate_definition_degrades_to_empty_string(tmp_path, error, caplog):
    cache = ResponseCache(tmp_path / "cache")
    with caplog.at_level("WARNING"):
        text = generate_definition(
            minimal_context(), "A", "B", _FailingProvider(error), cache=cache
        )
    assert text == ""
    assert any("definition generation failed" in r.message for r in caplog.records)


def _ontology(n: int) -> Ontology:
    onto = Ontology(name="src")
    for i in range(n):
        iri = f"http://x.org/c#C{i:02d}"
        onto.concepts[iri] = Concept(iri=iri, label=f"Concept {i:02d}")
    return onto


def test_enrich_ontology_fills_definitions_in_iri_order():
    onto = _ontology(3)
    count = enrich_ontology(onto, "tgt", MockProvider())
    assert count == 3
    for i in range(3):
        c = onto.concepts[f"http://x.org/c#C{i:02d}"]
        assert c.definition == f"A biomedical concept referring to concept {i:02d}."


def test_enrich_ontology_skips_already_defined():
    onto = _ontology(3)
    onto.concepts["http://x.org/c#C01"].definition = "Existing."
    provider = CountingProvider(MockProvider())
    count = enrich_ontology(onto, "tgt", provider)
    assert count == 2
    assert provider.generate_calls == 2
    assert onto.concepts["http://x.org/c#C01"].definition == "Existing."


def test_enrich_ontology_respects_limit():
    onto = _ontology(5)
    count = enrich_ontology(onto, "tgt", MockProvider(), limit=2)
    assert count == 2
    assert onto.concepts["http://x.org/c#C01"].definition is not None
    assert onto.concepts["http://x.org/c#C02"].definition is None


def test_enrich_ontology_empty_todo_returns_zero():
    onto = _ontology(1)
    onto.concepts["http://x.org/c#C00"].definition = "Done."
    assert enrich_ontology(onto, "tgt", MockProvider()) == 0


# -- cache routing: hits on the calling thread, misses in the pool -------------


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was made")


def _definitions(onto: Ontology) -> dict[str, str | None]:
    return {iri: c.definition for iri, c in onto.concepts.items()}


def test_enrich_ontology_fully_warm_makes_no_pool_and_no_calls(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    cold = _ontology(4)
    enrich_ontology(cold, "tgt", MockProvider(), cache=cache)
    monkeypatch.setattr("ontomatch.definitions.ThreadPoolExecutor", _no_pool)
    provider = CountingProvider(MockProvider())
    warm = _ontology(4)
    assert enrich_ontology(warm, "tgt", provider, cache=cache) == 4
    assert provider.total_calls == 0
    assert _definitions(warm) == _definitions(cold)


def test_enrich_ontology_half_warm_calls_provider_only_for_misses(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    warmed = _ontology(6)
    for i in range(1, 6, 2):
        warmed.concepts[f"http://x.org/c#C{i:02d}"].definition = "Skipped."
    enrich_ontology(warmed, "tgt", MockProvider(), cache=cache)  # caches C00, C02, C04
    provider = CountingProvider(MockProvider())
    out = _ontology(6)
    enrich_ontology(out, "tgt", provider, cache=cache)
    assert provider.generate_calls == 3
    fresh = _ontology(6)
    enrich_ontology(fresh, "tgt", MockProvider(), cache=ResponseCache(tmp_path / "fresh"))
    assert _definitions(out) == _definitions(fresh)


def test_enrich_ontology_limit_counts_hits_and_misses(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(5), "tgt", MockProvider(), cache=cache, limit=2)
    provider = CountingProvider(MockProvider())
    onto = _ontology(5)
    assert enrich_ontology(onto, "tgt", provider, cache=cache, limit=3) == 3
    assert provider.generate_calls == 1
    assert [c.definition is not None for c in onto.sorted_concepts()] == [
        True, True, True, False, False,
    ]


def test_enrich_ontology_recomputes_corrupt_cached_definition(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(1), "tgt", MockProvider(), cache=cache)
    [entry] = (tmp_path / "cache" / "define").glob("*.json")
    entry.write_text("{truncated", encoding="utf-8")
    provider = CountingProvider(MockProvider())
    onto = _ontology(1)
    with caplog.at_level("WARNING"):
        enrich_ontology(onto, "tgt", provider, cache=cache)
    assert onto.concepts["http://x.org/c#C00"].definition == (
        "A biomedical concept referring to concept 00."
    )
    assert provider.generate_calls == 1
    assert any("corrupt" in r.message for r in caplog.records)
    assert cache.get("define", entry.stem)["text"] == onto.concepts["http://x.org/c#C00"].definition


def test_enrich_ontology_logs_hits_and_misses(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(3), "tgt", MockProvider(), cache=cache, limit=1)
    with caplog.at_level("INFO", logger="ontomatch.definitions"):
        enrich_ontology(_ontology(3), "tgt", MockProvider(), cache=cache)
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert lines == ["defined 3 src concepts: 1 served from cache, 2 sent to the provider"]


def test_unlabeled_toy_concept_warns_once_per_run_cold_and_warm(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    for run in ("cold", "warm"):
        with open(TOY_DIR / "source.jsonl", encoding="utf-8") as fp:
            onto = read_concept_jsonl(fp, name="toy-src")
        caplog.clear()
        with caplog.at_level("WARNING"):
            enrich_ontology(onto, "toy-tgt", MockProvider(), cache=cache)
        warnings = [
            r.getMessage() for r in caplog.records if "no label" in r.getMessage()
        ]
        assert warnings == [
            "concept http://example.org/src#S29 has no label; using IRI fragment"
        ], run


def test_truncate_words():
    assert truncate_words("one two three", 5) == "one two three"
    assert truncate_words("one two three", 2) == "one two"
    long = " ".join(f"w{i}" for i in range(200))
    assert truncate_words(long) == " ".join(f"w{i}" for i in range(DEFINITION_MAX_WORDS))


def snomed_concept() -> Concept:
    return Concept(
        iri="http://snomed.info/id/776210003",
        label=SNOMED_LABEL,
        synonyms=[SNOMED_SYNONYM],
        parents=["http://snomed.info/id/1145419005"],
        definition=SNOMED_DEFINITION,
    )


def test_embedding_text_matches_golden():
    assert build_embedding_text(snomed_concept()) == golden_text("embedding_text.txt")


def test_embedding_text_omits_absent_segments():
    c = Concept(iri="http://x.org/c#C1", label="Heart")
    assert build_embedding_text(c) == "Label: Heart;"
    c.synonyms = ["Cor"]
    assert build_embedding_text(c) == "Label: Heart; Synonyms: Cor;"
    c.definition = "Pumps blood."
    assert build_embedding_text(c) == (
        "Label: Heart; Synonyms: Cor; Definition: Pumps blood.;"
    )


def test_embedding_text_synonyms_only():
    c = Concept(iri="http://x.org/c#C1", synonyms=["Cor", "Pump"])
    assert build_embedding_text(c) == "Synonyms: Cor, Pump;"


def test_embedding_text_falls_back_to_iri_fragment(caplog):
    c = Concept(iri="http://x.org/onto/C123")
    with caplog.at_level("WARNING"):
        assert build_embedding_text(c) == "Label: C123;"
    assert any("embedding IRI fragment" in r.message for r in caplog.records)


def test_embedding_text_empty_definition_is_omitted():
    c = Concept(iri="http://x.org/c#C1", label="Heart", definition="")
    assert build_embedding_text(c) == "Label: Heart;"


def test_embedding_text_truncates_long_definitions():
    words = [f"w{i}" for i in range(150)]
    c = Concept(iri="http://x.org/c#C1", label="Heart", definition=" ".join(words))
    text = build_embedding_text(c)
    assert text.endswith("w119;")
    assert "w120" not in text


def test_embedding_text_without_definition_strips_exactly_that_segment():
    c = snomed_concept()
    with_def = build_embedding_text(c, include_definition=True)
    without = build_embedding_text(c, include_definition=False)
    assert with_def == without[:-1] + "; Definition: " + SNOMED_DEFINITION + ";"
    assert without == "Label: " + SNOMED_LABEL + "; Synonyms: " + SNOMED_SYNONYM + ";"


def test_template_version_is_part_of_cache_identity(tmp_path):
    # bumping the template version must miss the old cache entries
    from ontomatch.providers import prompt_digest

    messages = build_definition_prompt(minimal_context(), "A", "B")
    d1 = prompt_digest("define", TEMPLATE_VERSION, "m", messages)
    d2 = prompt_digest("define", TEMPLATE_VERSION + "x", "m", messages)
    assert d1 != d2
