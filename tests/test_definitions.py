"""Definition prompts, generation with caching, and embedding text layout."""

import threading
from dataclasses import replace

import pytest

import ontomatch.definitions as definitions_module
from ontomatch.cache import ResponseCache
from ontomatch.definitions import (
    DEFINITION_MAX_WORDS,
    TEMPLATE_VERSION,
    _single_paragraph,
    build_definition_prompt,
    build_embedding_text,
    definition_prompt,
    enrich_ontology,
    generate_definition,
    truncate_words,
)
from ontomatch.errors import ItemError
from ontomatch.model import Concept, ContextBlock, Ontology, concept_context, read_concept_jsonl
from ontomatch.providers import MockProvider, PromptFrame, SamplingParams

from conftest import TOY_DIR, CountingProvider, append_raw_entry, golden_text
from oracles import reference_prompt_digest

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


def test_generate_definition_uses_mock_provider(cache):
    provider = MockProvider()
    prompt = definition_prompt(minimal_context(), "A", "B", provider)
    text = generate_definition(prompt, "http://x.org/c#C1", provider, cache)
    assert text == "A biomedical concept referring to heart."


def test_generate_definition_cache_hit_skips_provider(cache):
    provider = CountingProvider(MockProvider())
    prompt = definition_prompt(minimal_context(), "A", "B", provider)
    first = generate_definition(prompt, "http://x.org/c#C1", provider, cache)
    second = generate_definition(prompt, "http://x.org/c#C1", provider, cache)
    assert first == second
    assert provider.generate_calls == 1


@pytest.mark.parametrize("payload", [{}, {"text": 5}, {"text": None}, {"definition": "x"},
                                     {"text": ""}])
def test_generate_definition_recomputes_a_cached_entry_of_the_wrong_shape(
    cache, caplog, payload
):
    provider = CountingProvider(MockProvider())
    prompt = definition_prompt(minimal_context(), "A", "B", provider)
    cache.put("define", prompt.digest, payload)
    with caplog.at_level("WARNING"):
        text = generate_definition(prompt, "http://x.org/c#C1", provider, cache)
    assert text == "A biomedical concept referring to heart."
    assert provider.generate_calls == 1
    assert sum("recomputing cached definition" in m for m in caplog.messages) == 1
    assert cache.get("define", prompt.digest) == {"text": text}


class _FailingProvider:
    chat_model_id = "failing-chat"
    embed_model_id = "failing-embed"

    def __init__(self, error):
        self._error = error

    def generate(self, messages, params):
        if isinstance(self._error, str):  # a reply with nothing usable in it
            return self._error
        raise self._error

    def embed_batch(self, texts):
        raise AssertionError("not used")

    def classify_first_token(self, messages):
        raise AssertionError("not used")


@pytest.mark.parametrize("error", [
    ItemError("model m returned an empty completion"),
    ItemError("down"),
    pytest.param(" \n\n ", id="blank"),
])
def test_generate_definition_failure_returns_none_and_caches_nothing(cache, error, caplog):
    provider = _FailingProvider(error)
    prompt = definition_prompt(minimal_context(), "A", "B", provider)
    with caplog.at_level("WARNING"):
        text = generate_definition(prompt, "http://x.org/c#C1", provider, cache)
    assert text is None
    assert cache.get("define", prompt.digest) is None
    assert not ResponseCache(cache.root).stored("define")
    assert any(
        "definition generation failed for http://x.org/c#C1" in r.message
        for r in caplog.records
    )


def test_generate_definition_failure_keeps_a_cached_entry(cache):
    """An unusable entry from an older run stays as it was when its
    recomputation fails too, and the concept has no definition."""
    provider = _FailingProvider(ItemError("down"))
    prompt = definition_prompt(minimal_context(), "A", "B", provider)
    cache.put("define", prompt.digest, {"text": ""})
    assert generate_definition(prompt, "http://x.org/c#C1", provider, cache) is None
    assert ResponseCache(cache.root).get("define", prompt.digest) == {"text": ""}


def _ontology(n: int) -> Ontology:
    onto = Ontology(name="src")
    for i in range(n):
        iri = f"http://x.org/c#C{i:02d}"
        onto.concepts[iri] = Concept(iri=iri, label=f"Concept {i:02d}")
    return onto


def test_enrich_ontology_fills_definitions_in_iri_order(cache):
    onto = _ontology(3)
    count = enrich_ontology(onto, "tgt", MockProvider(), cache)
    assert count == 3
    for i in range(3):
        c = onto.concepts[f"http://x.org/c#C{i:02d}"]
        assert c.definition == f"A biomedical concept referring to concept {i:02d}."


def test_enrich_ontology_skips_already_defined(cache):
    onto = _ontology(3)
    onto.concepts["http://x.org/c#C01"].definition = "Existing."
    provider = CountingProvider(MockProvider())
    count = enrich_ontology(onto, "tgt", provider, cache)
    assert count == 2
    assert provider.generate_calls == 2
    assert onto.concepts["http://x.org/c#C01"].definition == "Existing."


def test_enrich_ontology_respects_limit(cache):
    onto = _ontology(5)
    count = enrich_ontology(onto, "tgt", MockProvider(), cache, limit=2)
    assert count == 2
    assert onto.concepts["http://x.org/c#C01"].definition is not None
    assert onto.concepts["http://x.org/c#C02"].definition is None


def test_enrich_ontology_empty_todo_returns_zero(cache):
    onto = _ontology(1)
    onto.concepts["http://x.org/c#C00"].definition = "Done."
    assert enrich_ontology(onto, "tgt", MockProvider(), cache) == 0


# -- cache routing: hits on the calling thread, misses in the pool -------------


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was made")


def _definitions(onto: Ontology) -> dict[str, str | None]:
    return {iri: c.definition for iri, c in onto.concepts.items()}


def test_enrich_ontology_fully_warm_makes_no_pool_and_no_calls(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    cold = _ontology(4)
    enrich_ontology(cold, "tgt", MockProvider(), cache)
    monkeypatch.setattr("ontomatch.cache.ThreadPoolExecutor", _no_pool)
    provider = CountingProvider(MockProvider())
    warm = _ontology(4)
    assert enrich_ontology(warm, "tgt", provider, cache) == 4
    assert provider.total_calls == 0
    assert _definitions(warm) == _definitions(cold)


def test_enrich_ontology_half_warm_calls_provider_only_for_misses(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    warmed = _ontology(6)
    for i in range(1, 6, 2):
        warmed.concepts[f"http://x.org/c#C{i:02d}"].definition = "Skipped."
    enrich_ontology(warmed, "tgt", MockProvider(), cache)  # caches C00, C02, C04
    provider = CountingProvider(MockProvider())
    out = _ontology(6)
    enrich_ontology(out, "tgt", provider, cache)
    assert provider.generate_calls == 3
    fresh = _ontology(6)
    enrich_ontology(fresh, "tgt", MockProvider(), ResponseCache(tmp_path / "fresh"))
    assert _definitions(out) == _definitions(fresh)


def test_enrich_ontology_limit_counts_hits_and_misses(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(5), "tgt", MockProvider(), cache, limit=2)
    provider = CountingProvider(MockProvider())
    onto = _ontology(5)
    assert enrich_ontology(onto, "tgt", provider, cache, limit=3) == 3
    assert provider.generate_calls == 1
    assert [c.definition is not None for c in onto.sorted_concepts()] == [
        True, True, True, False, False,
    ]


class _SamplingProvider(_FailingProvider):
    """A sampling chat model: every generate call gives a new definition."""

    def __init__(self):
        self.generate_calls = 0
        self._lock = threading.Lock()

    def generate(self, messages, params):
        with self._lock:
            self.generate_calls += 1
            return f"Definition number {self.generate_calls}."


def test_enrich_ontology_calls_the_provider_once_per_prompt(cache, caplog):
    onto = _ontology(2)
    for concept in onto.concepts.values():
        concept.label = "Heart"  # the same label gives the same prompt
    provider = _SamplingProvider()
    with caplog.at_level("INFO", logger="ontomatch.definitions"):
        assert enrich_ontology(onto, "tgt", provider, cache, max_workers=8) == 2
    assert provider.generate_calls == 1
    assert (
        f"defined 2 {onto.name} concepts: 1 served from cache, 1 sent to the provider"
        in caplog.messages
    )
    assert set(_definitions(onto).values()) == {"Definition number 1."}


def test_enrich_ontology_recomputes_corrupt_cached_definition(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(1), "tgt", MockProvider(), cache)
    [digest] = cache.stored("define")
    append_raw_entry(tmp_path / "cache", "define", digest, b"{truncated")
    cache = ResponseCache(tmp_path / "cache")
    provider = CountingProvider(MockProvider())
    onto = _ontology(1)
    with caplog.at_level("WARNING"):
        enrich_ontology(onto, "tgt", provider, cache)
    assert onto.concepts["http://x.org/c#C00"].definition == (
        "A biomedical concept referring to concept 00."
    )
    assert provider.generate_calls == 1
    assert sum("discarding corrupt cache entry" in m for m in caplog.messages) == 1
    assert ResponseCache(tmp_path / "cache").get("define", digest)["text"] == onto.concepts["http://x.org/c#C00"].definition


def test_enrich_ontology_logs_hits_and_misses(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    enrich_ontology(_ontology(3), "tgt", MockProvider(), cache, limit=1)
    with caplog.at_level("INFO", logger="ontomatch.definitions"):
        enrich_ontology(_ontology(3), "tgt", MockProvider(), cache)
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert lines == ["defined 3 src concepts: 1 served from cache, 2 sent to the provider"]


@pytest.mark.parametrize("entry", [b'{"text": ""}', b"{truncated"], ids=["no-text", "corrupt"])
def test_enrich_ontology_counts_a_failed_recomputation_as_sent_to_the_provider(
    tmp_path, caplog, entry
):
    """A cached entry that cannot be served is recomputed; when the provider
    fails, the concept was still sent to it, not served from the cache."""
    provider = _FailingProvider(ItemError("down"))
    onto = _ontology(1)
    [concept] = onto.concepts.values()
    prompt = definition_prompt(concept_context(concept, onto), onto.name, "tgt", provider)
    append_raw_entry(tmp_path / "cache", "define", prompt.digest, entry)
    with caplog.at_level("INFO", logger="ontomatch.definitions"):
        assert enrich_ontology(onto, "tgt", provider, ResponseCache(tmp_path / "cache")) == 1
    assert concept.definition is None
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert lines == ["defined 1 src concepts: 0 served from cache, 1 sent to the provider"]


# Text that JSON escapes or keeps as it is: quotes, backslashes, newlines, tabs,
# control and non-ASCII characters, and a lone surrogate-free emoji.
AWKWARD = ('say "hi" \\ back\\slash', "line one\nline two\r\n\ttab", "café – Ω ✓ 🫀",
           "ctrl \x01\x1f end", "")


def _awkward_ontology(name: str) -> Ontology:
    onto = Ontology(name=name)
    for i, text in enumerate(AWKWARD):
        iri = f"http://x.org/c#\u00e9{i}"
        onto.concepts[iri] = Concept(
            iri=iri, label=text or None, synonyms=[t for t in AWKWARD if t and t != text][:2],
            parents=[f"http://x.org/c#\u00e9{(i + 1) % len(AWKWARD)}", 'http://x.org/"q"\\'],
            equiv_descriptions=[f"{text}."] if text else [])
    return onto


@pytest.mark.parametrize("params", [SamplingParams(), SamplingParams(0.0, 1.0, 7)])
def test_enrich_ontology_keys_each_concept_as_the_reference_digest(tmp_path, monkeypatch,
                                                                   params):
    """One ``PromptFrame`` per call keys every concept exactly as the whole
    cache-key JSON, encoded independently, would."""
    frames, prompts = [], {}

    class SpyFrame(PromptFrame):
        def __init__(self, *args, **kwargs):
            frames.append(self)
            super().__init__(*args, **kwargs)

    def spy_generate(prompt, iri, *args, **kwargs):
        prompts[iri] = prompt
        return generate_definition(prompt, iri, *args, **kwargs)

    monkeypatch.setattr(definitions_module, "PromptFrame", SpyFrame)
    monkeypatch.setattr(definitions_module, "generate_definition", spy_generate)
    provider, cache = MockProvider(), ResponseCache(tmp_path / "cache")
    names = ('src "A" \\ \n', "tgt – Ω")
    for call, (name, other) in enumerate((names, names[::-1]), start=1):
        onto = _awkward_ontology(name)
        expected = {
            c.iri: build_definition_prompt(concept_context(c, onto), name, other)
            for c in onto.sorted_concepts()
        }
        prompts.clear()
        assert enrich_ontology(onto, other, provider, cache, params=params) == len(AWKWARD)
        assert len(frames) == call
        assert {iri: p.messages for iri, p in prompts.items()} == expected
        for prompt in prompts.values():
            assert prompt.digest == reference_prompt_digest(
                "define", TEMPLATE_VERSION, provider.chat_model_id, prompt.messages, params)
    assert len(set(cache.stored("define"))) == 2 * len(AWKWARD)


def test_unlabeled_toy_concept_warns_once_per_run_cold_and_warm(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    for run in ("cold", "warm"):
        with open(TOY_DIR / "source.jsonl", encoding="utf-8") as fp:
            onto = read_concept_jsonl(fp, name="toy-src")
        caplog.clear()
        with caplog.at_level("WARNING"):
            enrich_ontology(onto, "toy-tgt", MockProvider(), cache)
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
    with_def = build_embedding_text(c)
    without = build_embedding_text(replace(c, definition=None))
    assert with_def == without[:-1] + "; Definition: " + SNOMED_DEFINITION + ";"
    assert without == "Label: " + SNOMED_LABEL + "; Synonyms: " + SNOMED_SYNONYM + ";"


def test_template_version_is_part_of_cache_identity(tmp_path):
    # bumping the template version must miss the old cache entries
    from ontomatch.providers import prompt_digest

    messages = build_definition_prompt(minimal_context(), "A", "B")
    d1 = prompt_digest("define", TEMPLATE_VERSION, "m", messages)
    d2 = prompt_digest("define", TEMPLATE_VERSION + "x", "m", messages)
    assert d1 != d2
