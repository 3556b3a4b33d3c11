"""Equivalence judging: prompt layout, YES-probability math, judgement IO."""

import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

import ontomatch.cache as cache_module
import ontomatch.judge as judge_module
from ontomatch.cache import BLOCK_ENTRIES, QUEUE_PER_WORKER, ResponseCache
from ontomatch.errors import ConfigError, ItemError, OntologyParseError
from ontomatch.fusion import filter_and_fuse
from ontomatch.judge import (
    DEFAULT_FEW_SHOT,
    JUDGE_SYSTEM,
    JUDGE_TEMPLATE_VERSION,
    FewShotExample,
    build_judgement_prompt,
    judge_candidates,
    p_yes,
    read_judgements,
    write_judgements,
)
from ontomatch.model import (
    Concept,
    ContextBlock,
    Judgement,
    Ontology,
    concept_context,
    read_concept_jsonl,
)
from ontomatch.pipeline import PipelineConfig
from ontomatch.providers import MockProvider

from conftest import TOY_DIR, CountingProvider, RecordingCache, append_raw_entry, golden_text
from oracles import (
    NO_FORMS, YES_FORMS, Unscorable, reference_p_yes, reference_prompt_digest, two_pass_p_yes,
)

NERVE_A = ContextBlock(
    iri="http://snomed.info/id/A",
    label="lateral rectus nerve",
    synonyms=["abducens nerve", "sixth cranial nerve"],
    parents=["peripheral nerve of head and neck (body structure)"],
    descriptions=[],
    definition=(
        "the lateral rectus nerve, also known as the abducens nerve, is the "
        "sixth cranial nerve, which innervates the lateral rectus muscle of the eye."
    ),
)

NERVE_B = ContextBlock(
    iri="http://purl.org/sig/ont/fma/fma50867",
    label="abducent nerve [vi]",
    synonyms=["nervus abducens"],
    parents=["right posterior crico-arytenoid ligament"],
    descriptions=[],
    definition=(
        "the abducent nerve [vi] is a branch of the cranial nerve vi that "
        "innervates the lateral rectus muscle of the eye."
    ),
)


def simple_ctx(iri: str, name: str, definition: str | None = None) -> ContextBlock:
    return ContextBlock(
        iri=iri, label=name, synonyms=[], parents=[], descriptions=[],
        definition=definition,
    )


# -- prompt construction -------------------------------------------------------


def test_judge_system_prompt_matches_golden():
    assert JUDGE_SYSTEM == golden_text("judge_system.txt")
    messages = build_judgement_prompt(NERVE_A, NERVE_B)
    assert messages[0] == {"role": "system", "content": golden_text("judge_system.txt")}


def test_judge_user_prompt_matches_golden():
    messages = build_judgement_prompt(NERVE_A, NERVE_B)
    assert messages[-1] == {"role": "user", "content": golden_text("judge_user.txt")}


def test_prompt_without_shots_is_two_messages():
    assert len(build_judgement_prompt(NERVE_A, NERVE_B)) == 2


def test_few_shot_prompt_arity_and_roles():
    messages = build_judgement_prompt(NERVE_A, NERVE_B, shots=DEFAULT_FEW_SHOT)
    assert len(messages) == 2 * len(DEFAULT_FEW_SHOT) + 2
    assert [m["role"] for m in messages] == [
        "system", "user", "assistant", "user", "assistant", "user",
    ]
    assert messages[2]["content"] == "YES"
    assert messages[4]["content"] == "NO"
    assert messages[-1]["content"] == golden_text("judge_user.txt")


def test_few_shot_example_validates_answer():
    with pytest.raises(ValueError):
        FewShotExample(a=NERVE_A, b=NERVE_B, answer="MAYBE")


@pytest.mark.parametrize("entry, message", [
    ({"b": {"label": "x"}, "answer": "YES"}, "an object with a, b and answer, got {'b'"),
    ({"a": {}, "b": {}}, "an object with a, b and answer, got {'a': {}, 'b': {}}"),
    ("x", "an object with a, b and answer, got 'x'"),
    ({"a": {}, "b": ["y"], "answer": "NO"}, "concept must be an object, got ['y']"),
    ({"a": {"synonyms": "heart"}, "b": {}, "answer": "NO"},
     "concept synonyms must be list[str], got 'heart'"),
    ({"a": {}, "b": {"parents": ["x", 1]}, "answer": "NO"},
     "concept parents must be list[str], got ['x', 1]"),
    ({"a": {"descriptions": None}, "b": {}, "answer": "NO"},
     "concept descriptions must be list[str], got None"),
    ({"a": {"label": 7}, "b": {}, "answer": "NO"}, "concept label must be str | None, got 7"),
    ({"a": {}, "b": {"definition": ["d"]}, "answer": "NO"},
     "concept definition must be str | None, got ['d']"),
    ({"a": {"iri": None}, "b": {}, "answer": "NO"}, "concept iri must be str, got None"),
    ({"a": {"synonym": ["heart"]}, "b": {}, "answer": "NO"},
     "unknown few-shot concept keys: ['synonym']"),
])
def test_few_shot_example_from_dict_rejects_a_misshapen_entry(entry, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        FewShotExample.from_dict(entry)


def test_concept_block_omits_empty_lines():
    a = simple_ctx("http://x.org/c#A", "heart")
    b = simple_ctx("http://x.org/c#B", "kidney", definition="An organ.")
    user = build_judgement_prompt(a, b)[-1]["content"]
    assert user == (
        "Concept A\nName: heart\n\nConcept B\nName: kidney\nDefinition: An organ."
    )


def test_unlabeled_concept_uses_iri_fragment():
    a = ContextBlock(iri="http://x.org/onto/C9", label=None, synonyms=[],
                     parents=[], descriptions=[])
    user = build_judgement_prompt(a, simple_ctx("http://x.org/c#B", "b"))[-1]["content"]
    assert user.startswith("Concept A\nName: C9\n")


def test_no_definitions_config_strips_definition_lines_everywhere():
    a, b = (replace(ctx, definition=None) for ctx in (NERVE_A, NERVE_B))
    shots = PipelineConfig(few_shot=2, use_definitions=False).shots
    assert len(shots) == 2
    messages = build_judgement_prompt(a, b, shots=shots)
    for m in messages:
        assert "Definition:" not in m["content"]
    with_def = build_judgement_prompt(NERVE_A, NERVE_B)[-1]["content"]
    without = build_judgement_prompt(a, b)[-1]["content"]
    expected = "\n".join(
        line for line in with_def.splitlines() if not line.startswith("Definition: ")
    )
    assert without == expected


# -- p_yes ---------------------------------------------------------------------


def test_p_yes_symmetric_distribution_is_half():
    assert p_yes({"YES": -1.0, "NO": -1.0}) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("shift", [0.0, 5.0, -3.7, 123.456])
def test_p_yes_shift_invariance(shift):
    value = p_yes({"YES": 2.0 - shift, "NO": -shift})
    assert value == pytest.approx(0.8807970779778824, abs=1e-9)


def test_p_yes_mock_provider_values():
    assert p_yes({"YES": -0.001, "NO": -7.0}) == pytest.approx(
        0.999088038129987, abs=1e-12
    )
    assert p_yes({"YES": -7.0, "NO": -0.001}) == pytest.approx(
        0.0009119618700130116, abs=1e-12
    )


def test_p_yes_missing_side_takes_floor():
    assert p_yes({"NO": -0.001}) == pytest.approx(2.0632158027245598e-09, rel=1e-9)
    assert p_yes({"YES": -0.001}) == pytest.approx(1.0 - 2.0632158027245598e-09, abs=1e-12)


def test_p_yes_aggregates_case_variants():
    # two equal YES spellings double the YES mass
    assert p_yes({"YES": -2.0, "Yes": -2.0, "NO": -2.0}) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )
    dist = {v: -1.0 for v in ("YES", "Yes", "yes", " YES", " Yes", " yes",
                              "NO", "No", "no", " NO", " No", " no")}
    assert p_yes(dist) == pytest.approx(0.5, abs=1e-12)


def test_p_yes_complement_sums_to_one():
    rng = random.Random(4242)
    for _ in range(100):
        yes = rng.uniform(-30, 0)
        no = rng.uniform(-30, 0)
        forward = p_yes({"YES": yes, "NO": no})
        backward = p_yes({"YES": no, "NO": yes})
        assert forward + backward == pytest.approx(1.0, abs=1e-12)


def test_p_yes_matches_reference_on_random_distributions():
    """A quarter of the entries have probability 0 (log-probability -inf)."""
    rng = random.Random(31337)
    tokens = ("YES", "Yes", "yes", " YES", "NO", "No", " no", ".", "I", "the")
    for _ in range(200):
        entries = {
            t: -math.inf if rng.random() < 0.25 else rng.uniform(-25, 0)
            for t in rng.sample(tokens, rng.randint(2, len(tokens)))
        }
        if not any(k.strip().casefold() in ("yes", "no") for k in entries):
            continue
        try:
            expected = reference_p_yes(entries)
        except ZeroDivisionError:  # YES and NO both have mass 0
            with pytest.raises(ItemError):
                p_yes(entries)
            continue
        assert p_yes(entries) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("mode", ["pair", "full"])
def test_p_yes_equals_the_two_pass_oracle_bit_for_bit(mode):
    """Every count of YES and NO variants from 0 to 6, drawn from a pool
    with -inf, +inf, signed zeros and ints, among 0 to 3 other tokens, and
    distributions whose masses are all zero: the same float, or an
    ItemError with the oracle's message."""
    rng = random.Random(2024)
    values = (-math.inf, math.inf, 0.0, -0.0, -3, -0.001, -7.0, -20.0, -25.5)
    others = (".", "I", "the", "maybe")

    def draw():
        return rng.choice(values) if rng.random() < 0.4 else rng.uniform(-25.0, 0.0)

    cases = [
        {"YES": -math.inf, "NO": -math.inf},
        {" yes": -math.inf, "No": -math.inf, ".": -math.inf},
        {"Yes": -math.inf, ".": -1.0},
    ]
    for yes_count in range(7):
        for no_count in range(7):
            for _ in range(16):
                tokens = [*rng.sample(YES_FORMS, yes_count), *rng.sample(NO_FORMS, no_count),
                          *rng.sample(others, rng.randint(0, 3))]
                rng.shuffle(tokens)
                cases.append({token: draw() for token in tokens})
    raised = 0
    for entries in cases:
        try:
            expected = two_pass_p_yes(entries, mode)
        except Unscorable as e:
            with pytest.raises(ItemError) as exc:
                p_yes(entries, mode)
            assert str(exc.value) == str(e)
            raised += 1
            continue
        assert p_yes(entries, mode).hex() == expected.hex(), entries
    assert 16 < raised < 30  # beyond the 16 draws with no variant at all


def test_p_yes_full_mode_divides_by_total_mass():
    dist = {"YES": math.log(0.5), "NO": math.log(0.3), ".": math.log(0.2)}
    assert p_yes(dist, mode="full") == pytest.approx(0.5, abs=1e-12)
    assert p_yes(dist, mode="pair") == pytest.approx(0.625, abs=1e-12)


def test_p_yes_full_mode_without_yes_is_zero():
    assert p_yes({"NO": -0.1, ".": -3.0}, mode="full") == 0.0


def test_p_yes_ignores_non_variant_tokens_in_pair_mode():
    with_noise = p_yes({"YES": -1.0, "NO": -2.0, ".": -0.5, "It": -0.1})
    assert with_noise == p_yes({"YES": -1.0, "NO": -2.0})


def test_p_yes_rejects_unparseable_distributions():
    with pytest.raises(ItemError):
        p_yes({".": -1.0, "maybe": -2.0})
    with pytest.raises(ItemError):
        p_yes({})
    for mode in ("pair", "full"):
        with pytest.raises(ItemError):
            p_yes({"YES": -math.inf, "NO": -math.inf}, mode=mode)


def test_p_yes_rejects_unknown_mode():
    with pytest.raises(ValueError):
        p_yes({"YES": -1.0}, mode="other")


# -- judge_pair / judge_candidates ---------------------------------------------


def _judge(source: str, target: str, cos: float, provider, cache) -> Judgement:
    """``judge_candidates`` of one pair: ``http://x.org/c#A``, labelled
    ``source``, against ``http://y.org/c#B``, labelled ``target``."""
    a = Concept(iri="http://x.org/c#A", label=source)
    b = Concept(iri="http://y.org/c#B", label=target)
    [judgement] = judge_candidates({a.iri: [(b.iri, cos)]}, {a.iri: a}, {b.iri: b},
                                   provider, cache)
    return judgement


def test_judge_pair_positive_decision_with_default_thresholds(cache):
    j = _judge("heart", "heart", 0.95, MockProvider(), cache)
    assert j.source == "http://x.org/c#A"
    assert j.target == "http://y.org/c#B"
    assert j.cosine == 0.95
    assert j.p_yes == pytest.approx(0.999088038129987, abs=1e-12)
    assert j.p_yes >= 0.99  # the default lambda_prob


def test_judge_pair_negative_decision(cache):
    j = _judge("left kidney", "right kidney", 0.8, MockProvider(), cache)
    assert j.p_yes < 0.01


def test_judge_pair_cache_hit_skips_provider(cache):
    provider = CountingProvider(MockProvider())
    first = _judge("heart", "heart", 0.95, provider, cache)
    second = _judge("heart", "heart", 0.95, provider, cache)
    assert provider.classify_calls == 1
    assert first == second


class _FirstTokenProvider:
    """A chat model whose first-token distribution is fixed."""

    chat_model_id = MockProvider().chat_model_id
    embed_model_id = MockProvider().embed_model_id

    def __init__(self, entries):
        self.entries = entries

    def classify_first_token(self, messages):
        return dict(self.entries)


def test_judge_pair_never_caches_an_unparseable_judgement(cache):
    """Neither YES nor NO, or both with probability 0."""
    for entries in ({"MAYBE": -0.1}, {"YES": -math.inf, "NO": -math.inf}):
        with pytest.raises(ItemError):
            _judge("heart", "heart", 0.95, _FirstTokenProvider(entries), cache)
        assert not cache.stored("judge")
    j = _judge("heart", "heart", 0.95, MockProvider(), cache)
    assert j.p_yes >= 0.99
    assert len(cache.stored("judge")) == 1


def test_judge_pair_serves_an_entry_with_extra_keys_as_it_is(cache):
    """Entries once also held the digest, model id and a timestamp."""
    _judge("heart", "heart", 0.95, MockProvider(), cache)
    [digest] = cache.stored("judge")
    old = {"digest": digest, "created_at": 1.0, "model": "m",
           "entries": {"YES": -0.5, "NO": -2.0}}
    cache.put("judge", digest, old)
    provider = CountingProvider(MockProvider())
    j = _judge("heart", "heart", 0.95, provider, cache)
    assert provider.classify_calls == 0
    assert j.p_yes == p_yes({"YES": -0.5, "NO": -2.0})
    assert cache.get("judge", digest) == old


@pytest.mark.parametrize("payload", [
    {},
    {"text": "hi"},
    {"entries": ["YES"]},
    {"entries": {"YES": "x"}},
    {"entries": {"YES": True, "NO": False}},
    {"entries": {"YES": None}},
])
def test_judge_pair_recomputes_a_cached_entry_of_the_wrong_shape(cache, caplog, payload):
    _judge("heart", "heart", 0.95, MockProvider(), cache)
    [digest] = cache.stored("judge")
    cache.put("judge", digest, payload)
    provider = CountingProvider(MockProvider())
    with caplog.at_level("WARNING"):
        j = _judge("heart", "heart", 0.95, provider, cache)
    assert provider.classify_calls == 1
    assert j.p_yes >= 0.99
    assert sum("recomputing unusable cache entry" in m for m in caplog.messages) == 1
    assert cache.get("judge", digest) == {"entries": {"YES": -0.001, "NO": -7.0}}


def _ontologies():
    src = Ontology()
    tgt = Ontology()
    for iri, label in [("http://s#S1", "heart"), ("http://s#S2", "lungs")]:
        src[iri] = Concept(iri=iri, label=label)
    for iri, label in [("http://t#T1", "heart"), ("http://t#T2", "kidney")]:
        tgt[iri] = Concept(iri=iri, label=label)
    return src, tgt


def test_judge_candidates_sorted_and_decided(cache):
    src, tgt = _ontologies()
    candidates = {
        "http://s#S2": [("http://t#T1", 0.4)],
        "http://s#S1": [("http://t#T2", 0.5), ("http://t#T1", 0.9)],
    }
    out = judge_candidates(candidates, src, tgt, MockProvider(), cache)
    assert [(j.source, j.target) for j in out] == [
        ("http://s#S1", "http://t#T1"),
        ("http://s#S1", "http://t#T2"),
        ("http://s#S2", "http://t#T1"),
    ]
    by_pair = {(j.source, j.target): j.p_yes for j in out}
    assert by_pair[("http://s#S1", "http://t#T1")] >= 0.99
    assert by_pair[("http://s#S1", "http://t#T2")] < 0.99


def test_judge_candidates_limit_bounds_pairs(cache):
    src, tgt = _ontologies()
    candidates = {
        "http://s#S1": [("http://t#T2", 0.5), ("http://t#T1", 0.9)],
        "http://s#S2": [("http://t#T1", 0.4)],
    }
    provider = CountingProvider(MockProvider())
    out = judge_candidates(candidates, src, tgt, provider, cache, limit=2)
    assert len(out) == 2
    assert provider.classify_calls == 2
    # limit applies in sorted-source order, preserving per-source candidate order
    assert [(j.source, j.target) for j in out] == [
        ("http://s#S1", "http://t#T1"),
        ("http://s#S1", "http://t#T2"),
    ]


def test_judge_candidates_limit_renders_only_the_concepts_it_judges(cache, monkeypatch):
    """A smoke run's limit also bounds the prompt blocks rendered: S2 and
    its candidates are never rendered when only S1's pair is judged."""
    src, tgt = _ontologies()
    candidates = {"http://s#S1": [("http://t#T2", 0.5)], "http://s#S2": [("http://t#T1", 0.4)]}
    rendered = []
    real = judge_module.concept_context
    monkeypatch.setattr(judge_module, "concept_context",
                        lambda concept, onto: rendered.append(concept.iri) or real(concept, onto))
    judge_candidates(candidates, src, tgt, MockProvider(), cache, limit=1)
    assert sorted(rendered) == ["http://s#S1", "http://t#T2"]


def test_judge_candidates_skips_missing_concepts(cache, caplog):
    src, tgt = _ontologies()
    candidates = {
        "http://s#S1": [("http://t#T1", 0.9), ("http://t#Gone", 0.8)],
        "http://s#Gone": [("http://t#T1", 0.7)],
    }
    with caplog.at_level("WARNING"):
        out = judge_candidates(candidates, src, tgt, MockProvider(), cache)
    assert [(j.source, j.target) for j in out] == [("http://s#S1", "http://t#T1")]
    assert sum("concept missing" in r.message for r in caplog.records) == 2


def test_judge_candidates_empty_input(cache):
    src, tgt = _ontologies()
    assert judge_candidates({}, src, tgt, MockProvider(), cache) == []


def test_judge_candidates_calls_the_provider_once_per_prompt(cache, caplog):
    src, tgt = _ontologies()
    tgt["http://t#T3"] = Concept(iri="http://t#T3", label="heart")  # T1's prompt
    candidates = {"http://s#S1": [("http://t#T1", 0.9), ("http://t#T3", 0.9)]}
    provider = CountingProvider(MockProvider())
    with caplog.at_level("INFO", logger="ontomatch.judge"):
        out = judge_candidates(candidates, src, tgt, provider, cache, max_workers=8)
    assert provider.classify_calls == 1
    assert "judged 2 pairs: 1 served from cache, 1 sent to the provider" in caplog.messages
    assert [(j.target, j.p_yes) for j in out] == [
        ("http://t#T1", out[0].p_yes), ("http://t#T3", out[0].p_yes),
    ]


def _toy_ontologies_with_an_awkward_concept():
    ontologies = []
    for side, prefix in (("source", "http://s#"), ("target", "http://t#")):
        with open(TOY_DIR / f"{side}.jsonl", encoding="utf-8") as fp:
            onto = read_concept_jsonl(fp)
        iri = prefix + "Awkward"
        onto[iri] = Concept(
            iri=iri, label='a "quoted"\nlabel', synonyms=["tab\there", "back\\slash"],
            parents=[next(iter(onto))], definition="naïve \u2028 \U0001d11e\x00",
        )
        ontologies.append(onto)
    return ontologies


@pytest.mark.parametrize("shots", [(), DEFAULT_FEW_SHOT], ids=["no_shots", "two_shots"])
def test_judge_candidates_prompts_equal_build_judgement_prompt_for_every_pair(tmp_path,
                                                                             monkeypatch, shots):
    """Each pair's prompt is ``build_judgement_prompt``'s, keyed as the whole
    cache-key JSON, encoded independently, would key it."""
    src, tgt = _toy_ontologies_with_an_awkward_concept()
    targets = sorted(tgt)
    candidates = {
        s: [(t, 0.5) for t in targets[i % 7::7]] for i, s in enumerate(sorted(src))
    }
    cache = RecordingCache(tmp_path / "cache")
    provider = cache.provider(MockProvider())
    out = judge_candidates(candidates, src, tgt, provider, cache, shots=shots)
    expected = [build_judgement_prompt(concept_context(src[s], src), concept_context(tgt[t], tgt),
                                       shots)
                for s, targets_of_s in candidates.items() for t, _ in targets_of_s]
    assert len(cache.prompts) == len(out) == len(expected)
    assert ("http://s#Awkward", "http://t#Awkward") in {(j.source, j.target) for j in out}
    assert sorted(cache.prompts.values(), key=json.dumps) == sorted(expected, key=json.dumps)
    for (kind, key), messages in cache.prompts.items():
        assert key == reference_prompt_digest(
            kind, JUDGE_TEMPLATE_VERSION, provider.chat_model_id, messages)


# -- cache routing: hits on the calling thread, misses in the pool -------------


def _all_candidates():
    # Four pairs with four distinct prompts, in judge order.
    return {
        "http://s#S1": [("http://t#T1", 0.9), ("http://t#T2", 0.5)],
        "http://s#S2": [("http://t#T1", 0.4), ("http://t#T2", 0.3)],
    }


def _every_other(candidates):
    pairs = [(s, t, c) for s in sorted(candidates) for t, c in candidates[s]]
    subset: dict[str, list[tuple[str, float]]] = {}
    for src, tgt, cos in pairs[::2]:
        subset.setdefault(src, []).append((tgt, cos))
    return subset


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was made")


def test_judge_candidates_fully_warm_makes_no_pool_and_no_calls(tmp_path, monkeypatch):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    cold = judge_candidates(_all_candidates(), src, tgt, MockProvider(), cache)
    monkeypatch.setattr("ontomatch.cache.ThreadPoolExecutor", _no_pool)
    provider = CountingProvider(MockProvider())
    warm = judge_candidates(_all_candidates(), src, tgt, provider, cache)
    assert provider.total_calls == 0
    assert warm == cold


def test_judge_candidates_stops_calling_the_provider_once_an_entry_write_fails(tmp_path,
                                                                              monkeypatch):
    """Every append to the cache's log fails. With one worker, serve holds at
    most QUEUE_PER_WORKER jobs, and the store that fills the first block
    raises on serve's thread, so the later pairs are never sent to the
    provider. The append's OSError is raised, and no log is left."""
    src, tgt = Ontology(), Ontology()
    for i in range(9):
        src[f"http://s#S{i}"] = Concept(f"http://s#S{i}", label=f"source {i}")
        tgt[f"http://t#T{i}"] = Concept(f"http://t#T{i}", label=f"target {i}")
    candidates = {s: [(t, 0.5) for t in tgt] for s in src}
    pairs = len(src) * len(tgt)
    assert pairs > BLOCK_ENTRIES + QUEUE_PER_WORKER

    def refuse(path, data):
        raise OSError(f"cannot append to {path}")

    monkeypatch.setattr(cache_module, "_append", refuse)
    provider = CountingProvider(MockProvider())
    with pytest.raises(OSError, match="cannot append"):
        judge_candidates(candidates, src, tgt, provider, ResponseCache(tmp_path / "cache"),
                         max_workers=1)
    assert BLOCK_ENTRIES <= provider.classify_calls <= BLOCK_ENTRIES + QUEUE_PER_WORKER < pairs
    assert not (tmp_path / "cache").exists()


def test_judge_candidates_warm_reads_each_entry_once_and_probes_none(tmp_path, monkeypatch):
    """A fully cached batch decides its hits from the loaded log and reads
    each entry once, with no per-entry file probe."""
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    judge_candidates(_all_candidates(), src, tgt, MockProvider(), cache)
    entries = set(cache.stored("judge"))
    assert len(entries) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("an entry was probed")

    reads = Counter()
    real_get = ResponseCache.get

    def counted_get(self, kind, digest):
        reads[kind, digest] += 1
        return real_get(self, kind, digest)

    served = []
    real_serve = ResponseCache.serve

    def spy_serve(self, *args, **kwargs):
        result = real_serve(self, *args, **kwargs)
        served.append(result[1])
        return result

    monkeypatch.setattr(ResponseCache, "get", counted_get)
    monkeypatch.setattr(ResponseCache, "serve", spy_serve)
    monkeypatch.setattr("ontomatch.cache.ThreadPoolExecutor", _no_pool)
    provider = CountingProvider(MockProvider())
    # os.path.exists and os.stat are the os module's own, so they are
    # restored before pytest, which uses them, reports a failure.
    with monkeypatch.context() as probes:
        probes.setattr("ontomatch.cache.os.path.exists", refuse)
        probes.setattr("ontomatch.cache.os.stat", refuse)
        out = judge_candidates(_all_candidates(), src, tgt, provider, cache)
    assert len(out) == 4 and provider.total_calls == 0
    assert reads == Counter({("judge", digest): 1 for digest in entries})
    assert served == [4]


def test_judge_candidates_half_warm_calls_provider_only_for_misses(tmp_path):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache)
    provider = CountingProvider(MockProvider())
    out = judge_candidates(_all_candidates(), src, tgt, provider, cache)
    assert provider.classify_calls == 2
    fresh = judge_candidates(
        _all_candidates(), src, tgt, MockProvider(), ResponseCache(tmp_path / "fresh")
    )
    assert out == fresh


def test_judge_candidates_limit_counts_hits_and_misses(tmp_path):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    # Pairs 1 and 3 (of 4) are cached; the limit of 3 takes pairs 1-3.
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache)
    provider = CountingProvider(MockProvider())
    out = judge_candidates(_all_candidates(), src, tgt, provider, cache, limit=3)
    assert [(j.source, j.target) for j in out] == [
        ("http://s#S1", "http://t#T1"),
        ("http://s#S1", "http://t#T2"),
        ("http://s#S2", "http://t#T1"),
    ]
    assert provider.classify_calls == 1


def test_judge_candidates_recomputes_corrupt_cached_answer(tmp_path, caplog):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    candidates = {"http://s#S1": [("http://t#T1", 0.9)]}
    first = judge_candidates(candidates, src, tgt, MockProvider(), cache)
    [digest] = cache.stored("judge")
    append_raw_entry(tmp_path / "cache", "judge", digest, b"{truncated")
    cache = ResponseCache(tmp_path / "cache")
    provider = CountingProvider(MockProvider())
    with caplog.at_level("WARNING"):
        again = judge_candidates(candidates, src, tgt, provider, cache)
    assert again == first
    assert provider.classify_calls == 1
    assert sum("discarding corrupt cache entry" in m for m in caplog.messages) == 1
    assert ResponseCache(tmp_path / "cache").get("judge", digest)["entries"]


def test_judge_candidates_logs_hits_and_misses(tmp_path, caplog):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache)
    with caplog.at_level("INFO", logger="ontomatch.judge"):
        judge_candidates(_all_candidates(), src, tgt, MockProvider(), cache)
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert lines == ["judged 4 pairs: 2 served from cache, 2 sent to the provider"]


# -- judgement IO ---------------------------------------------------------------


def test_judgement_tsv_round_trip():
    rows = [
        Judgement("http://s#S2", "http://t#T1", 0.5, 0.00091196),
        Judgement("http://s#S1", "http://t#T1", 0.95, 0.99908804),
    ]
    buf = io.StringIO()
    write_judgements(rows, buf, 0.99)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "SrcEntity\tTgtEntity\tCosine\tPYes\tDecision"
    assert lines[1] == "http://s#S1\thttp://t#T1\t0.95000000\t0.99908804\tyes"
    assert lines[2] == "http://s#S2\thttp://t#T1\t0.50000000\t0.00091196\tno"
    back = read_judgements(io.StringIO(buf.getvalue()))
    assert back == sorted(rows, key=lambda j: (j.source, j.target))


def test_write_judgements_decision_follows_lambda_prob(cache):
    judgement = _judge("heart", "heart", 0.95, MockProvider(), cache)
    for lambda_prob, decision in ((0.9999, "no"), (0.99, "yes")):
        buf = io.StringIO()
        write_judgements([judgement], buf, lambda_prob)
        assert buf.getvalue().splitlines()[1].split("\t")[4] == decision


@pytest.mark.parametrize("p, printed, decision", [
    (0.989999996, "0.99000000", "yes"),  # below lambda_prob, printed at it
    (0.989999994, "0.98999999", "no"),
])
def test_write_judgements_decision_agrees_with_fuse_on_the_printed_p_yes(p, printed, decision):
    """``Decision`` is decided on the ``PYes`` that ``fuse`` reads back."""
    buf = io.StringIO()
    write_judgements([Judgement("http://s#S1", "http://t#T1", 0.99, p)], buf, 0.99)
    row = buf.getvalue().splitlines()[1].split("\t")
    assert row[3:] == [printed, decision]
    kept = filter_and_fuse(read_judgements(io.StringIO(buf.getvalue())), lambda_prob=0.99)
    assert bool(kept) == (decision == "yes")


def test_read_judgements_rejects_short_rows():
    text = "SrcEntity\tTgtEntity\tCosine\tPYes\tDecision\na\tb\t0.5\n"
    with pytest.raises(OntologyParseError) as exc:
        read_judgements(io.StringIO(text))
    assert exc.value.line == 2


def test_read_judgements_skips_blank_lines():
    text = "a\tb\t0.5\t0.9\tyes\n\n"
    out = read_judgements(io.StringIO(text))
    assert out == [Judgement("a", "b", 0.5, 0.9)]
