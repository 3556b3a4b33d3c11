"""Equivalence judging: prompt layout, YES-probability math, judgement IO."""

import io
import math
import random

import pytest

from ontomatch.cache import ResponseCache
from ontomatch.errors import OntologyParseError, UnparseableJudgementError
from ontomatch.judge import (
    DEFAULT_FEW_SHOT,
    JUDGE_SYSTEM,
    FewShotExample,
    build_judgement_prompt,
    judge_candidates,
    judge_pair,
    p_yes,
    read_judgements,
    write_judgements,
)
from ontomatch.model import Concept, ContextBlock, Judgement, Ontology, Thresholds
from ontomatch.providers import MockProvider, TokenDistribution

from conftest import CountingProvider, golden_text
from oracles import reference_p_yes

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


def test_include_definition_false_strips_definition_lines_everywhere():
    messages = build_judgement_prompt(
        NERVE_A, NERVE_B, shots=DEFAULT_FEW_SHOT, include_definition=False
    )
    for m in messages:
        assert "Definition:" not in m["content"]
    with_def = build_judgement_prompt(NERVE_A, NERVE_B)[-1]["content"]
    without = build_judgement_prompt(NERVE_A, NERVE_B, include_definition=False)[-1]["content"]
    expected = "\n".join(
        line for line in with_def.splitlines() if not line.startswith("Definition: ")
    )
    assert without == expected


# -- p_yes ---------------------------------------------------------------------


def test_p_yes_symmetric_distribution_is_half():
    assert p_yes({"YES": -1.0, "NO": -1.0}) == pytest.approx(0.5, abs=1e-15)


def test_p_yes_accepts_token_distribution_objects():
    dist = TokenDistribution({"YES": -0.5, "NO": -2.0})
    assert p_yes(dist) == p_yes({"YES": -0.5, "NO": -2.0})


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
    rng = random.Random(31337)
    tokens = ("YES", "Yes", "yes", " YES", "NO", "No", " no", ".", "I", "the")
    for _ in range(200):
        entries = {
            t: rng.uniform(-25, 0)
            for t in rng.sample(tokens, rng.randint(2, len(tokens)))
        }
        if not any(k.strip().casefold() in ("yes", "no") for k in entries):
            continue
        assert p_yes(entries) == pytest.approx(reference_p_yes(entries), abs=1e-9)


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
    with pytest.raises(UnparseableJudgementError):
        p_yes({".": -1.0, "maybe": -2.0})
    with pytest.raises(UnparseableJudgementError):
        p_yes({})


def test_p_yes_rejects_unknown_mode():
    with pytest.raises(ValueError):
        p_yes({"YES": -1.0}, mode="other")


# -- judge_pair / judge_candidates ---------------------------------------------


def test_judge_pair_positive_decision_with_default_thresholds():
    a = simple_ctx("http://x.org/c#A", "heart")
    b = simple_ctx("http://y.org/c#B", "heart")
    j = judge_pair(a, b, 0.95, MockProvider())
    assert j.source == "http://x.org/c#A"
    assert j.target == "http://y.org/c#B"
    assert j.cosine == 0.95
    assert j.p_yes == pytest.approx(0.999088038129987, abs=1e-12)
    assert j.decision is True


def test_judge_pair_negative_decision():
    a = simple_ctx("http://x.org/c#A", "left kidney")
    b = simple_ctx("http://y.org/c#B", "right kidney")
    j = judge_pair(a, b, 0.8, MockProvider())
    assert j.p_yes < 0.01
    assert j.decision is False


def test_judge_pair_threshold_is_configurable():
    a = simple_ctx("http://x.org/c#A", "heart")
    b = simple_ctx("http://y.org/c#B", "heart")
    strict = judge_pair(a, b, 0.95, MockProvider(), thresholds=Thresholds(0.9999, 0.9))
    assert strict.decision is False


def test_judge_pair_cache_hit_skips_provider(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = CountingProvider(MockProvider())
    a = simple_ctx("http://x.org/c#A", "heart")
    b = simple_ctx("http://y.org/c#B", "heart")
    first = judge_pair(a, b, 0.95, provider, cache=cache)
    second = judge_pair(a, b, 0.95, provider, cache=cache)
    assert provider.classify_calls == 1
    assert first == second


def _ontologies():
    src = Ontology(name="src")
    tgt = Ontology(name="tgt")
    for iri, label in [("http://s#S1", "heart"), ("http://s#S2", "lungs")]:
        src.concepts[iri] = Concept(iri=iri, label=label)
    for iri, label in [("http://t#T1", "heart"), ("http://t#T2", "kidney")]:
        tgt.concepts[iri] = Concept(iri=iri, label=label)
    return src, tgt


def test_judge_candidates_sorted_and_decided():
    src, tgt = _ontologies()
    candidates = {
        "http://s#S2": [("http://t#T1", 0.4)],
        "http://s#S1": [("http://t#T2", 0.5), ("http://t#T1", 0.9)],
    }
    out = judge_candidates(candidates, src, tgt, MockProvider())
    assert [(j.source, j.target) for j in out] == [
        ("http://s#S1", "http://t#T1"),
        ("http://s#S1", "http://t#T2"),
        ("http://s#S2", "http://t#T1"),
    ]
    by_pair = {(j.source, j.target): j.decision for j in out}
    assert by_pair[("http://s#S1", "http://t#T1")] is True
    assert by_pair[("http://s#S1", "http://t#T2")] is False


def test_judge_candidates_limit_bounds_pairs():
    src, tgt = _ontologies()
    candidates = {
        "http://s#S1": [("http://t#T2", 0.5), ("http://t#T1", 0.9)],
        "http://s#S2": [("http://t#T1", 0.4)],
    }
    provider = CountingProvider(MockProvider())
    out = judge_candidates(candidates, src, tgt, provider, limit=2)
    assert len(out) == 2
    assert provider.classify_calls == 2
    # limit applies in sorted-source order, preserving per-source candidate order
    assert [(j.source, j.target) for j in out] == [
        ("http://s#S1", "http://t#T1"),
        ("http://s#S1", "http://t#T2"),
    ]


def test_judge_candidates_skips_missing_concepts(caplog):
    src, tgt = _ontologies()
    candidates = {
        "http://s#S1": [("http://t#T1", 0.9), ("http://t#Gone", 0.8)],
        "http://s#Gone": [("http://t#T1", 0.7)],
    }
    with caplog.at_level("WARNING"):
        out = judge_candidates(candidates, src, tgt, MockProvider())
    assert [(j.source, j.target) for j in out] == [("http://s#S1", "http://t#T1")]
    assert sum("concept missing" in r.message for r in caplog.records) == 2


def test_judge_candidates_empty_input():
    src, tgt = _ontologies()
    assert judge_candidates({}, src, tgt, MockProvider()) == []



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
    cold = judge_candidates(_all_candidates(), src, tgt, MockProvider(), cache=cache)
    monkeypatch.setattr("ontomatch.judge.ThreadPoolExecutor", _no_pool)
    provider = CountingProvider(MockProvider())
    warm = judge_candidates(_all_candidates(), src, tgt, provider, cache=cache)
    assert provider.total_calls == 0
    assert warm == cold


def test_judge_candidates_half_warm_calls_provider_only_for_misses(tmp_path):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache=cache)
    provider = CountingProvider(MockProvider())
    out = judge_candidates(_all_candidates(), src, tgt, provider, cache=cache)
    assert provider.classify_calls == 2
    fresh = judge_candidates(
        _all_candidates(), src, tgt, MockProvider(), cache=ResponseCache(tmp_path / "fresh")
    )
    assert out == fresh


def test_judge_candidates_limit_counts_hits_and_misses(tmp_path):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    # Pairs 1 and 3 (of 4) are cached; the limit of 3 takes pairs 1-3.
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache=cache)
    provider = CountingProvider(MockProvider())
    out = judge_candidates(_all_candidates(), src, tgt, provider, cache=cache, limit=3)
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
    first = judge_candidates(candidates, src, tgt, MockProvider(), cache=cache)
    [entry] = (tmp_path / "cache" / "judge").glob("*.json")
    entry.write_text("{truncated", encoding="utf-8")
    provider = CountingProvider(MockProvider())
    with caplog.at_level("WARNING"):
        again = judge_candidates(candidates, src, tgt, provider, cache=cache)
    assert again == first
    assert provider.classify_calls == 1
    assert any("corrupt" in r.message for r in caplog.records)
    assert cache.get("judge", entry.stem)["entries"]


def test_judge_candidates_logs_hits_and_misses(tmp_path, caplog):
    src, tgt = _ontologies()
    cache = ResponseCache(tmp_path / "cache")
    judge_candidates(_every_other(_all_candidates()), src, tgt, MockProvider(), cache=cache)
    with caplog.at_level("INFO", logger="ontomatch.judge"):
        judge_candidates(_all_candidates(), src, tgt, MockProvider(), cache=cache)
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert lines == ["judged 4 pairs: 2 served from cache, 2 sent to the provider"]


# -- judgement IO ---------------------------------------------------------------


def test_judgement_tsv_round_trip():
    rows = [
        Judgement("http://s#S2", "http://t#T1", 0.5, 0.00091196, False),
        Judgement("http://s#S1", "http://t#T1", 0.95, 0.99908804, True),
    ]
    buf = io.StringIO()
    write_judgements(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "SrcEntity\tTgtEntity\tCosine\tPYes\tDecision"
    assert lines[1] == "http://s#S1\thttp://t#T1\t0.95000000\t0.99908804\tyes"
    assert lines[2] == "http://s#S2\thttp://t#T1\t0.50000000\t0.00091196\tno"
    back = read_judgements(io.StringIO(buf.getvalue()))
    assert back == sorted(rows, key=lambda j: (j.source, j.target))


def test_read_judgements_rejects_short_rows():
    text = "SrcEntity\tTgtEntity\tCosine\tPYes\tDecision\na\tb\t0.5\n"
    with pytest.raises(OntologyParseError) as exc:
        read_judgements(io.StringIO(text))
    assert exc.value.line == 2


def test_read_judgements_skips_blank_lines():
    text = "a\tb\t0.5\t0.9\tyes\n\n"
    out = read_judgements(io.StringIO(text))
    assert len(out) == 1
    assert out[0].decision is True
