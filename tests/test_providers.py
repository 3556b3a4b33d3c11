"""Providers: deterministic mock backend, the JSON-over-HTTP client, and
the scheduler that calls them, ``ResponseCache.serve``."""

import json
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import ontomatch.cache as cache_module
from ontomatch.cache import QUEUE_PER_WORKER, ResponseCache
from ontomatch.errors import CapabilityError, ItemError
from ontomatch.providers import (
    EMPTY_TEXT_PLACEHOLDER,
    AliasTable,
    HttpProvider,
    HttpProviderConfig,
    MockProvider,
    PromptFrame,
    SamplingParams,
    json_escape,
    prompt_digest,
    validate_messages,
)

from conftest import TOY_DIR, append_raw_entry, block_digests, load_alias_groups
from oracles import alias_rewriter, cosine, reference_prompt_digest

ALIASES = [
    ["abducens nerve", "nervus abducens", "lateral rectus nerve"],
    ["common concept 3", "src label 3", "tgt label 3"],
]


def chat(system: str, user: str):
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


def judge_messages(name_a: str, name_b: str):
    body = f"Concept A\nName: {name_a}\n\nConcept B\nName: {name_b}\n\nSame?"
    return chat("judge", body)


# -- message validation and digests ------------------------------------------


def test_validate_messages_accepts_well_formed_prompts():
    validate_messages(chat("s", "u"))
    validate_messages([
        {"role": "system", "content": "s"},
        {"role": "user", "content": "u1"},
        {"role": "assistant", "content": "a1"},
        {"role": "user", "content": "u2"},
    ])


@pytest.mark.parametrize("messages", [
    [],
    [{"role": "user", "content": "u"}],
    [{"role": "system", "content": "s"}],
    [{"role": "system", "content": "s"}, {"role": "system", "content": "s2"},
     {"role": "user", "content": "u"}],
    [{"role": "user", "content": "u"}, {"role": "system", "content": "s"}],
])
def test_validate_messages_rejects_malformed_prompts(messages):
    with pytest.raises(ValueError):
        validate_messages(messages)


def test_prompt_digest_stable_and_sensitive():
    messages = chat("s", "u")
    d1 = prompt_digest("generate", "1", "model-x", messages)
    assert d1 == prompt_digest("generate", "1", "model-x", chat("s", "u"))
    assert len(d1) == 64
    assert d1 != prompt_digest("judge", "1", "model-x", messages)
    assert d1 != prompt_digest("generate", "2", "model-x", messages)
    assert d1 != prompt_digest("generate", "1", "model-y", messages)
    assert d1 != prompt_digest("generate", "1", "model-x", chat("s", "u2"))


CONTROL_CHARACTERS = "".join(map(chr, range(0x20)))
AWKWARD_TEXTS = [
    "",
    'a "quoted" name',
    "back\\slash \\n",
    CONTROL_CHARACTERS,
    "line\u2028separator\u2029paragraph",
    "clef \U0001d11e and emoji \U0001f600",
    "naïve café, 中文",
    '"\\' + CONTROL_CHARACTERS + "\u2028\U0001d11e",
]


def few_shot_chat(system: str, user: str):
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": "shot one\n\nwith a blank line"},
        {"role": "assistant", "content": "YES"},
        {"role": "user", "content": "shot two"},
        {"role": "assistant", "content": "NO"},
        {"role": "user", "content": user},
    ]


@pytest.mark.parametrize("text", AWKWARD_TEXTS)
@pytest.mark.parametrize("build", [chat, few_shot_chat])
def test_prompt_digest_equals_the_whole_json_formula(build, text):
    for messages in (build("s", text), build(text, "u"), build(text, text)):
        assert prompt_digest("judge", "1", "model-x", messages) == \
            reference_prompt_digest("judge", "1", "model-x", messages)
    assert prompt_digest(text, text, text, build(text, text)) == \
        reference_prompt_digest(text, text, text, build(text, text))
    params = SamplingParams(temperature=0.0, top_p=0.5, max_tokens=16)
    assert prompt_digest("define", "1", "model-x", build(text, text), params) == \
        reference_prompt_digest("define", "1", "model-x", build(text, text), params)


def test_prompt_digest_covers_a_message_with_extra_keys():
    messages = [
        {"role": "system", "content": "s", "name": "judge"},
        {"role": "user", "content": "u", "a_key_before_content": 1, "z_after_role": [None]},
    ]
    assert prompt_digest("judge", "1", "m", messages) == \
        reference_prompt_digest("judge", "1", "m", messages)


@pytest.mark.parametrize("messages", [chat("s", "lone \ud800 surrogate"),
                                      chat("lone \udfff surrogate", "u")])
def test_prompt_digest_raises_on_a_lone_surrogate_like_the_formula(messages):
    with pytest.raises(UnicodeEncodeError):
        reference_prompt_digest("judge", "1", "m", messages)
    with pytest.raises(UnicodeEncodeError):
        prompt_digest("judge", "1", "m", messages)


@pytest.mark.parametrize("left", AWKWARD_TEXTS)
def test_a_frame_keys_a_content_from_its_escaped_pieces(left):
    frame = PromptFrame("judge", "1", "model-x", few_shot_chat("s", ""))
    for right in AWKWARD_TEXTS:
        text = left + "\n\n" + right
        expected = reference_prompt_digest("judge", "1", "model-x", few_shot_chat("s", text))
        assert frame.digest(json_escape(left) + json_escape("\n\n") + json_escape(right)) \
            == expected
        assert frame.digest(json_escape(text)) == expected


def test_sampling_params_validation():
    SamplingParams(temperature=0.0, top_p=1.0, max_tokens=1)
    with pytest.raises(ValueError):
        SamplingParams(temperature=-0.1)
    with pytest.raises(ValueError):
        SamplingParams(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingParams(max_tokens=0)


# -- alias table --------------------------------------------------------------


def test_alias_table_maps_members_to_group_canonical():
    table = AliasTable(ALIASES)
    assert table.canonicalize("Nervus  Abducens") == "abducens nerve"
    assert table.canonicalize("LATERAL RECTUS NERVE") == "abducens nerve"
    assert table.canonicalize("unrelated text") == "unrelated text"


def test_alias_table_replaces_inside_longer_text():
    table = AliasTable(ALIASES)
    out = table.canonicalize("The nervus abducens of the eye")
    assert out == "the abducens nerve of the eye"


def test_alias_table_longest_match_wins():
    table = AliasTable([["heart muscle", "cardiac muscle"], ["heart", "cor"]])
    assert table.canonicalize("cardiac muscle") == "heart muscle"
    assert table.canonicalize("cor") == "heart"


def test_empty_alias_table_only_collapses():
    table = AliasTable()
    assert table.canonicalize("  A   B ") == "a b"


def test_alias_table_ignores_members_that_collapse_to_nothing():
    table = AliasTable([["heart", " "], ["", "cor"]])
    assert table.canonicalize("ab") == "ab"
    assert table.canonicalize("cor heart") == " heart"


def _assert_matches_regex_oracle(groups, texts):
    table, oracle = AliasTable(groups), alias_rewriter(groups)
    assert [table.canonicalize(t) for t in texts] == [oracle(t) for t in texts]


def test_alias_table_matches_the_regex_oracle_on_the_toy_groups():
    groups = load_alias_groups()
    texts = [m for g in groups for m in g]
    for name in ("source.jsonl", "target.jsonl"):
        for line in (TOY_DIR / name).read_text(encoding="utf-8").splitlines():
            concept = json.loads(line)
            texts += [concept["label"] or "", *concept["synonyms"]]
            texts.append("; ".join([concept["label"] or "", *concept["synonyms"]]))
    _assert_matches_regex_oracle(groups, texts)


def test_alias_table_matches_the_regex_oracle_on_the_bench_groups(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen

    sources, targets, groups, _, _ = gen.build(3, 400)
    texts = [m for g in groups for m in g]
    for c in sources + targets:
        texts += [c.label or "", *c.synonyms]
        texts.append(f"Label: {c.label}; Synonyms: {', '.join(c.synonyms)};")
    _assert_matches_regex_oracle(groups, texts)


@pytest.mark.parametrize("seed", range(20))
def test_alias_table_matches_the_regex_oracle_on_random_strings(seed):
    """Aliases of a few characters from "a", "b" and spaces, in either case,
    nest inside and overlap each other and the texts; some collapse to ""."""
    rng = random.Random(seed)

    def word(low, high):
        return "".join(rng.choice("abAB  ") for _ in range(rng.randint(low, high)))

    groups = [[word(0, 5) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 8))]
    _assert_matches_regex_oracle(groups, [word(0, 40) for _ in range(50)])


# -- mock embeddings ----------------------------------------------------------


def test_mock_embeddings_pure_across_instances():
    a = MockProvider(dimension=64, seed=0).embed_batch(["heart", "kidney"])
    b = MockProvider(dimension=64, seed=0).embed_batch(["heart", "kidney"])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", range(5))
def test_a_memoizing_mock_answers_as_a_fresh_one_on_random_texts(seed):
    """One provider, whose trigram and alias memos fill as it goes, against
    a fresh provider per call, on texts that repeat, hold alias members and
    hit the memos on the second pass."""
    rng = random.Random(seed)
    members = [m for g in ALIASES for m in g]
    words = [*members, "heart", "Kidney", "  lobe ", "é", "", "ab"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 4))) for _ in range(40)]
    memoizing = MockProvider(dimension=16, seed=seed, alias_groups=ALIASES)

    def fresh():
        return MockProvider(dimension=16, seed=seed, alias_groups=ALIASES)

    for text in texts + texts[::-1]:
        assert np.array_equal(memoizing.embed_batch([text])[0], fresh().embed_batch([text])[0])
        prompt = chat("system", f"Concept: {text}")
        assert memoizing.generate(prompt, SamplingParams()) == fresh().generate(
            prompt, SamplingParams())
        pair = chat("system", f"Name: {text}\nName: {rng.choice(texts)}")
        assert memoizing.classify_first_token(pair) == fresh().classify_first_token(pair)


def test_a_mock_shared_by_threads_answers_as_a_fresh_one():
    """Threads racing to fill the same memo entries (with a short switch
    interval) each get a fresh provider's vectors and answers."""
    texts = [f"{name} {i % 7}" for i in range(60) for name in ("heart", "abducens nerve")]

    def fresh():
        return MockProvider(dimension=16, alias_groups=ALIASES)

    expected = [(fresh().embed_batch([t])[0].tolist(),
                 fresh().classify_first_token(judge_messages(t, texts[0]))) for t in texts]
    shared = fresh()

    def answers(_):
        return [(shared.embed_batch([t])[0].tolist(),
                 shared.classify_first_token(judge_messages(t, texts[0]))) for t in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(answers, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8


def test_mock_embeddings_unit_norm_and_shape():
    vecs = MockProvider(dimension=48, seed=3).embed_batch(["heart", "ab", ""])
    for v in vecs:
        assert v.shape == (48,)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_mock_embedding_batching_is_transparent():
    provider = MockProvider(dimension=64, seed=0)
    together = provider.embed_batch(["alpha", "beta", "gamma"])
    single = [provider.embed_batch([t])[0] for t in ("alpha", "beta", "gamma")]
    for x, y in zip(together, single):
        assert np.array_equal(x, y)


def test_mock_embedding_aliases_become_identical_vectors():
    provider = MockProvider(dimension=64, seed=0, alias_groups=ALIASES)
    v1, v2, v3 = provider.embed_batch(
        ["abducens nerve", "Nervus Abducens", "lateral  rectus nerve"]
    )
    assert cosine(v1, v2) >= 0.99
    assert cosine(v1, v3) >= 0.99


def test_mock_embedding_unrelated_texts_stay_apart():
    provider = MockProvider(dimension=64, seed=0)
    v1, v2 = provider.embed_batch(["abducens nerve", "parietal pleura"])
    assert cosine(v1, v2) < 0.9


def test_mock_embedding_empty_text_uses_placeholder():
    provider = MockProvider(dimension=64, seed=0)
    empty, space, placeholder = provider.embed_batch(["", "   ", EMPTY_TEXT_PLACEHOLDER])
    assert np.array_equal(empty, placeholder)
    assert np.array_equal(space, placeholder)


def test_mock_embedding_changes_with_seed_and_dimension():
    base = MockProvider(dimension=64, seed=0).embed_batch(["heart"])[0]
    reseeded = MockProvider(dimension=64, seed=1).embed_batch(["heart"])[0]
    assert not np.array_equal(base, reseeded)
    resized = MockProvider(dimension=32, seed=0).embed_batch(["heart"])[0]
    assert resized.shape == (32,)


def test_mock_embed_batch_rejects_empty_list():
    with pytest.raises(ValueError):
        MockProvider().embed_batch([])


def test_mock_embedding_falls_back_to_one_unit_component_when_features_cancel():
    """Two trigrams of opposite sign in one bucket sum to zero; the vector is
    then the text's own feature bucket at 1.0."""
    provider = MockProvider(dimension=2)

    def cancels(text):
        (b1, s1), (b2, s2) = (provider._hash_feature(text[i:i + 3]) for i in (0, 1))
        return b1 == b2 and s1 == -s2

    texts = ["".join(random.Random(seed).choices("abcdefgh", k=4)) for seed in range(40)]
    cancelled = [text for text in texts if cancels(text)]
    assert cancelled
    for text in cancelled:
        expected = np.zeros(2)
        expected[provider._hash_feature(text)[0]] = 1.0
        assert provider.embed_batch([text])[0].tolist() == expected.tolist()


def test_mock_provider_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        MockProvider(dimension=1)


def test_mock_model_ids_reflect_parameters():
    provider = MockProvider(dimension=32, seed=5)
    assert provider.embed_model_id == "mock-embed-d32-s5"
    assert provider.chat_model_id == "mock-chat-s5"


def test_mock_model_ids_name_the_alias_groups():
    """The groups change vectors and answers, so they change both ids; no
    groups keep the ids of a mock without them."""
    plain = MockProvider(dimension=32, seed=5, alias_groups=[])
    assert (plain.embed_model_id, plain.chat_model_id) == ("mock-embed-d32-s5", "mock-chat-s5")
    aliased = MockProvider(dimension=32, seed=5, alias_groups=[["a", "b"]])
    assert aliased.embed_model_id == "mock-embed-d32-s5-acccb00f1aa26"
    assert aliased.chat_model_id == "mock-chat-s5-acccb00f1aa26"
    other = MockProvider(dimension=32, seed=5, alias_groups=[["a", "c"]])
    assert other.embed_model_id != aliased.embed_model_id
    assert other.chat_model_id != aliased.chat_model_id


# -- mock chat ----------------------------------------------------------------


def test_mock_generate_definition_from_concept_line():
    provider = MockProvider(alias_groups=ALIASES)
    text = provider.generate(
        chat("sys", "Concept: Nervus Abducens\nSynonyms: none"), SamplingParams()
    )
    assert text == "A biomedical concept referring to abducens nerve."


def test_mock_generate_without_concept_line_uses_first_line():
    provider = MockProvider()
    text = provider.generate(chat("sys", "Heart\nmore"), SamplingParams())
    assert text == "A biomedical concept referring to heart."


def test_mock_judge_yes_when_canonical_names_match():
    provider = MockProvider(alias_groups=ALIASES)
    dist = provider.classify_first_token(
        judge_messages("abducens nerve", "Nervus Abducens")
    )
    assert dist == {"YES": -0.001, "NO": -7.0}


def test_mock_judge_no_when_names_differ():
    provider = MockProvider()
    dist = provider.classify_first_token(judge_messages("left kidney", "right kidney"))
    assert dist == {"YES": -7.0, "NO": -0.001}


def test_mock_prompt_size_limit():
    provider = MockProvider(context_chars=50)
    with pytest.raises(ItemError, match="prompt of 103 characters exceeds mock context"):
        provider.generate(chat("sys", "x" * 100), SamplingParams())
    with pytest.raises(ItemError, match="exceeds mock context limit 50"):
        provider.classify_first_token(judge_messages("y" * 100, "z"))


def test_mock_chat_validates_messages():
    provider = MockProvider()
    with pytest.raises(ValueError):
        provider.generate([{"role": "user", "content": "u"}], SamplingParams())


# -- HTTP provider ------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="err"):
        self.status_code = status_code
        self._payload = payload if payload is not None else {}
        self.text = text

    def json(self):
        return self._payload


class FakeSession:
    """Replays queued responses (or raises queued exceptions) for POSTs."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_provider(outcomes, **config_overrides):
    config = HttpProviderConfig(
        base_url="http://test/v1", api_key="secret", **config_overrides
    )
    session = FakeSession(outcomes)
    sleeps = []
    provider = HttpProvider(config=config, session=session, sleep=sleeps.append)
    return provider, session, sleeps


def embed_response(vectors):
    return FakeResponse(payload={"data": [{"embedding": list(v)} for v in vectors]})


def chat_response(content):
    return FakeResponse(payload={"choices": [{"message": {"content": content}}]})


def logprob_response(top):
    return FakeResponse(payload={
        "choices": [{"logprobs": {"content": [{"top_logprobs": top}]}}]
    })


def test_http_retries_then_succeeds_with_backoff():
    provider, session, sleeps = http_provider([
        FakeResponse(status_code=500),
        FakeResponse(status_code=429),
        embed_response([[1.0, 0.0]]),
    ])
    out = provider.embed_batch(["heart"])
    assert len(out) == 1
    assert np.array_equal(out[0], np.array([1.0, 0.0]))
    assert sleeps == [1.0, 2.0]
    assert len(session.calls) == 3


def test_http_transport_errors_are_retried():
    provider, session, sleeps = http_provider([
        ConnectionError("down"),
        embed_response([[0.0, 1.0]]),
    ])
    provider.embed_batch(["heart"])
    assert sleeps == [1.0]


def test_http_gives_up_after_max_attempts():
    provider, session, sleeps = http_provider([
        FakeResponse(status_code=503),
        FakeResponse(status_code=503),
        FakeResponse(status_code=503),
    ])
    with pytest.raises(ItemError, match="3 attempts"):
        provider.embed_batch(["heart"])
    assert sleeps == [1.0, 2.0]


def test_http_client_errors_fail_immediately():
    provider, session, sleeps = http_provider([
        FakeResponse(status_code=400, text="bad request"),
    ])
    with pytest.raises(ItemError, match="HTTP 400"):
        provider.embed_batch(["heart"])
    assert len(session.calls) == 1
    assert sleeps == []


def test_http_embed_chunks_large_batches():
    provider, session, _ = http_provider(
        [
            embed_response([[1.0, 0.0], [0.0, 1.0]]),
            embed_response([[1.0, 1.0], [2.0, 0.0]]),
            embed_response([[0.5, 0.5]]),
        ],
        embed_batch_size=2,
    )
    out = provider.embed_batch(["a", "b", "c", "d", "e"])
    assert len(out) == 5
    assert len(session.calls) == 3
    assert session.calls[0]["url"] == "http://test/v1/embeddings"
    assert session.calls[0]["json"]["input"] == ["a", "b"]
    assert session.calls[2]["json"]["input"] == ["e"]
    assert session.calls[0]["headers"]["Authorization"] == "Bearer secret"


def test_http_embed_batch_rejects_an_empty_list_without_a_request():
    provider, session, _ = http_provider([])
    with pytest.raises(ValueError, match="non-empty text list"):
        provider.embed_batch([])
    assert session.calls == []


def test_http_embed_replaces_empty_texts():
    provider, session, _ = http_provider([embed_response([[1.0, 0.0], [0.0, 1.0]])])
    provider.embed_batch(["", "ok"])
    assert session.calls[0]["json"]["input"] == [EMPTY_TEXT_PLACEHOLDER, "ok"]


def test_http_embed_rejects_row_count_mismatch():
    provider, _, _ = http_provider([embed_response([[1.0, 0.0]])])
    with pytest.raises(ItemError, match="rows"):
        provider.embed_batch(["a", "b"])


def test_http_embed_rejects_non_finite_vectors():
    provider, _, _ = http_provider([embed_response([[float("nan"), 0.0]])])
    with pytest.raises(ItemError, match="non-finite"):
        provider.embed_batch(["a"])


@pytest.mark.parametrize("data", [
    [{"vector": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}],
    ["[1.0, 0.0]", {"embedding": [0.0, 1.0]}],
    [{"embedding": ["a", "b"]}, {"embedding": [0.0, 1.0]}],
    [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0, 0.0]}],
    [{"embedding": [1.0, 0.0]}, {"embedding": []}],
    [{"embedding": [[1.0, 0.0]]}, {"embedding": [0.0, 1.0]}],
])
def test_http_embed_malformed_rows_raise_provider_error(data):
    provider, _, _ = http_provider([FakeResponse(payload={"data": data})])
    with pytest.raises(ItemError):
        provider.embed_batch(["a", "b"])


def test_http_embed_rejects_vectors_of_another_length_in_a_later_chunk():
    provider, _, _ = http_provider(
        [embed_response([[1.0, 0.0]]), embed_response([[1.0, 0.0, 0.0]])],
        embed_batch_size=1,
    )
    with pytest.raises(ItemError, match="length"):
        provider.embed_batch(["a", "b"])


class NonJsonResponse(FakeResponse):
    def json(self):
        return json.loads(self.text)


@pytest.mark.parametrize("text", ["<html>gateway page</html>", "[1, 2]"])
def test_http_success_without_a_json_object_raises_provider_error(text):
    provider, session, sleeps = http_provider([NonJsonResponse(text=text)])
    with pytest.raises(ItemError, match="HTTP 200"):
        provider.embed_batch(["heart"])
    assert len(session.calls) == 1


def test_http_generate_returns_stripped_text_and_sends_params():
    provider, session, _ = http_provider([chat_response("A definition. \n")])
    params = SamplingParams(temperature=0.2, top_p=0.8, max_tokens=64)
    text = provider.generate(chat("sys", "user text"), params)
    assert text == "A definition."
    sent = session.calls[0]["json"]
    assert session.calls[0]["url"] == "http://test/v1/chat/completions"
    assert sent["temperature"] == 0.2
    assert sent["top_p"] == 0.8
    assert sent["max_tokens"] == 64


def test_http_generate_empty_completion_raises():
    provider, _, _ = http_provider([chat_response("   ")])
    with pytest.raises(ItemError, match="returned an empty completion"):
        provider.generate(chat("sys", "user"), SamplingParams())


def test_http_generate_malformed_body_raises():
    provider, _, _ = http_provider([FakeResponse(payload={"choices": []})])
    with pytest.raises(ItemError, match="malformed"):
        provider.generate(chat("sys", "user"), SamplingParams())


@pytest.mark.parametrize("content", [["A", "definition"], 7, {"text": "A definition"}])
def test_http_generate_non_string_content_raises_provider_error(content):
    provider, _, _ = http_provider([chat_response(content)])
    with pytest.raises(ItemError, match="malformed completion response"):
        provider.generate(chat("sys", "user"), SamplingParams())


def test_http_classify_keeps_max_logprob_per_token():
    provider, session, _ = http_provider([logprob_response([
        {"token": "YES", "logprob": -0.01},
        {"token": "NO", "logprob": -4.6},
        {"token": ".", "logprob": -9.2},
        {"token": "YES", "logprob": -5.0},
    ])])
    dist = provider.classify_first_token(judge_messages("a", "b"))
    assert dist == {"YES": -0.01, "NO": -4.6, ".": -9.2}
    sent = session.calls[0]["json"]
    assert sent["max_tokens"] == 1
    assert sent["temperature"] == 0.0
    assert sent["logprobs"] is True
    assert sent["top_logprobs"] == 20


def test_http_classify_without_logprobs_is_a_capability_error():
    provider, _, _ = http_provider([chat_response("YES")])
    with pytest.raises(CapabilityError) as exc:
        provider.classify_first_token(judge_messages("a", "b"))
    # Run-fatal: a caller that skips failed items must not skip this one.
    assert not isinstance(exc.value, ItemError)


def test_http_classify_rejects_an_empty_logprob_list():
    provider, _, _ = http_provider([logprob_response([])])
    with pytest.raises(CapabilityError, match="empty"):
        provider.classify_first_token(judge_messages("a", "b"))


@pytest.mark.parametrize("top", [
    [{"token": "YES"}],
    [{"token": "YES", "logprob": None}],
    [{"token": "YES", "logprob": "high"}],
    [{"token": "YES", "logprob": float("nan")}],
    [{"token": 1, "logprob": -0.1}],
    ["YES"],
    None,
    [{"token": "YES", "logprob": float("inf")}],
])
def test_http_classify_malformed_logprobs_raise_provider_error(top):
    provider, _, _ = http_provider([logprob_response(top)])
    with pytest.raises(ItemError, match="malformed top_logprobs"):
        provider.classify_first_token(judge_messages("a", "b"))


@pytest.mark.parametrize("field, value", [
    ("max_attempts", 0), ("embed_batch_size", 0), ("top_logprobs", 0),
    ("timeout", 0), ("backoff_base", -1),
])
def test_http_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        HttpProviderConfig(**{field: value})


def test_http_prompt_size_limit():
    provider, _, _ = http_provider([], context_chars=10)
    with pytest.raises(ItemError, match="prompt of 53 characters exceeds context limit 10"):
        provider.generate(chat("sys", "x" * 50), SamplingParams())


def test_http_config_env_overrides(monkeypatch):
    monkeypatch.setenv("ONTOMATCH_BASE_URL", "http://env:9000/v1")
    monkeypatch.setenv("ONTOMATCH_API_KEY", "env-key")
    monkeypatch.setenv("ONTOMATCH_EMBED_MODEL", "env-embed")
    monkeypatch.setenv("ONTOMATCH_CHAT_MODEL", "env-chat")
    config = HttpProviderConfig().apply_env_overrides()
    assert config.base_url == "http://env:9000/v1"
    assert config.api_key == "env-key"
    assert config.embed_model == "env-embed"
    assert config.chat_model == "env-chat"


def test_http_explicit_config_ignores_environment(monkeypatch):
    monkeypatch.setenv("ONTOMATCH_BASE_URL", "http://env:9000/v1")
    provider, _, _ = http_provider([])
    assert provider.config.base_url == "http://test/v1"


# -- ResponseCache.serve: cache hits inline, misses in a bounded pool -------------


def _job(value, ran_on=None):
    def job():
        if ran_on is not None:
            ran_on.append((value, threading.get_ident()))
        return value

    return job


def test_serve_bounds_jobs_in_flight_and_keeps_order(cache):
    release = threading.Event()
    pulled = []
    out = {}

    def wait_then(i):
        release.wait(timeout=30)
        return i

    def jobs():
        for i in range(20):
            pulled.append(i)
            yield f"d{i}", lambda i=i: wait_then(i)

    consumer = threading.Thread(
        target=lambda: out.update(result=cache.serve("judge", jobs(), max_workers=2))
    )
    consumer.start()
    consumer.join(timeout=0.5)
    # Two running plus six queued; the ninth job waits for the oldest, and
    # no further job is read.
    assert pulled == list(range(2 * QUEUE_PER_WORKER + 1))
    release.set()
    consumer.join(timeout=30)
    assert not consumer.is_alive()
    assert out["result"] == (list(range(20)), 0)


def test_serve_makes_no_threads_when_every_job_is_cached(tmp_path, monkeypatch):
    """No pool and no other thread: a fully cached call puts nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    def refuse_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    cache = ResponseCache(tmp_path / "cache")
    for i in range(5):
        cache.put("define", f"d{i}", {"text": str(i)})
    monkeypatch.setattr("ontomatch.cache.ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse_thread)
    ran_on = []
    jobs = ((f"d{i}", _job(i, ran_on)) for i in range(5))
    assert cache.serve("define", jobs, max_workers=8) == ([0, 1, 2, 3, 4], 5)
    assert {thread for _, thread in ran_on} == {threading.get_ident()}


def test_serve_interleaves_hits_and_misses_in_job_order(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    for i in range(0, 10, 3):
        cache.put("judge", f"d{i}", {"entries": {}})
    ran_on = []
    jobs = ((f"d{i}", _job(i, ran_on)) for i in range(10))
    assert cache.serve("judge", jobs, max_workers=2) == (list(range(10)), 4)
    here = threading.get_ident()
    assert sorted(i for i, thread in ran_on if thread == here) == [0, 3, 6, 9]


def test_serve_runs_a_duplicate_of_a_queued_job_on_the_calling_thread(cache):
    """The first job's compute is held while its duplicates arrive: they wait
    for it and then read its entry, so the digest is computed once and the
    duplicates count as served."""
    release = threading.Event()
    computed, ran_on, held = [], [], []

    def compute():
        computed.append(1)
        release.wait(timeout=30)
        return {"text": "shared"}

    def job():
        ran_on.append(threading.get_ident())
        return cache.get_or_compute("define", "d0", compute)["text"]

    def jobs():
        for _ in range(4):
            held.append(not release.is_set())
            yield "d0", job

    timer = threading.Timer(0.2, release.set)
    timer.start()
    try:
        result = cache.serve("define", jobs(), max_workers=4)
    finally:
        timer.cancel()
    assert result == (["shared"] * 4, 3)
    assert len(computed) == 1
    assert held[:2] == [True, True]
    here = threading.get_ident()
    assert ran_on[0] != here and ran_on[1:] == [here] * 3


def _serve_under_threads(cache: ResponseCache, good: frozenset[str] = frozenset(),
                         unusable: frozenset[str] = frozenset()) -> None:
    """Serve 400 jobs over 40 digests, drawn with near and far repeats, on 8
    workers with threads switched often. ``good`` digests are stored before,
    so they are never computed; every other digest is computed exactly once
    and its entry is in the log when serve returns, and every job that
    computed nothing counts as served. ``unusable`` names the digests stored
    with an entry that cannot be read."""
    rng = random.Random(7)
    digests = [f"d{rng.randrange(40)}" for _ in range(400)]
    computed = Counter()
    counted = threading.Lock()

    def compute_for(digest):
        def compute():
            with counted:
                computed[digest] += 1
            time.sleep(0.001)
            return {"text": digest}
        return compute

    jobs = (
        (d, lambda d=d: cache.get_or_compute("judge", d, compute_for(d))["text"])
        for d in digests
    )
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consumer = threading.Thread(
            target=lambda: out.update(result=cache.serve("judge", jobs, max_workers=8))
        )
        consumer.start()
        consumer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive()
    asked = set(digests) - good
    assert out["result"] == (digests, len(digests) - len(asked))
    assert computed == Counter(asked)
    fresh = ResponseCache(cache.root)
    assert fresh.stored("judge") == set(digests) | good | unusable
    assert all(fresh.get("judge", d) == {"text": d} for d in set(digests))


def test_serve_computes_each_digest_once_under_threads(cache):
    _serve_under_threads(cache)


def test_serve_under_threads_serves_stored_entries_and_recomputes_unusable_ones(cache):
    """Ten digests stored and five stored unusable: the calling thread serves
    the ten and recomputes the five while the pool's jobs put theirs."""
    good = frozenset(f"d{i}" for i in range(10))
    unusable = frozenset(f"d{i}" for i in range(10, 15))
    for d in good:
        cache.put("judge", d, {"text": d})
    for d in unusable:
        append_raw_entry(cache.root, "judge", d, b"{truncated")
    _serve_under_threads(cache, good, unusable)


def test_serve_reads_its_own_writes_before_they_are_appended(tmp_path):
    """Nothing is appended while the jobs run. A duplicate is served from
    the entry its original put, with no second compute, and serve returns
    once the entries are in the log."""
    cache = ResponseCache(tmp_path / "cache")
    log = tmp_path / "cache" / "judge.log"
    computed = Counter()
    on_disk = []

    def job(digest):
        def compute():
            computed[digest] += 1
            return {"text": digest}

        def run():
            on_disk.append(log.exists())
            return cache.get_or_compute("judge", digest, compute)["text"]
        return run

    digests = ["d0", "d0", "d1", "d1", "d2"]
    jobs = ((digest, job(digest)) for digest in digests)
    assert cache.serve("judge", jobs, max_workers=2) == (digests, 2)
    assert computed == Counter({"d0": 1, "d1": 1, "d2": 1})
    assert on_disk == [False] * 5
    fresh = ResponseCache(tmp_path / "cache")
    assert fresh.stored("judge") == {"d0", "d1", "d2"}
    assert all(fresh.get("judge", d) == {"text": d} for d in ("d0", "d1", "d2"))


def test_serve_appends_in_job_order_whatever_order_the_jobs_finish_in(tmp_path):
    """Later jobs finish first, yet the log holds the entries in job order,
    so two equal runs write equal logs."""
    digests = [f"d{i:02d}" for i in range(20)]

    def job(i, digest):
        def run():
            time.sleep((len(digests) - i) * 0.002)
            return cache.get_or_compute("judge", digest, lambda: {"text": digest})["text"]
        return run

    logs = []
    for name in ("first", "second"):
        cache = ResponseCache(tmp_path / name)
        jobs = ((d, job(i, d)) for i, d in enumerate(digests))
        assert cache.serve("judge", jobs, max_workers=4) == (digests, 0)
        assert block_digests(tmp_path / name / "judge.log") == [digests]
        logs.append((tmp_path / name / "judge.log").read_bytes())
    assert logs[0] == logs[1]


def test_serve_raises_a_failed_job_over_a_failed_write(tmp_path, monkeypatch, caplog):
    """A job raises while the entries of earlier jobs wait for serve's end,
    and that append fails: serve raises the job's error and logs the
    append failure."""
    def refuse(path, data):
        raise OSError(f"cannot append to {path}")

    cache = ResponseCache(tmp_path / "cache")

    def job(digest):
        return lambda: cache.get_or_compute("judge", digest, lambda: {"text": digest})

    def fail():
        raise ItemError("backend down")

    monkeypatch.setattr(cache_module, "_append", refuse)
    jobs = [("d0", job("d0")), ("d1", job("d1")), ("d2", fail)]
    with caplog.at_level("ERROR", logger="ontomatch.cache"):
        with pytest.raises(ItemError, match="backend down"):
            cache.serve("judge", iter(jobs), max_workers=2)
    assert any("cannot append" in r.getMessage() for r in caplog.records)
    monkeypatch.undo()
    assert ResponseCache(tmp_path / "cache").stored("judge") == set()


def test_serve_reraises_a_failed_job_after_shutting_the_pool_down(cache, monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shut_down = False
            pools.append(self)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            self.shut_down = True

    def fail():
        raise ItemError("backend down")

    monkeypatch.setattr("ontomatch.cache.ThreadPoolExecutor", RecordingPool)
    jobs = [("d0", _job(0)), ("d1", fail), ("d2", _job(2))]
    with pytest.raises(ItemError, match="backend down"):
        cache.serve("judge", iter(jobs), max_workers=2)
    assert len(pools) == 1 and pools[0].shut_down
