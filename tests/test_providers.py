"""Providers: deterministic mock backend and the JSON-over-HTTP client."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ontomatch.errors import (
    CapabilityError,
    EmptyCompletionError,
    PromptSizeError,
    ProviderError,
)
from ontomatch.providers import (
    EMPTY_TEXT_PLACEHOLDER,
    AliasTable,
    HttpProvider,
    HttpProviderConfig,
    MockProvider,
    ProviderPool,
    SamplingParams,
    TokenDistribution,
    prompt_digest,
    validate_messages,
)

from oracles import cosine

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


def test_sampling_params_validation():
    SamplingParams(temperature=0.0, top_p=1.0, max_tokens=1)
    with pytest.raises(ValueError):
        SamplingParams(temperature=-0.1)
    with pytest.raises(ValueError):
        SamplingParams(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingParams(max_tokens=0)


def test_token_distribution_requires_entries():
    with pytest.raises(ValueError):
        TokenDistribution({})


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


# -- mock embeddings ----------------------------------------------------------


def test_mock_embeddings_pure_across_instances():
    a = MockProvider(dimension=64, seed=0).embed_batch(["heart", "kidney"])
    b = MockProvider(dimension=64, seed=0).embed_batch(["heart", "kidney"])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


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


def test_mock_provider_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        MockProvider(dimension=1)


def test_mock_model_ids_reflect_parameters():
    provider = MockProvider(dimension=32, seed=5)
    assert provider.embed_model_id == "mock-embed-d32-s5"
    assert provider.chat_model_id == "mock-chat-s5"


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


def test_mock_generate_canned_response_by_digest():
    provider = MockProvider()
    messages = chat("sys", "Concept: Heart")
    digest = prompt_digest("generate", "-", provider.chat_model_id, messages)
    provider.canned_generate[digest] = "Canned definition.\n"
    assert provider.generate(messages, SamplingParams()) == "Canned definition."
    other = chat("sys", "Concept: Kidney")
    assert provider.generate(other, SamplingParams()).startswith("A biomedical")


def test_mock_judge_yes_when_canonical_names_match():
    provider = MockProvider(alias_groups=ALIASES)
    dist = provider.classify_first_token(
        judge_messages("abducens nerve", "Nervus Abducens")
    )
    assert dist.entries == {"YES": -0.001, "NO": -7.0}


def test_mock_judge_no_when_names_differ():
    provider = MockProvider()
    dist = provider.classify_first_token(judge_messages("left kidney", "right kidney"))
    assert dist.entries == {"YES": -7.0, "NO": -0.001}


def test_mock_judge_canned_distribution_by_digest():
    provider = MockProvider()
    messages = judge_messages("a", "b")
    digest = prompt_digest("judge", "-", provider.chat_model_id, messages)
    provider.canned_distributions[digest] = {"YES": -0.5, "NO": -1.5}
    assert provider.classify_first_token(messages).entries == {"YES": -0.5, "NO": -1.5}


def test_mock_prompt_size_limit():
    provider = MockProvider(context_chars=50)
    with pytest.raises(PromptSizeError):
        provider.generate(chat("sys", "x" * 100), SamplingParams())
    with pytest.raises(PromptSizeError):
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
    with pytest.raises(ProviderError, match="3 attempts"):
        provider.embed_batch(["heart"])
    assert sleeps == [1.0, 2.0]


def test_http_client_errors_fail_immediately():
    provider, session, sleeps = http_provider([
        FakeResponse(status_code=400, text="bad request"),
    ])
    with pytest.raises(ProviderError, match="HTTP 400"):
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


def test_http_embed_replaces_empty_texts():
    provider, session, _ = http_provider([embed_response([[1.0, 0.0], [0.0, 1.0]])])
    provider.embed_batch(["", "ok"])
    assert session.calls[0]["json"]["input"] == [EMPTY_TEXT_PLACEHOLDER, "ok"]


def test_http_embed_rejects_row_count_mismatch():
    provider, _, _ = http_provider([embed_response([[1.0, 0.0]])])
    with pytest.raises(ProviderError, match="rows"):
        provider.embed_batch(["a", "b"])


def test_http_embed_rejects_non_finite_vectors():
    provider, _, _ = http_provider([embed_response([[float("nan"), 0.0]])])
    with pytest.raises(ProviderError, match="non-finite"):
        provider.embed_batch(["a"])


class NonJsonResponse(FakeResponse):
    def json(self):
        return json.loads(self.text)


@pytest.mark.parametrize("text", ["<html>gateway page</html>", "[1, 2]"])
def test_http_success_without_a_json_object_raises_provider_error(text):
    provider, session, sleeps = http_provider([NonJsonResponse(text=text)])
    with pytest.raises(ProviderError, match="HTTP 200"):
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
    with pytest.raises(EmptyCompletionError):
        provider.generate(chat("sys", "user"), SamplingParams())


def test_http_generate_malformed_body_raises():
    provider, _, _ = http_provider([FakeResponse(payload={"choices": []})])
    with pytest.raises(ProviderError, match="malformed"):
        provider.generate(chat("sys", "user"), SamplingParams())


def test_http_classify_keeps_max_logprob_per_token():
    provider, session, _ = http_provider([logprob_response([
        {"token": "YES", "logprob": -0.01},
        {"token": "NO", "logprob": -4.6},
        {"token": ".", "logprob": -9.2},
        {"token": "YES", "logprob": -5.0},
    ])])
    dist = provider.classify_first_token(judge_messages("a", "b"))
    assert dist.entries == {"YES": -0.01, "NO": -4.6, ".": -9.2}
    sent = session.calls[0]["json"]
    assert sent["max_tokens"] == 1
    assert sent["temperature"] == 0.0
    assert sent["logprobs"] is True
    assert sent["top_logprobs"] == 20


def test_http_classify_without_logprobs_is_a_capability_error():
    provider, _, _ = http_provider([chat_response("YES")])
    with pytest.raises(CapabilityError):
        provider.classify_first_token(judge_messages("a", "b"))


def test_http_prompt_size_limit():
    provider, _, _ = http_provider([], context_chars=10)
    with pytest.raises(PromptSizeError):
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


# -- ProviderPool -----------------------------------------------------------------


def test_provider_pool_bounds_calls_in_flight_and_keeps_order():
    release = threading.Event()
    submitted = []

    def call(i):
        release.wait(timeout=30)
        return i

    def submit_all(pool):
        for i in range(20):
            pool.submit(call, i)
            submitted.append(i)

    with ProviderPool(ThreadPoolExecutor, max_workers=2) as pool:
        producer = threading.Thread(target=submit_all, args=(pool,))
        producer.start()
        producer.join(timeout=0.5)
        # Two running plus six queued; the ninth submit waits for the oldest.
        assert submitted == list(range(2 * ProviderPool.QUEUE_PER_WORKER))
        release.set()
        producer.join(timeout=30)
        assert not producer.is_alive()
        assert pool.results() == list(range(20))


def test_provider_pool_makes_no_threads_without_a_submit():
    def refuse(**kwargs):
        raise AssertionError("a thread pool was made")

    with ProviderPool(refuse, max_workers=8) as pool:
        assert pool.results() == []
