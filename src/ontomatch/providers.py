"""Model providers: text embedding, chat completion, first-token classification.

Two implementations ship in-package:

* ``MockProvider`` -- pure, seeded functions of their inputs. Embeddings hash
  character trigrams into a fixed dimension; an optional alias table maps
  alias groups onto a shared canonical text before hashing so that fixture
  pairs become near-identical vectors. Chat behaviour is rule-based.
* ``HttpProvider`` -- a JSON-over-HTTP client for OpenAI-style endpoints
  (``/embeddings``, ``/chat/completions``) with bounded retries, jittered
  exponential backoff and one pooled connection per worker thread.

Messages are ``{"role": ..., "content": ...}`` dicts: exactly one leading
system message followed by user (and optionally assistant) turns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Protocol, Sequence, get_type_hints

import numpy as np

from .cache import DEFAULT_MAX_WORKERS
from .errors import CapabilityError, ConfigError, ItemError
from .model import check_record, normalize_string

logger = logging.getLogger(__name__)

__all__ = [
    "SamplingParams",
    "Provider",
    "MockProvider",
    "AliasTable",
    "HttpProvider",
    "HttpProviderConfig",
    "make_provider",
    "PromptFrame",
    "validate_messages",
]

Message = dict[str, str]

EMPTY_TEXT_PLACEHOLDER = "unknown concept"


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.7
    top_p: float = 0.9
    max_tokens: int = 256

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be > 0, got {self.max_tokens}")


def validate_messages(messages: Sequence[Message]) -> None:
    if not messages or messages[0].get("role") != "system":
        raise ValueError("prompt must start with exactly one system message")
    if sum(1 for m in messages if m.get("role") == "system") != 1:
        raise ValueError("prompt must contain exactly one system message")
    if not any(m.get("role") == "user" for m in messages):
        raise ValueError("prompt must contain at least one user message")


def _check_prompt(messages: Sequence[Message], limit: int, model: str) -> None:
    """Both providers' gate on a chat prompt: ``validate_messages``, then at
    most ``limit`` characters of content, or ``ItemError``."""
    validate_messages(messages)
    size = sum(len(m.get("content", "")) for m in messages)
    if size > limit:
        raise ItemError(f"prompt of {size} characters exceeds context limit {limit} "
                        f"for model {model}")


def _embed_texts(texts: Sequence[str]) -> list[str]:
    """Both providers' gate on an embed batch: a non-empty list, each blank
    text replaced by ``EMPTY_TEXT_PLACEHOLDER``."""
    if len(texts) == 0:
        raise ValueError("embed_batch requires a non-empty text list")
    return [t if t.strip() else EMPTY_TEXT_PLACEHOLDER for t in texts]


def json_escape(text: str) -> str:
    """``text`` as ``json.dumps(ensure_ascii=False)`` writes it, less the quotes."""
    return json.encoder.encode_basestring(text)[1:-1]


class PromptFrame:
    """The content address of a provider call, split around the last
    message's content. The address is the sha256 of ``json.dumps({"kind",
    "template", "model", "messages"}, ensure_ascii=False, sort_keys=True)``,
    the dict gaining ``"params": asdict(params)`` when ``params`` is given;
    ``digest(json_escape(text))`` is the address of ``messages`` with ``text``
    as that content. Escaping is per character, so escaped pieces can be joined."""

    _BODY = os.urandom(16).hex()  # stands in for the content; occurs nowhere else

    def __init__(self, kind: str, template_version: str, model: str, messages: Sequence[Message],
                 params: SamplingParams | None = None):
        *turns, last = messages
        key = {"kind": kind, "template": template_version, "model": model,
               "messages": [*turns, {**last, "content": self._BODY}]}
        if params is not None:
            key["params"] = asdict(params)
        payload = json.dumps(key, ensure_ascii=False, sort_keys=True)
        head, tail = payload.split(self._BODY)
        self._head, self._tail = hashlib.sha256(head.encode("utf-8")), tail.encode("utf-8")

    def digest(self, body: str) -> str:
        h = self._head.copy()
        h.update(body.encode("utf-8") + self._tail)
        return h.hexdigest()


class Provider(Protocol):
    """What a pipeline needs of a model backend. ``generate`` and
    ``classify_first_token`` are called from up to ``max_workers`` threads
    at once (see ``ResponseCache.serve``)."""

    embed_model_id: str
    chat_model_id: str

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]: ...

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str: ...

    # Token text -> log-probability at the first generated position; never empty.
    def classify_first_token(self, messages: Sequence[Message]) -> dict[str, float]: ...


class AliasTable:
    """Maps members of alias groups onto the group's canonical (first) member.

    Matching is case-insensitive on whitespace-collapsed text. A left-to-right
    scan replaces the longest alias that starts at each position, so
    overlapping aliases resolve deterministically. Members that collapse to
    the empty string are ignored. Each distinct text is canonicalized once
    per table.
    """

    def __init__(self, groups: Sequence[Sequence[str]] = ()):
        # A character trie; the key None ends an alias and holds its canonical.
        self._trie: dict = {}
        # text -> its canonical form; two threads may both fill one entry, with equal values
        self._canonical: dict[str, str] = {}
        for group in groups:
            for member in group:
                node = self._trie
                for char in normalize_string(member):
                    node = node.setdefault(char, {})
                if node is not self._trie:
                    node[None] = normalize_string(group[0])

    def canonicalize(self, text: str) -> str:
        canonical = self._canonical.get(text)
        if canonical is None:
            canonical = self._canonical[text] = self._rewrite(text)
        return canonical

    def _rewrite(self, text: str) -> str:
        collapsed = normalize_string(text)
        out: list[str] = []
        i = 0
        while i < len(collapsed):
            node, end, replacement = self._trie, i + 1, collapsed[i]
            for j in range(i, len(collapsed)):
                node = node.get(collapsed[j])
                if node is None:
                    break
                if None in node:
                    end, replacement = j + 1, node[None]
            out.append(replacement)
            i = end
        return "".join(out)


def _first_line_value(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


class MockProvider:
    """Deterministic stand-in for the real model backends.

    * embeddings: seeded trigram feature hashing + L2 normalization;
    * generate: a definition derived from the prompt's ``Concept:`` line
      (alias-canonicalized);
    * classify_first_token: YES/NO by equality of the two canonicalized
      ``Name:`` lines in the final user message.
    """

    def __init__(
        self,
        dimension: int = 64,
        seed: int = 0,
        alias_groups: Sequence[Sequence[str]] = (),
        context_chars: int = 65536,
    ):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self.alias = AliasTable(alias_groups)
        self.context_chars = context_chars
        # The alias groups shape vectors and answers, so both model ids name them.
        digest = hashlib.sha256(json.dumps(alias_groups).encode("utf-8")).hexdigest()[:12]
        tag = f"-a{digest}" if alias_groups else ""
        self.embed_model_id = f"mock-embed-d{dimension}-s{seed}{tag}"
        self.chat_model_id = f"mock-chat-s{seed}{tag}"
        self._key = seed.to_bytes(8, "little", signed=True)
        # token -> _hash_feature(token); two threads may both fill one entry, with equal values
        self._features: dict[str, tuple[int, float]] = {}

    # -- embeddings ---------------------------------------------------------

    def _hash_feature(self, token: str) -> tuple[int, float]:
        feature = self._features.get(token)
        if feature is None:
            digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            sign = 1.0 if (value >> 63) & 1 == 0 else -1.0
            feature = self._features[token] = (value % self.dimension, sign)
        return feature

    def _embed_one(self, text: str) -> np.ndarray:
        canonical = self.alias.canonicalize(text)
        if len(canonical) < 3:
            tokens = [canonical]
        else:
            tokens = [canonical[i : i + 3] for i in range(len(canonical) - 2)]
        # Sums of +-1.0 are exact, so a list accumulates them as numpy would.
        counts = [0.0] * self.dimension
        for token in tokens:
            bucket, sign = self._hash_feature(token)
            counts[bucket] += sign
        vec = np.array(counts, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # all features cancelled; fall back to a single unit component
            bucket, _ = self._hash_feature(canonical)
            vec[bucket] = 1.0
            norm = 1.0
        return vec / norm

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self._embed_one(t) for t in _embed_texts(texts)]

    # -- chat ---------------------------------------------------------------

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str:
        _check_prompt(messages, self.context_chars, self.chat_model_id)
        user = messages[-1]["content"]
        concept = _first_line_value(user, "Concept: ")
        if concept is None:
            concept = user.splitlines()[0] if user else EMPTY_TEXT_PLACEHOLDER
        canonical = self.alias.canonicalize(concept)
        return f"A biomedical concept referring to {canonical}."

    def classify_first_token(self, messages: Sequence[Message]) -> dict[str, float]:
        _check_prompt(messages, self.context_chars, self.chat_model_id)
        user = messages[-1]["content"]
        names = [
            line[len("Name: "):].strip()
            for line in user.splitlines()
            if line.startswith("Name: ")
        ]
        same = (
            len(names) == 2
            and self.alias.canonicalize(names[0]) == self.alias.canonicalize(names[1])
        )
        if same:
            return {"YES": -0.001, "NO": -7.0}
        return {"YES": -7.0, "NO": -0.001}


# -- HTTP -------------------------------------------------------------------

ENV_BASE_URL = "ONTOMATCH_BASE_URL"
ENV_API_KEY = "ONTOMATCH_API_KEY"
ENV_EMBED_MODEL = "ONTOMATCH_EMBED_MODEL"
ENV_CHAT_MODEL = "ONTOMATCH_CHAT_MODEL"


@dataclass
class HttpProviderConfig:
    base_url: str = "http://localhost:8000/v1"
    api_key: str = ""
    embed_model: str = "text-embedding-3-small"
    chat_model: str = "qwen2.5-7b-instruct-1m"
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    top_logprobs: int = 20
    embed_batch_size: int = 256
    context_chars: int = 131072

    def __post_init__(self):
        for name, low in (("max_attempts", 1), ("embed_batch_size", 1), ("top_logprobs", 1),
                          ("backoff_base", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def apply_env_overrides(self) -> "HttpProviderConfig":
        self.base_url = os.environ.get(ENV_BASE_URL, self.base_url)
        self.api_key = os.environ.get(ENV_API_KEY, self.api_key)
        self.embed_model = os.environ.get(ENV_EMBED_MODEL, self.embed_model)
        self.chat_model = os.environ.get(ENV_CHAT_MODEL, self.chat_model)
        return self


# The longest Retry-After a retry waits for; a longer one is not honoured.
RETRY_AFTER_MAX_S = 60.0


def full_jitter(step: float) -> float:
    """A retry's wait, drawn uniformly from [0, ``step``], so that workers
    refused at once do not retry in lockstep ("full jitter")."""
    return random.uniform(0.0, step)


def _retry_after(response) -> float | None:
    """``response``'s ``Retry-After`` when it is a number of seconds in
    (0, ``RETRY_AFTER_MAX_S``]; None for an HTTP-date or any other value."""
    try:
        seconds = float(response.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 < seconds <= RETRY_AFTER_MAX_S else None


class HttpProvider:
    """OpenAI-style JSON-over-HTTP backend.

    Retries transport errors and HTTP 429/5xx responses up to
    ``max_attempts`` times. Retry ``n`` waits ``jitter(backoff_base *
    2**(n-1))``, a full-jitter draw by default; after a 429 or 503 whose
    ``Retry-After`` is a number of seconds in (0, 60], it waits that long
    instead. Concurrency is the caller's: the pipeline makes at most
    ``max_workers`` calls at once (see ``ResponseCache.serve``), so the
    session this provider builds keeps up to ``max_workers`` connections per
    host. ``session``, ``sleep`` and ``jitter`` are injectable for tests; an
    injected session is used as given.
    """

    def __init__(
        self,
        config: HttpProviderConfig | None = None,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = full_jitter,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ):
        self.config = config or HttpProviderConfig().apply_env_overrides()
        if session is None:
            import requests

            session = requests.Session()
            # requests' default pool keeps 10 connections per host; a wider
            # pool of threads would discard and reopen the rest every batch.
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=max_workers)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session
        self._sleep = sleep
        self._jitter = jitter
        self.embed_model_id = self.config.embed_model
        self.chat_model_id = self.config.chat_model

    def close(self) -> None:
        """Close the session and its pooled connections."""
        self._session.close()

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_attempts):
            if attempt > 0:
                step = self.config.backoff_base * (2 ** (attempt - 1))
                self._sleep(retry_after if retry_after is not None else self._jitter(step))
            retry_after = None  # the wait a refusal of this attempt asks for, if honoured
            try:
                response = self._session.post(
                    url, json=payload, headers=headers, timeout=self.config.timeout
                )
            except Exception as e:  # transport error: retryable
                last_error = e
                logger.warning("provider transport error (attempt %d): %s", attempt + 1, e)
                continue
            status = getattr(response, "status_code", 0)
            if status == 429 or 500 <= status < 600:
                if status in (429, 503):
                    retry_after = _retry_after(response)
                last_error = ItemError(f"HTTP {status} from {url}")
                logger.warning("provider HTTP %s (attempt %d)", status, attempt + 1)
                continue
            if status >= 400:
                raise ItemError(f"HTTP {status} from {url}: {response.text[:500]}")
            try:
                body = response.json()
            except ValueError as e:  # includes json.JSONDecodeError
                raise ItemError(
                    f"HTTP {status} from {url} has a non-JSON body: {response.text[:500]}"
                ) from e
            if not isinstance(body, dict):
                raise ItemError(f"HTTP {status} from {url}: expected a JSON object")
            return body
        raise ItemError(
            f"provider call to {url} failed after {self.config.max_attempts} attempts"
        ) from last_error

    def _chat(self, messages: Sequence[Message], **fields) -> dict:
        """POST ``messages`` to ``/chat/completions`` with the chat model and
        ``fields``, once they are checked for shape and size."""
        _check_prompt(messages, self.config.context_chars, self.chat_model_id)
        return self._post("/chat/completions",
                          {"model": self.config.chat_model, "messages": list(messages), **fields})

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        cleaned = _embed_texts(texts)
        out: list[np.ndarray] = []
        for start in range(0, len(cleaned), self.config.embed_batch_size):
            chunk = cleaned[start : start + self.config.embed_batch_size]
            body = self._post(
                "/embeddings", {"input": list(chunk), "model": self.config.embed_model}
            )
            data = body.get("data")
            if not isinstance(data, list) or len(data) != len(chunk):
                raise ItemError(
                    f"embedding response contains {len(data) if isinstance(data, list) else 'no'}"
                    f" rows for {len(chunk)} inputs"
                )
            for row in data:
                try:
                    vec = np.asarray(row["embedding"], dtype=np.float64)
                except (KeyError, TypeError, ValueError) as e:
                    raise ItemError(f"malformed embedding row: {e!r}") from e
                if vec.ndim != 1 or not vec.size or (out and vec.size != out[0].size):
                    raise ItemError(
                        f"embedding response row of shape {vec.shape} is not a vector "
                        f"of the batch's length"
                    )
                if not np.all(np.isfinite(vec)):
                    raise ItemError("embedding response contains a non-finite vector")
                out.append(vec)
        return out

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str:
        body = self._chat(messages, temperature=params.temperature, top_p=params.top_p,
                          max_tokens=params.max_tokens)
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise ItemError(f"malformed completion response: {e}") from e
        if text is not None and not isinstance(text, str):
            raise ItemError(f"malformed completion response: content is a {type(text).__name__}")
        if text is None or not text.strip():
            raise ItemError(f"model {self.chat_model_id} returned an empty completion")
        return text.rstrip()

    def classify_first_token(self, messages: Sequence[Message]) -> dict[str, float]:
        body = self._chat(messages, temperature=0.0, top_p=1.0, max_tokens=1, logprobs=True,
                          top_logprobs=self.config.top_logprobs)
        try:
            content = body["choices"][0]["logprobs"]["content"]
            top = content[0]["top_logprobs"]
        except (KeyError, IndexError, TypeError) as e:
            raise CapabilityError(
                f"backend for model {self.chat_model_id} does not expose token "
                f"log-probabilities"
            ) from e
        if not isinstance(top, list):
            raise ItemError(f"malformed top_logprobs {top!r}")
        entries: dict[str, float] = {}
        for item in top:
            try:
                token, logprob = item["token"], float(item["logprob"])
            except (KeyError, TypeError, ValueError) as e:
                raise ItemError(f"malformed top_logprobs entry {item!r}") from e
            if not isinstance(token, str) or np.isnan(logprob) or logprob == np.inf:
                raise ItemError(f"malformed top_logprobs entry {item!r}")
            if token not in entries or logprob > entries[token]:
                entries[token] = logprob
        if not entries:
            raise CapabilityError(
                f"backend for model {self.chat_model_id} returned an empty "
                f"log-probability list"
            )
        return entries


# -- provider specs ----------------------------------------------------------

# The kinds a config's ``provider`` spec may name (a spec without one is mock),
# and the mock's keys; the http provider's are HttpProviderConfig's fields.
PROVIDER_KINDS = ("mock", "http")
DEFAULT_PROVIDER_KIND = "mock"
_MOCK_HINTS = {"dimension": int, "seed": int, "alias_groups_file": str}


def make_provider(config) -> Provider:
    """The provider ``config.provider`` specifies; a bad spec is a ``ConfigError``."""
    spec = dict(config.provider)
    kind = spec.pop("kind", DEFAULT_PROVIDER_KIND)
    if kind not in PROVIDER_KINDS:
        raise ConfigError(f"unknown provider kind {kind!r}")
    check_record(spec, get_type_hints(HttpProviderConfig) if kind == "http" else _MOCK_HINTS,
                 f"{kind} provider")
    try:
        if kind == "http":
            return HttpProvider(HttpProviderConfig(**spec).apply_env_overrides(),
                                max_workers=config.max_workers)
        if alias_file := spec.pop("alias_groups_file", None):
            with open(alias_file, "r", encoding="utf-8") as fp:
                groups = json.load(fp)
            check_record({alias_file: groups}, {alias_file: list[list[str]]},
                         "mock provider alias_groups_file")
            spec["alias_groups"] = groups
        return MockProvider(**spec)
    except (OSError, ValueError) as e:  # an unreadable alias file, or a value out of range
        raise ConfigError(f"{kind} provider: {e}") from e
