"""Model providers: text embedding, chat completion, first-token classification.

Two implementations ship in-package:

* ``MockProvider`` -- pure, seeded functions of their inputs. Embeddings hash
  character trigrams into a fixed dimension; an optional alias table maps
  alias groups onto a shared canonical text before hashing so that fixture
  pairs become near-identical vectors. Chat behaviour is rule-based with an
  optional canned-response map keyed by prompt digest.
* ``HttpProvider`` -- a JSON-over-HTTP client for OpenAI-style endpoints
  (``/embeddings``, ``/chat/completions``) with bounded retries, exponential
  backoff, and an in-flight request cap.

Messages are ``{"role": ..., "content": ...}`` dicts: exactly one leading
system message followed by user (and optionally assistant) turns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from collections import deque
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    EmptyCompletionError,
    PromptSizeError,
    ProviderError,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SamplingParams",
    "TokenDistribution",
    "Provider",
    "MockProvider",
    "AliasTable",
    "HttpProvider",
    "HttpProviderConfig",
    "Prompt",
    "ProviderPool",
    "prompt_digest",
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


@dataclass(frozen=True)
class TokenDistribution:
    """Token text -> log-probability for the first generated position."""

    entries: dict[str, float]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("TokenDistribution requires at least one entry")


def validate_messages(messages: Sequence[Message]) -> None:
    if not messages or messages[0].get("role") != "system":
        raise ValueError("prompt must start with exactly one system message")
    if sum(1 for m in messages if m.get("role") == "system") != 1:
        raise ValueError("prompt must contain exactly one system message")
    if not any(m.get("role") == "user" for m in messages):
        raise ValueError("prompt must contain at least one user message")


def prompt_digest(kind: str, template_version: str, model: str, messages: Sequence[Message]) -> str:
    """Content address of a provider call: kind, template version, model, prompt."""
    payload = json.dumps(
        {"kind": kind, "template": template_version, "model": model, "messages": list(messages)},
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Prompt(NamedTuple):
    """A rendered prompt and its ``prompt_digest``, which keys its cache entry."""

    messages: list[Message]
    digest: str


class ProviderPool:
    """Threads that wait on provider calls, made on the first ``submit``.

    A caller serves cached answers on its own thread and submits only the
    calls that reach the provider, so a fully cached run makes no threads.
    At most ``QUEUE_PER_WORKER * max_workers`` calls are queued or running:
    past that, ``submit`` first waits for the oldest, so rendered prompts and
    futures do not pile up. ``results`` returns every result in submission
    order. Both re-raise the exception of a failed call when they reach it.
    """

    QUEUE_PER_WORKER = 4

    def __init__(self, executor: Callable[..., Executor], max_workers: int):
        self._executor = executor
        self._max_workers = max_workers
        self._pool: Executor | None = None
        self._pending: deque[Future] = deque()
        self._done: list = []

    def submit(self, fn: Callable, /, *args, **kwargs) -> None:
        if self._pool is None:
            self._pool = self._executor(max_workers=self._max_workers)
        if len(self._pending) >= self.QUEUE_PER_WORKER * self._max_workers:
            self._done.append(self._pending.popleft().result())
        self._pending.append(self._pool.submit(fn, *args, **kwargs))

    def results(self) -> list:
        while self._pending:
            self._done.append(self._pending.popleft().result())
        return self._done

    def __enter__(self) -> "ProviderPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


class Provider(Protocol):
    embed_model_id: str
    chat_model_id: str

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]: ...

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str: ...

    def classify_first_token(self, messages: Sequence[Message]) -> TokenDistribution: ...


class AliasTable:
    """Maps members of alias groups onto the group's canonical (first) member.

    Matching is case-insensitive on whitespace-collapsed text and replaces
    occurrences longest-first, so overlapping aliases resolve deterministically.
    """

    def __init__(self, groups: Sequence[Sequence[str]] = ()):
        self._canon: dict[str, str] = {}
        for group in groups:
            if not group:
                continue
            canonical = _collapse(group[0])
            for member in group:
                self._canon[_collapse(member)] = canonical
        if self._canon:
            alternation = "|".join(
                re.escape(k) for k in sorted(self._canon, key=len, reverse=True)
            )
            self._pattern: re.Pattern | None = re.compile(alternation)
        else:
            self._pattern = None

    def canonicalize(self, text: str) -> str:
        collapsed = _collapse(text)
        if self._pattern is None:
            return collapsed
        return self._pattern.sub(lambda m: self._canon[m.group(0)], collapsed)


def _collapse(s: str) -> str:
    return " ".join(s.split()).casefold()


def _first_line_value(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


class MockProvider:
    """Deterministic stand-in for the real model backends.

    * embeddings: seeded trigram feature hashing + L2 normalization;
    * generate: canned map lookup by prompt digest, else a definition derived
      from the prompt's ``Concept:`` line (alias-canonicalized);
    * classify_first_token: canned map lookup, else YES/NO by equality of the
      two canonicalized ``Name:`` lines in the final user message.
    """

    def __init__(
        self,
        dimension: int = 64,
        seed: int = 0,
        alias_groups: Sequence[Sequence[str]] = (),
        canned_generate: dict[str, str] | None = None,
        canned_distributions: dict[str, dict[str, float]] | None = None,
        context_chars: int = 65536,
    ):
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        self.dimension = dimension
        self.seed = seed
        self.alias = AliasTable(alias_groups)
        self.canned_generate = canned_generate or {}
        self.canned_distributions = canned_distributions or {}
        self.context_chars = context_chars
        self.embed_model_id = f"mock-embed-d{dimension}-s{seed}"
        self.chat_model_id = f"mock-chat-s{seed}"
        self._key = seed.to_bytes(8, "little", signed=True)

    # -- embeddings ---------------------------------------------------------

    def _hash_feature(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        bucket = value % self.dimension
        sign = 1.0 if (value >> 63) & 1 == 0 else -1.0
        return bucket, sign

    def _embed_one(self, text: str) -> np.ndarray:
        if not text.strip():
            text = EMPTY_TEXT_PLACEHOLDER
        canonical = self.alias.canonicalize(text)
        vec = np.zeros(self.dimension, dtype=np.float64)
        if len(canonical) < 3:
            tokens = [canonical]
        else:
            tokens = [canonical[i : i + 3] for i in range(len(canonical) - 2)]
        for token in tokens:
            bucket, sign = self._hash_feature(token)
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # all features cancelled; fall back to a single unit component
            bucket, _ = self._hash_feature(canonical)
            vec[bucket] = 1.0
            norm = 1.0
        return vec / norm

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        if len(texts) == 0:
            raise ValueError("embed_batch requires a non-empty text list")
        return [self._embed_one(t) for t in texts]

    # -- chat ---------------------------------------------------------------

    def _check_size(self, messages: Sequence[Message]) -> None:
        total = sum(len(m.get("content", "")) for m in messages)
        if total > self.context_chars:
            raise PromptSizeError(
                f"prompt of {total} characters exceeds mock context limit "
                f"{self.context_chars}"
            )

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str:
        validate_messages(messages)
        self._check_size(messages)
        digest = prompt_digest("generate", "-", self.chat_model_id, messages)
        if digest in self.canned_generate:
            return self.canned_generate[digest].rstrip()
        user = messages[-1]["content"]
        concept = _first_line_value(user, "Concept: ")
        if concept is None:
            concept = user.splitlines()[0] if user else EMPTY_TEXT_PLACEHOLDER
        canonical = self.alias.canonicalize(concept)
        return f"A biomedical concept referring to {canonical}."

    def classify_first_token(self, messages: Sequence[Message]) -> TokenDistribution:
        validate_messages(messages)
        self._check_size(messages)
        digest = prompt_digest("judge", "-", self.chat_model_id, messages)
        if digest in self.canned_distributions:
            return TokenDistribution(dict(self.canned_distributions[digest]))
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
            return TokenDistribution({"YES": -0.001, "NO": -7.0})
        return TokenDistribution({"YES": -7.0, "NO": -0.001})


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
    max_in_flight: int = 8
    top_logprobs: int = 20
    embed_batch_size: int = 256
    context_chars: int = 131072

    def apply_env_overrides(self) -> "HttpProviderConfig":
        self.base_url = os.environ.get(ENV_BASE_URL, self.base_url)
        self.api_key = os.environ.get(ENV_API_KEY, self.api_key)
        self.embed_model = os.environ.get(ENV_EMBED_MODEL, self.embed_model)
        self.chat_model = os.environ.get(ENV_CHAT_MODEL, self.chat_model)
        return self


class HttpProvider:
    """OpenAI-style JSON-over-HTTP backend.

    Retries transport errors and HTTP 429/5xx responses up to
    ``max_attempts`` times with exponential backoff starting at
    ``backoff_base`` seconds. At most ``max_in_flight`` requests run
    concurrently. ``session`` and ``sleep`` are injectable for tests.
    """

    def __init__(
        self,
        config: HttpProviderConfig | None = None,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config or HttpProviderConfig().apply_env_overrides()
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._sleep = sleep
        self._gate = threading.Semaphore(self.config.max_in_flight)
        self.embed_model_id = self.config.embed_model
        self.chat_model_id = self.config.chat_model

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_attempts):
            if attempt > 0:
                self._sleep(self.config.backoff_base * (2 ** (attempt - 1)))
            try:
                with self._gate:
                    response = self._session.post(
                        url, json=payload, headers=headers, timeout=self.config.timeout
                    )
            except Exception as e:  # transport error: retryable
                last_error = e
                logger.warning("provider transport error (attempt %d): %s", attempt + 1, e)
                continue
            status = getattr(response, "status_code", 0)
            if status == 429 or 500 <= status < 600:
                last_error = ProviderError(f"HTTP {status} from {url}")
                logger.warning("provider HTTP %s (attempt %d)", status, attempt + 1)
                continue
            if status >= 400:
                raise ProviderError(f"HTTP {status} from {url}: {response.text[:500]}")
            try:
                body = response.json()
            except ValueError as e:  # includes json.JSONDecodeError
                raise ProviderError(
                    f"HTTP {status} from {url} has a non-JSON body: {response.text[:500]}"
                ) from e
            if not isinstance(body, dict):
                raise ProviderError(f"HTTP {status} from {url}: expected a JSON object")
            return body
        raise ProviderError(
            f"provider call to {url} failed after {self.config.max_attempts} attempts"
        ) from last_error

    def _check_size(self, texts_len: int) -> None:
        if texts_len > self.config.context_chars:
            raise PromptSizeError(
                f"prompt of {texts_len} characters exceeds context limit "
                f"{self.config.context_chars} for model {self.chat_model_id}"
            )

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        if len(texts) == 0:
            raise ValueError("embed_batch requires a non-empty text list")
        cleaned = [t if t.strip() else EMPTY_TEXT_PLACEHOLDER for t in texts]
        out: list[np.ndarray] = []
        for start in range(0, len(cleaned), self.config.embed_batch_size):
            chunk = cleaned[start : start + self.config.embed_batch_size]
            body = self._post(
                "/embeddings", {"input": list(chunk), "model": self.config.embed_model}
            )
            data = body.get("data")
            if not isinstance(data, list) or len(data) != len(chunk):
                raise ProviderError(
                    f"embedding response contains {len(data) if isinstance(data, list) else 'no'}"
                    f" rows for {len(chunk)} inputs"
                )
            for row in data:
                vec = np.asarray(row["embedding"], dtype=np.float64)
                if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                    raise ProviderError("embedding response contains a non-finite vector")
                out.append(vec)
        return out

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str:
        validate_messages(messages)
        self._check_size(sum(len(m.get("content", "")) for m in messages))
        body = self._post(
            "/chat/completions",
            {
                "model": self.config.chat_model,
                "messages": list(messages),
                "temperature": params.temperature,
                "top_p": params.top_p,
                "max_tokens": params.max_tokens,
            },
        )
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise ProviderError(f"malformed completion response: {e}") from e
        if text is None or not text.strip():
            raise EmptyCompletionError(
                f"model {self.chat_model_id} returned an empty completion"
            )
        return text.rstrip()

    def classify_first_token(self, messages: Sequence[Message]) -> TokenDistribution:
        validate_messages(messages)
        self._check_size(sum(len(m.get("content", "")) for m in messages))
        body = self._post(
            "/chat/completions",
            {
                "model": self.config.chat_model,
                "messages": list(messages),
                "temperature": 0.0,
                "top_p": 1.0,
                "max_tokens": 1,
                "logprobs": True,
                "top_logprobs": self.config.top_logprobs,
            },
        )
        try:
            content = body["choices"][0]["logprobs"]["content"]
            top = content[0]["top_logprobs"]
        except (KeyError, IndexError, TypeError) as e:
            raise CapabilityError(
                f"backend for model {self.chat_model_id} does not expose token "
                f"log-probabilities"
            ) from e
        entries: dict[str, float] = {}
        for item in top:
            token = item["token"]
            logprob = float(item["logprob"])
            if token not in entries or logprob > entries[token]:
                entries[token] = logprob
        if not entries:
            raise CapabilityError(
                f"backend for model {self.chat_model_id} returned an empty "
                f"log-probability list"
            )
        return TokenDistribution(entries)
