"""Model providers: text embedding, chat completion, first-token classification.

Two implementations ship in-package:

* ``MockProvider`` -- pure, seeded functions of their inputs. Embeddings hash
  character trigrams into a fixed dimension; an optional alias table maps
  alias groups onto a shared canonical text before hashing so that fixture
  pairs become near-identical vectors. Chat behaviour is rule-based.
* ``HttpProvider`` -- a JSON-over-HTTP client for OpenAI-style endpoints
  (``/embeddings``, ``/chat/completions``) with bounded retries and
  exponential backoff.

Messages are ``{"role": ..., "content": ...}`` dicts: exactly one leading
system message followed by user (and optionally assistant) turns.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .cache import ResponseCache
from .errors import CapabilityError, ProviderError
from .model import normalize_string

logger = logging.getLogger(__name__)

__all__ = [
    "SamplingParams",
    "Provider",
    "MockProvider",
    "AliasTable",
    "HttpProvider",
    "HttpProviderConfig",
    "Prompt",
    "prompt_digest",
    "serve",
    "validate_messages",
]

Message = dict[str, str]
T = TypeVar("T")

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


def json_escape(text: str) -> str:
    """``text`` as ``json.dumps(ensure_ascii=False)`` writes it, less the quotes."""
    return json.encoder.encode_basestring(text)[1:-1]


class PromptFrame:
    """``prompt_digest``'s JSON split around the last message's content:
    ``digest(json_escape(text))`` keys ``messages`` with ``text`` as that
    content. Escaping is per character, so escaped pieces can be joined."""

    _BODY = os.urandom(16).hex()  # stands in for the content; occurs nowhere else

    def __init__(self, kind: str, template_version: str, model: str, messages: Sequence[Message]):
        *turns, last = messages
        payload = json.dumps({"kind": kind, "template": template_version, "model": model,
                              "messages": [*turns, {**last, "content": self._BODY}]},
                             ensure_ascii=False, sort_keys=True)
        head, tail = payload.split(self._BODY)
        self._head, self._tail = hashlib.sha256(head.encode("utf-8")), tail.encode("utf-8")

    def digest(self, body: str) -> str:
        h = self._head.copy()
        h.update(body.encode("utf-8") + self._tail)
        return h.hexdigest()


def prompt_digest(kind: str, template_version: str, model: str, messages: Sequence[Message]) -> str:
    """Content address of a provider call: the sha256 of ``json.dumps({"kind",
    "template", "model", "messages"}, ensure_ascii=False, sort_keys=True)``."""
    return PromptFrame(kind, template_version, model, messages).digest(
        json_escape(messages[-1]["content"]))


class Prompt(NamedTuple):
    """A rendered prompt and its ``prompt_digest``, which keys its cache entry.
    ``judge_prompt``, ``judge_candidates`` and ``definition_prompt`` build them."""

    messages: list[Message]
    digest: str


QUEUE_PER_WORKER = 4


def serve(cache: ResponseCache, kind: str, jobs: Iterable[tuple[str, Callable[[], T]]],
          max_workers: int) -> tuple[list[T], int]:
    """Run each ``(digest, job)`` of ``jobs``; returns the results in job
    order and the number of jobs served from the cache.

    A job whose ``kind``/``digest`` entry the cache held when the batch
    started, by one ``cache.stored(kind)`` listing, runs on the calling
    thread. The others wait on the provider, so they go to a pool of
    ``max_workers`` threads, made at the first such job: a fully cached run
    makes no threads. ``jobs`` is read lazily, and at most
    ``QUEUE_PER_WORKER * max_workers`` jobs are queued or running, so
    rendered prompts do not pile up. A digest is computed at most once per
    batch: a job whose digest matches a queued or running job waits for it,
    then runs on the calling thread and reads the entry that job put. A
    duplicate of a job that has left the queue, like any entry written after
    the listing, is read by its own cache lookup in the pool. A failed job's
    exception is re-raised once its result is reached, after the pool has
    finished the jobs it holds.

    The batch is one ``cache.batch()``, entered before the pool so that it
    closes after the pool has shut down: a job's ``put`` returns before its
    entry's file exists, and a later job of the batch reads the entry from
    memory. ``serve`` returns only when every entry is written. Once a
    write has failed no job is handed to the pool: the jobs it holds
    finish, and the write failure raises here unless a job already raised.
    """
    results: list = []
    # digest -> (index in results, future) of each queued or running job, oldest first
    queued: dict[str, tuple[int, Future]] = {}
    served = 0
    with ExitStack() as stack:
        stack.enter_context(cache.batch())
        pool = None
        stored = cache.stored(kind)
        for digest, job in jobs:
            if digest in queued:
                queued[digest][1].result()
            elif digest not in stored:
                if pool is None:
                    pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_workers))
                if len(queued) >= QUEUE_PER_WORKER * max_workers:
                    index, future = queued.pop(next(iter(queued)))
                    results[index] = future.result()
                if cache.write_failed:  # raised when the batch ends
                    break
                queued[digest] = (len(results), pool.submit(job))
                results.append(None)
                continue
            results.append(job())
            served += 1
        for index, future in queued.values():
            results[index] = future.result()
    return results, served


class Provider(Protocol):
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
    the empty string are ignored.
    """

    def __init__(self, groups: Sequence[Sequence[str]] = ()):
        # A character trie; the key None ends an alias and holds its canonical.
        self._trie: dict = {}
        for group in groups:
            for member in group:
                node = self._trie
                for char in normalize_string(member):
                    node = node.setdefault(char, {})
                if node is not self._trie:
                    node[None] = normalize_string(group[0])

    def canonicalize(self, text: str) -> str:
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
            raise ProviderError(
                f"prompt of {total} characters exceeds mock context limit "
                f"{self.context_chars}"
            )

    def generate(self, messages: Sequence[Message], params: SamplingParams) -> str:
        validate_messages(messages)
        self._check_size(messages)
        user = messages[-1]["content"]
        concept = _first_line_value(user, "Concept: ")
        if concept is None:
            concept = user.splitlines()[0] if user else EMPTY_TEXT_PLACEHOLDER
        canonical = self.alias.canonicalize(concept)
        return f"A biomedical concept referring to {canonical}."

    def classify_first_token(self, messages: Sequence[Message]) -> dict[str, float]:
        validate_messages(messages)
        self._check_size(messages)
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


class HttpProvider:
    """OpenAI-style JSON-over-HTTP backend.

    Retries transport errors and HTTP 429/5xx responses up to
    ``max_attempts`` times with exponential backoff starting at
    ``backoff_base`` seconds. Concurrency is the caller's: the pipeline
    makes at most ``max_workers`` calls at once (see ``serve``).
    ``session`` and ``sleep`` are injectable for tests.
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
            raise ProviderError(
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
                try:
                    vec = np.asarray(row["embedding"], dtype=np.float64)
                except (KeyError, TypeError, ValueError) as e:
                    raise ProviderError(f"malformed embedding row: {e!r}") from e
                if vec.ndim != 1 or not vec.size or (out and vec.size != out[0].size):
                    raise ProviderError(
                        f"embedding response row of shape {vec.shape} is not a vector "
                        f"of the batch's length"
                    )
                if not np.all(np.isfinite(vec)):
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
        if text is not None and not isinstance(text, str):
            raise ProviderError(
                f"malformed completion response: content is a {type(text).__name__}"
            )
        if text is None or not text.strip():
            raise ProviderError(
                f"model {self.chat_model_id} returned an empty completion"
            )
        return text.rstrip()

    def classify_first_token(self, messages: Sequence[Message]) -> dict[str, float]:
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
        if not isinstance(top, list):
            raise ProviderError(f"malformed top_logprobs {top!r}")
        entries: dict[str, float] = {}
        for item in top:
            try:
                token, logprob = item["token"], float(item["logprob"])
            except (KeyError, TypeError, ValueError) as e:
                raise ProviderError(f"malformed top_logprobs entry {item!r}") from e
            if not isinstance(token, str) or np.isnan(logprob):
                raise ProviderError(f"malformed top_logprobs entry {item!r}")
            if token not in entries or logprob > entries[token]:
                entries[token] = logprob
        if not entries:
            raise CapabilityError(
                f"backend for model {self.chat_model_id} returned an empty "
                f"log-probability list"
            )
        return entries
