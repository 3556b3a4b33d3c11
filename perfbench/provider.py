"""Delegating provider: ``MockProvider`` answers plus a fixed network wait.

Each generate, classify and embed-batch call first sleeps for ``delay_s``.
``time.sleep`` releases the GIL, as a socket wait does, so the wait stands in
for the HTTP round trip that the pipeline's thread pools exist to hide: a
change that serialises provider calls shows as a regression on ``cold``.

The wrapper keeps both model ids of the inner provider, so prompt digests and
cache keys are those of a plain mock run. It counts calls and the characters
sent (message contents, embed texts). With a tracer it also records one span
per call.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

DELAY_S = 0.005


class DelayedProvider:
    def __init__(self, inner, delay_s: float = DELAY_S, tracer=None):
        self.inner = inner
        self.delay_s = delay_s
        self.tracer = tracer
        self.embed_model_id = inner.embed_model_id
        self.chat_model_id = inner.chat_model_id
        self.calls = 0
        self.embed_texts = 0
        self.prompt_chars = 0
        self.errors = 0
        self._lock = threading.Lock()

    def _call(self, kind: str, chars: int, fn, *args):
        with self._lock:
            self.calls += 1
            self.prompt_chars += chars
        span = self.tracer.begin(f"providers.{kind}") if self.tracer else None
        try:
            time.sleep(self.delay_s)
            return fn(*args)
        except Exception:
            with self._lock:
                self.errors += 1
            raise
        finally:
            if span is not None:
                self.tracer.end(span)

    def generate(self, messages, params) -> str:
        chars = sum(len(m.get("content", "")) for m in messages)
        return self._call("generate", chars, self.inner.generate, messages, params)

    def classify_first_token(self, messages):
        chars = sum(len(m.get("content", "")) for m in messages)
        return self._call("classify", chars, self.inner.classify_first_token, messages)

    def embed_batch(self, texts: Sequence[str]):
        with self._lock:
            self.embed_texts += len(texts)
        return self._call("embed", sum(len(t) for t in texts), self.inner.embed_batch, texts)
