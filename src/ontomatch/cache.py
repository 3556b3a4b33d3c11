"""Content-addressed response cache.

One JSON file per entry under ``<root>/<kind>/<digest>.json``. Writes go to a
temporary file in the same directory and are renamed into place, so readers
never observe a partial entry. ``get_or_compute`` deduplicates concurrent
computation of the same digest (single-flight) within a process; its
per-digest lock lives only while some caller holds or waits on it.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)

__all__ = ["ResponseCache"]


class ResponseCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        # key -> [lock, number of callers holding or waiting on it]
        self._locks: dict[str, list] = {}
        self._locks_guard = threading.Lock()

    def _path(self, kind: str, digest: str) -> str:
        # os.path rather than pathlib: this runs for every cached call.
        return os.path.join(self.root, kind, f"{digest}.json")

    def contains(self, kind: str, digest: str) -> bool:
        """Whether an entry file exists; its content is not checked."""
        return os.path.exists(self._path(kind, digest))

    def get(self, kind: str, digest: str) -> dict | None:
        path = self._path(kind, digest)
        try:
            with open(path, "r", encoding="utf-8") as fp:
                return json.load(fp)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            logger.warning("discarding corrupt cache entry %s", path)
            return None

    def put(self, kind: str, digest: str, payload: dict) -> dict:
        """Store ``payload`` and return the record written."""
        path = self._path(kind, digest)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        record = {"digest": digest, "created_at": time.time(), **payload}
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                json.dump(record, fp, ensure_ascii=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        return record

    @contextmanager
    def _single_flight(self, key: str):
        with self._locks_guard:
            entry = self._locks.get(key)
            if entry is None:
                entry = self._locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._locks_guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._locks[key]

    def get_or_compute(
        self, kind: str, digest: str, compute: Callable[[], dict]
    ) -> dict:
        """Return the cached payload, computing and storing it at most once
        per digest even under concurrent callers."""
        found = self.get(kind, digest)
        if found is not None:
            return found
        with self._single_flight(f"{kind}/{digest}"):
            found = self.get(kind, digest)
            if found is not None:
                return found
            # Payloads are JSON-native, so the record equals what get would read.
            return self.put(kind, digest, compute())
