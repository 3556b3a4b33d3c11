"""Content-addressed response cache.

One JSON file per entry under ``<root>/<kind>/<digest>.json``, holding just
the payload, so equal answers give byte-identical trees. Writes go through
``atomic_open``, as every file the package writes does, so readers never
observe a partial entry. ``stored`` lists the digests of one kind with a
single directory scan, so a batch decides its hits without probing each
entry; ``get`` reads an entry with one ``os.open``/``os.read``/``os.close``.
The cache only stores: ``get_or_compute`` reads an entry once and computes
it when that read finds nothing. Keeping two callers from computing the same
digest at once is the scheduler's job (``providers.serve``).
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator

logger = logging.getLogger(__name__)

_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
# Entries are a few hundred bytes, so one read normally returns all of one.
_READ_SIZE = 1 << 16

__all__ = ["ResponseCache", "atomic_open"]


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside ``path`` (``mode`` ``"w"``: UTF-8 text with
    LF newlines, or ``"wb"``) and rename it onto ``path`` when the block ends.
    If the block raises, the temporary file is removed and ``path`` is left
    as it was."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # A fresh name, as tempfile.mkstemp makes, but created with open()'s
    # permissions (0o666 less the umask) rather than mkstemp's 0o600.
    tmp = os.path.join(directory, f"tmp{uuid.uuid4().hex}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with os.fdopen(fd, mode, **text) as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class ResponseCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")

    def _path(self, kind: str, digest: str) -> str:
        # A string built on the root joined once, not pathlib or os.path.join:
        # this runs for every cached call.
        return f"{self._prefix}{kind}{os.sep}{digest}.json"

    def stored(self, kind: str) -> set[str]:
        """The digests of the ``kind`` entries, from one listing of its
        directory (empty when there is none); their content is not checked."""
        try:
            with os.scandir(f"{self._prefix}{kind}") as entries:
                return {e.name[:-5] for e in entries if e.name.endswith(".json")}
        except FileNotFoundError:
            return set()

    def get(self, kind: str, digest: str) -> dict | None:
        """The stored payload; None when there is none, or when the entry is
        not a UTF-8 JSON object, which ``get_or_compute`` then replaces."""
        path = self._path(kind, digest)
        try:
            fd = os.open(path, _READ_FLAGS)
        except FileNotFoundError:
            return None
        try:
            # Read to end of file: a short read is not taken for the entry.
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        try:
            # An explicit UTF-8 decode: json.loads on bytes would also accept
            # UTF-16 and UTF-32.
            payload = json.loads(b"".join(chunks).decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            payload = None
        if not isinstance(payload, dict):
            logger.warning("discarding corrupt cache entry %s", path)
            return None
        return payload

    def put(self, kind: str, digest: str, payload: dict) -> dict:
        """Store ``payload`` as it is, replacing any entry; returns it."""
        with atomic_open(self._path(kind, digest)) as fp:
            json.dump(payload, fp, ensure_ascii=False)
        return payload

    def get_or_compute(
        self, kind: str, digest: str, compute: Callable[[], dict]
    ) -> dict:
        """Return the stored payload, or compute, store and return it when
        there is none (or the entry is corrupt). Concurrent callers of one
        digest each compute it; ``serve`` never makes two."""
        found = self.get(kind, digest)
        if found is not None:
            return found
        # Payloads are JSON-native, so this equals what get would read.
        return self.put(kind, digest, compute())
