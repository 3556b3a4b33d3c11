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

Inside ``batch`` (one per ``serve`` call), ``put`` encodes the entry and
returns before its file exists: one writer thread, started at the batch's
first put, writes the entries in order while the callers go on with their
provider calls. Until its file is written an entry is served by ``get`` from
memory, so a batch reads its own writes. The end of the batch is the
durability point: leaving it waits for every queued write and raises the
first write failure, which ``serve`` sees as soon as it happens through
``write_failed`` and so stops calling the provider. A run killed inside a
batch loses only the entries not yet written, which the next run
recomputes; it never leaves a torn entry, since every write still goes
through ``atomic_open``. The one lock guards the map of entries not yet
written and the writer's start, never a computation or a file write.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import threading
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


def _write(path: str, data: bytes) -> None:
    with atomic_open(path, "wb") as fp:
        fp.write(data)


class ResponseCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")
        self._lock = threading.Lock()
        # path -> bytes of each entry put in the open batch and not yet written
        self._pending: dict[str, bytes] = {}
        # The open batch's write queue, its writer (from the first put) and
        # its first write failure; None outside a batch.
        self._writes: queue.SimpleQueue | None = None
        self._writer: threading.Thread | None = None
        self._write_error: BaseException | None = None

    def _path(self, kind: str, digest: str) -> str:
        # A string built on the root joined once, not pathlib or os.path.join:
        # this runs for every cached call.
        return f"{self._prefix}{kind}{os.sep}{digest}.json"

    def stored(self, kind: str) -> set[str]:
        """The digests of the ``kind`` entries, from one listing of its
        directory (empty when there is none, or it is not a directory); their
        content is not checked."""
        try:
            with os.scandir(f"{self._prefix}{kind}") as entries:
                return {e.name[:-5] for e in entries if e.name.endswith(".json")}
        except (FileNotFoundError, NotADirectoryError):
            return set()

    def get(self, kind: str, digest: str) -> dict | None:
        """The stored payload; None when there is none, or when the entry is
        not a UTF-8 JSON object, which ``get_or_compute`` then replaces. An
        entry put in the open batch is read from memory until it is written."""
        path = self._path(kind, digest)
        with self._lock:
            data = self._pending.get(path)
        if data is None:
            try:
                fd = os.open(path, _READ_FLAGS)
            except (FileNotFoundError, NotADirectoryError):
                return None
            try:
                # Read to end of file: a short read is not taken for the entry.
                chunks = []
                while chunk := os.read(fd, _READ_SIZE):
                    chunks.append(chunk)
            finally:
                os.close(fd)
            data = b"".join(chunks)
        try:
            # An explicit UTF-8 decode: json.loads on bytes would also accept
            # UTF-16 and UTF-32.
            payload = json.loads(data.decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            payload = None
        if not isinstance(payload, dict):
            logger.warning("discarding corrupt cache entry %s", path)
            return None
        return payload

    def put(self, kind: str, digest: str, payload: dict) -> dict:
        """Store ``payload`` as it is, replacing any entry; returns it.

        The payload is encoded here, so one that is not JSON raises here.
        Outside a batch the entry is written before ``put`` returns; inside
        one it is queued for the batch's writer and lands by the batch's end.
        """
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        path = self._path(kind, digest)
        with self._lock:
            if self._writes is not None:
                self._pending[path] = data
                if self._writer is None:
                    self._writer = threading.Thread(
                        target=self._drain, args=(self._writes,), name="cache-writer"
                    )
                    self._writer.start()
                self._writes.put((path, data))
                return payload
        _write(path, data)
        return payload

    def _drain(self, writes: queue.SimpleQueue) -> None:
        while (item := writes.get()) is not None:
            path, data = item
            try:
                _write(path, data)
            except BaseException as exc:  # raised by batch() once the writer stops
                if self._write_error is None:
                    self._write_error = exc
                    logger.error("cache write failed; the batch raises it when it ends: %s", exc)
            finally:
                # A failed entry is dropped too: a later get recomputes it.
                with self._lock:
                    if self._pending.get(path) is data:
                        del self._pending[path]

    @property
    def write_failed(self) -> bool:
        """Whether a write of the open batch has failed."""
        return self._write_error is not None

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Within the block, ``put`` hands its writes to one writer thread;
        leaving the block waits for all of them. The first write failure is
        logged when it happens, sets ``write_failed`` and is raised when the
        block ends, unless the block itself is raising. A block that puts
        nothing starts no thread. One batch at a time."""
        with self._lock:
            if self._writes is not None:
                raise RuntimeError("a cache batch is already open")
            self._writes = queue.SimpleQueue()
        raising = True
        try:
            yield
            raising = False
        finally:
            with self._lock:
                writes, writer = self._writes, self._writer
                self._writes = self._writer = None
            if writer is not None:
                writes.put(None)
                writer.join()
            error, self._write_error = self._write_error, None
            if error is not None and not raising:
                raise error

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
