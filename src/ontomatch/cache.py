"""Content-addressed response cache.

One append-only log per kind, ``<root>/<kind>.log``: a run of blocks, each a
4-byte little-endian length and that many bytes of zlib-compressed records.
A record is the digest and the payload bytes (the entry's JSON as ``put``
encodes it), each behind its length. A block holds up to 64 entries and is
appended with one ``os.write``.

Building a cache touches no file. A kind's log is read at its first
``stored``, ``get`` or ``put`` into a map of digest -> payload bytes, a later
record of a digest replacing an earlier one. A load only reads. A block that
fails to decompress or parse (zlib's adler32 and the length prefix catch a
torn or corrupt one) is logged and skipped to the next length followed by
the zlib header that starts every block body. Its entries are computed again
and appended; its bytes stay, so every load skips them again.

Outside ``serve``, ``put`` appends its entry at once. Inside it (one call per
stage batch) ``put`` parks the entry in memory, where ``get`` reads it, and
``serve`` moves each job's entry into the open block when it collects that
job's result, in job order, so equal runs write equal logs whatever order
the jobs finish in. A full block is appended by the collection that fills
it, and a failed append raises there. Once the pool has shut down, ``serve``
appends the open blocks, then the entries never collected, sorted by digest:
that is the durability point. A run killed inside ``serve`` loses its parked
entries and one open block, which the next run recomputes.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import uuid
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, KeysView, TypeVar

logger = logging.getLogger(__name__)

_BLOCK = struct.Struct("<I")  # length of the compressed records
_RECORD = struct.Struct("<HI")  # lengths of the digest and the payload
_SYNC = zlib.compress(b"")[:2]  # the zlib header, b"x\x9c", that starts every block body
BLOCK_ENTRIES = 64
QUEUE_PER_WORKER = 4
T = TypeVar("T")
# json.loads of a str, less its per-call checks of its arguments
_decode_json = json.JSONDecoder().decode

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


def _append(path: str, data: bytes) -> None:
    """Append ``data`` to ``path`` with one write."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"short write to {path}")
    finally:
        os.close(fd)


def _record(digest: str, data: bytes) -> bytes:
    key = digest.encode("utf-8")
    return _RECORD.pack(len(key), len(data)) + key + data


def _blocks(records: list[bytes]) -> bytes:
    """``records`` as blocks of up to ``BLOCK_ENTRIES``."""
    bodies = (zlib.compress(b"".join(records[i:i + BLOCK_ENTRIES]))
              for i in range(0, len(records), BLOCK_ENTRIES))
    return b"".join(_BLOCK.pack(len(body)) + body for body in bodies)


class ResponseCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        # kind -> digest -> payload bytes, from a kind's first use on
        self._entries: dict[str, dict[str, bytes]] = {}
        # (kind, digest) -> record of each entry put inside ``serve`` and not
        # yet collected; None outside ``serve``
        self._parked: dict[tuple[str, str], bytes] | None = None
        # the thread running ``serve``, and the ``recompute`` calls made on it
        self._serving: int | None = None
        self._recomputes = 0

    def _log(self, kind: str) -> str:
        return os.path.join(self.root, f"{kind}.log")

    def _load(self, kind: str) -> dict[str, bytes]:
        entries = self._entries.get(kind)  # a loaded map is read without the lock
        if entries is None:
            with self._lock:
                if kind not in self._entries:
                    self._entries[kind] = self._read(kind)
                entries = self._entries[kind]
        return entries

    def _read(self, kind: str) -> dict[str, bytes]:
        """Parse ``kind``'s log, skipping bad blocks; writes nothing."""
        path, entries, pos, skipping = self._log(kind), {}, 0, False
        log = Path(path).read_bytes() if os.path.exists(path) else b""
        view = memoryview(log)  # slices of it copy nothing, so a false start is cheap
        while pos < len(log):
            start = pos
            try:
                (size,) = _BLOCK.unpack_from(log, start)
                pos = start + _BLOCK.size + size
                body, at, block = zlib.decompress(view[start + _BLOCK.size:pos]), 0, {}
                while at < len(body):
                    key_size, size = _RECORD.unpack_from(body, at)
                    key = at + _RECORD.size
                    at = key + key_size + size
                    block[body[key:key + key_size].decode("utf-8")] = body[key + key_size:at]
            except (struct.error, zlib.error, UnicodeDecodeError) as exc:
                if not skipping:
                    logger.warning("skipping a bad block at byte %d of %s: %s", start, path, exc)
                skipping = True
                # Go on at the next offset where a length is followed by the
                # header every block body starts with; adler32 rejects a false start.
                pos = log.find(_SYNC, start + _BLOCK.size + 1) - _BLOCK.size
                if pos < start:
                    break
                continue
            skipping = False
            entries.update(block)
        return entries

    def stored(self, kind: str) -> KeysView[str]:
        """The digests of the ``kind`` entries, a live view of the loaded
        log; their content is not checked."""
        return self._load(kind).keys()

    def get(self, kind: str, digest: str) -> dict | None:
        """The stored payload; None when there is none, or when the entry is
        not a UTF-8 JSON object, which ``get_or_compute`` then replaces."""
        data = self._load(kind).get(digest)
        if data is None:
            return None
        try:
            # An explicit UTF-8 decode: json.loads on bytes would also accept
            # UTF-16 and UTF-32.
            payload = _decode_json(data.decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            payload = None
        if not isinstance(payload, dict):
            logger.warning("discarding corrupt cache entry %s of %s", digest, self._log(kind))
            return None
        return payload

    def put(self, kind: str, digest: str, payload: dict) -> dict:
        """Store ``payload`` as it is, replacing any entry; returns it. One
        that is not JSON raises here. Outside ``serve`` the entry is appended
        before ``put`` returns; inside it the entry is parked until its job is
        collected."""
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        entries = self._load(kind)
        with self._lock:
            if self._parked is None:
                self._flush(kind, [_record(digest, data)])
            else:
                self._parked[kind, digest] = _record(digest, data)
            entries[digest] = data
        return payload

    def _flush(self, kind: str, records: list[bytes]) -> None:
        """Append ``records`` to ``kind``'s log. A failed append forgets the
        loaded log, so entries that did not reach it are not served later."""
        try:
            _append(self._log(kind), _blocks(records))
        except BaseException:
            self._entries.pop(kind, None)
            raise

    def serve(self, kind: str, jobs: Iterable[tuple[str, Callable[[], T]]],
              max_workers: int) -> tuple[list[T], int]:
        """Run each ``(digest, job)`` of ``jobs``; returns the results in job
        order and the number of jobs served from the cache. Each job reaches
        the provider only through ``get_or_compute(kind, digest, ...)`` or
        ``recompute(kind, digest, ...)``; a job that recomputes its entry, as
        one whose stored entry is unusable does, is not served from the
        cache, whether or not the computation succeeds.

        A job whose digest is in ``stored(kind)`` runs on the calling thread.
        The others wait on the provider, so they go to a pool of
        ``max_workers`` threads, made at the first such job: a fully cached
        call makes no threads. ``jobs`` is read lazily, and at most
        ``QUEUE_PER_WORKER * max_workers`` jobs are queued or running, so
        rendered prompts do not pile up. A digest is computed at most once
        per call: a job whose digest matches a queued or running job waits
        for it, then runs on the calling thread and reads the entry that job
        put. A failed job's exception is re-raised
        once its result is reached, after the pool has shut down; if an
        append then fails too, that failure is logged and the job's error
        goes on. One ``serve`` at a time per cache.
        """
        with self._lock:
            if self._parked is not None:
                raise RuntimeError("a cache serve is already running")
            self._parked, self._serving = {}, threading.get_ident()
        results: list = []
        # digest -> (index in results, future) of each queued or running job, oldest first
        queued: dict[str, tuple[int, Future]] = {}
        block: list[bytes] = []  # records of collected jobs, not yet appended
        served = 0

        def collect(digest: str) -> bytes | None:
            nonlocal block
            with self._lock:
                record = self._parked.pop((kind, digest), None)
                if record is not None:
                    block.append(record)
                    if len(block) == BLOCK_ENTRIES:
                        full, block = block, []
                        self._flush(kind, full)
            return record

        raising = True
        try:
            with ExitStack() as stack:
                pool = None
                stored = self.stored(kind)
                for digest, job in jobs:
                    if digest in queued:
                        queued[digest][1].result()
                    elif digest not in stored:
                        if pool is None:
                            pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_workers))
                        if len(queued) >= QUEUE_PER_WORKER * max_workers:
                            oldest = next(iter(queued))
                            index, future = queued.pop(oldest)
                            results[index] = future.result()
                            collect(oldest)
                        queued[digest] = (len(results), pool.submit(job))
                        results.append(None)
                        continue
                    recomputes = self._recomputes
                    results.append(job())
                    # Only this thread, or a job it has waited for, parks this
                    # digest's record, so an empty map needs no lock.
                    if self._parked:
                        collect(digest)
                    # A job that recomputed its entry (the stored one was
                    # unusable) asked the provider, even if that failed; one
                    # that reads what another job put is a hit.
                    if self._recomputes == recomputes:
                        served += 1
                for digest, (index, future) in queued.items():
                    results[index] = future.result()
                    collect(digest)
            raising = False
        finally:
            with self._lock:
                parked, self._parked, self._serving = self._parked, None, None
                blocks = {kind: block}
                for key in sorted(parked):
                    blocks.setdefault(key[0], []).append(parked[key])
                try:
                    for name, records in blocks.items():
                        if records:
                            self._flush(name, records)
                except Exception as exc:
                    if not raising:
                        raise
                    logger.error("cache append failed while serve was raising: %s", exc)
        return results, served

    def get_or_compute(
        self, kind: str, digest: str, compute: Callable[[], dict]
    ) -> dict:
        """Return the stored payload, or ``recompute`` it when there is none
        (or the entry is corrupt). Concurrent callers of one digest each
        compute it; ``serve`` never makes two."""
        found = self.get(kind, digest)
        if found is not None:
            return found
        return self.recompute(kind, digest, compute)

    def recompute(self, kind: str, digest: str, compute: Callable[[], dict]) -> dict:
        """Compute, store and return the payload of ``digest``, replacing any
        entry. Inside ``serve`` the job that calls it is not served from the
        cache, even when ``compute`` raises."""
        if threading.get_ident() == self._serving:
            self._recomputes += 1
        # Payloads are JSON-native, so this equals what get would read.
        return self.put(kind, digest, compute())
