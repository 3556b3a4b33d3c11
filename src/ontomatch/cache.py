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

``serve`` (one call per stage batch) settles its jobs from the head of one
job-ordered window, on the calling thread, and stores each fresh answer as
it settles that job, so equal runs write equal logs whatever order the pool's
provider calls finish in. ``put`` appends an entry at once,
unless it is of the kind a ``serve`` answers: then it joins the open block,
appended by the ``put`` that fills it (a failed append raises there) or when
``serve`` ends, the durability point. A run killed inside ``serve`` loses the
jobs not yet collected and one open block, which the next run recomputes.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import uuid
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, KeysView, TypeVar

from .errors import ItemError

logger = logging.getLogger(__name__)

_BLOCK = struct.Struct("<I")  # length of the compressed records
_RECORD = struct.Struct("<HI")  # lengths of the digest and the payload
_SYNC = zlib.compress(b"")[:2]  # the zlib header, b"x\x9c", that starts every block body
BLOCK_ENTRIES = 64
QUEUE_PER_WORKER = 4
# Concurrent provider calls when the caller names no width. The default HTTP
# target, a vLLM server, batches concurrent requests; a rate-limited hosted
# API may need fewer.
DEFAULT_MAX_WORKERS = 32
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
        # kind -> digest -> payload bytes, from a kind's first use on
        self._entries: dict[str, dict[str, bytes]] = {}
        self._serving: str | None = None  # the kind ``serve`` answers; None outside it
        self._block: list[bytes] = []  # records of that kind not yet appended

    def _log(self, kind: str) -> str:
        return os.path.join(self.root, f"{kind}.log")

    def _load(self, kind: str) -> dict[str, bytes]:
        entries = self._entries.get(kind)
        if entries is None:
            entries = self._entries[kind] = self._read(kind)
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
        that is not JSON raises here. The entry is appended before ``put``
        returns, unless it is of the kind a ``serve`` is answering: then it
        joins the open block, appended when it is full or ``serve`` ends."""
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        entries = self._load(kind)
        if kind != self._serving:
            self._flush(kind, [_record(digest, data)])
        else:
            self._block.append(_record(digest, data))
            if len(self._block) == BLOCK_ENTRIES:
                full, self._block = self._block, []
                self._flush(kind, full)
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

    def serve(self, kind: str, jobs: Iterable[tuple[str, Callable[[], dict], Callable[[dict], T]]],
              max_workers: int, on_error: Callable[[int, ItemError], T] | None = None,
              ) -> tuple[list[T], int]:
        """Answer each ``(digest, compute, accept)`` of ``jobs``; returns the
        results in job order and the number served from the cache.

        A job's result is ``accept`` of its payload: the stored one, read
        through ``get_or_compute(kind, digest, ...)``, or else the one
        ``compute`` returns, accepted before it is stored. ``accept`` raises
        ``ItemError`` on an unusable payload: a fresh one is never stored,
        and a stored one is logged once and computed again, which replaces
        the entry. A job counts as served exactly when its stored payload was
        accepted. On an ``ItemError`` from ``compute`` or ``accept`` the
        job's result is ``on_error(index, error)``; without ``on_error``, or
        on any other exception, the error is re-raised once the job's result
        is reached, after the pool has shut down and the payloads of the jobs
        it finished are stored, in job order; if an append then fails too,
        that failure is logged and the job's error goes on.

        Jobs are settled from the head of one job-ordered window, on the
        calling thread. A job whose digest is neither stored nor that of a
        pool job in the window runs its ``compute`` and ``accept`` on a pool
        of ``max_workers`` threads, made at the first such job, which touch
        no cache. Any other job, a duplicate included, is answered at the
        head, so a digest is computed at most once per call. ``jobs`` is
        read lazily, and at most ``QUEUE_PER_WORKER * max_workers`` pool jobs
        are queued or running. One ``serve`` at a time per cache.
        """
        if self._serving is not None:
            raise RuntimeError("a cache serve is already running")
        self._serving = kind

        def work(compute: Callable[[], dict], accept: Callable[[dict], T]) -> tuple[T, dict]:
            payload = compute()  # on a pool thread, unless the entry is stored: no cache use
            return accept(payload), payload

        def answer(digest: str, compute: Callable[[], dict],
                   accept: Callable[[dict], T]) -> tuple[T, bool]:
            fresh: list = []  # work's (result, payload), so a fresh payload is accepted once

            def checked() -> dict:
                fresh.append(work(compute, accept))
                return fresh[-1][1]

            payload = self.get_or_compute(kind, digest, checked)
            if not fresh:
                try:
                    return accept(payload), True
                except ItemError as exc:
                    logger.warning("recomputing unusable cache entry %s of %s: %s",
                                   digest, self._log(kind), exc)
                self.put(kind, digest, checked())
            return fresh[-1][0], False

        results: list = []  # (result, served) of each settled job
        # (digest, compute, accept, future or None) of each job not yet settled, in job order
        window: deque = deque()
        pooled: set[str] = set()  # the digests of the window's pool jobs

        def collect() -> None:
            """Settle the head job."""
            digest, compute, accept, future = window.popleft()
            try:
                if future is None:
                    results.append(answer(digest, compute, accept))
                else:
                    pooled.remove(digest)
                    result, payload = future.result()
                    self.get_or_compute(kind, digest, lambda: payload)
                    results.append((result, False))
            except ItemError as exc:
                if on_error is None:
                    raise
                results.append((on_error(len(results), exc), False))

        raising = True
        try:
            with ExitStack() as stack:
                pool = None
                stored = self.stored(kind)
                for digest, compute, accept in jobs:
                    future = None
                    if digest not in stored and digest not in pooled:
                        if pool is None:
                            pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_workers))
                        while len(pooled) >= QUEUE_PER_WORKER * max_workers:
                            collect()
                        future = pool.submit(work, compute, accept)
                        pooled.add(digest)
                    window.append((digest, compute, accept, future))
                    while window and window[0][3] is None:
                        collect()
                while window:
                    collect()
            raising = False
        finally:
            try:
                for digest, _, _, future in window:  # only when raising
                    if future is not None and future.exception() is None:
                        self.get_or_compute(kind, digest, lambda: future.result()[1])
                if self._block:
                    self._flush(kind, self._block)
            except Exception as exc:
                if not raising:
                    raise
                logger.error("cache append failed while serve was raising: %s", exc)
            finally:
                self._serving, self._block = None, []
        return [result for result, _ in results], sum(hit for _, hit in results)

    def get_or_compute(
        self, kind: str, digest: str, compute: Callable[[], dict]
    ) -> dict:
        """Return the stored payload, or else store and return the one
        ``compute`` returns (also when the entry is corrupt): ``serve``'s
        lookup and store, on its calling thread."""
        found = self.get(kind, digest)
        if found is not None:
            return found
        # Payloads are JSON-native, so this equals what get would read.
        return self.put(kind, digest, compute())
