"""Content-addressed response cache: the log format, round-trips,
corruption, bad blocks, get-or-compute, the per-job accept rule, batches, and the atomic writer
every artifact goes through."""

import functools
import hashlib
import json
import os
import struct
import threading
import zlib
from pathlib import Path

import pytest

import ontomatch.cache as cache_module
from ontomatch.cache import BLOCK_ENTRIES, ResponseCache, atomic_open
from ontomatch.definitions import _accept_definition
from ontomatch.errors import ItemError
from ontomatch.judge import judge_pair

from conftest import append_raw_entry, block_digests, log_blocks


def test_put_get_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "abc123", {"text": "A définition."})
    assert cache.get("define", "abc123") == {"text": "A définition."}
    # One block: its length, then the zlib-compressed record: the lengths of
    # the digest and the payload, the digest, and the payload as put encodes it.
    log = (tmp_path / "cache" / "define.log").read_bytes()
    payload = '{"text": "A définition."}'.encode("utf-8")
    assert struct.unpack_from("<I", log) == (len(log) - 4,)
    assert zlib.decompress(log[4:]) == struct.pack("<HI", 6, len(payload)) + b"abc123" + payload
    assert ResponseCache(tmp_path / "cache").get("define", "abc123") == {"text": "A définition."}


def test_an_entry_larger_than_one_read_round_trips(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    payload = {"text": "é" * 50_000, "entries": {f"t{i}": -i / 7 for i in range(2_000)}}
    cache.put("define", "big", payload)
    assert len(json.dumps(payload, ensure_ascii=False).encode("utf-8")) > 1 << 16
    assert ResponseCache(tmp_path / "cache").get("define", "big") == payload


def test_get_missing_returns_none(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("define", "nope") is None


def test_entries_are_namespaced_by_kind(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    cache.put("judge", "d1", {"p_yes": 0.5})
    assert cache.get("define", "d1")["text"] == "def"
    assert cache.get("judge", "d1")["p_yes"] == 0.5
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["define.log", "judge.log"]


def test_corrupt_entry_is_discarded(tmp_path, caplog):
    ResponseCache(tmp_path / "cache").put("define", "d1", {"text": "def"})
    append_raw_entry(tmp_path / "cache", "define", "d1", b"{truncated")
    cache = ResponseCache(tmp_path / "cache")
    with caplog.at_level("WARNING"):
        assert cache.get("define", "d1") is None
    assert any("corrupt" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{\"text\": 1}", b"[1]", b"null",
     '{"p_yes": 0.5}'.encode("utf-16"), b"\xef\xbb\xbf" + b'{"p_yes": 0.5}'],
    ids=["not-utf8", "array", "null", "utf16-object", "utf8-bom"],
)
def test_an_unreadable_entry_is_discarded_and_recomputed(tmp_path, caplog, content):
    """Bytes that are not UTF-8, or JSON that is not an object, count as corrupt.
    A JSON object in UTF-16, or after a UTF-8 byte order mark, is corrupt too:
    entries are decoded as UTF-8, never by detecting the encoding."""
    ResponseCache(tmp_path / "cache").put("judge", "d1", {"p_yes": 0.5})
    append_raw_entry(tmp_path / "cache", "judge", "d1", content)
    cache = ResponseCache(tmp_path / "cache")
    with caplog.at_level("WARNING"):
        assert cache.get("judge", "d1") is None
    assert any("discarding corrupt cache entry" in r.message for r in caplog.records)
    assert cache.get_or_compute("judge", "d1", lambda: {"p_yes": 0.25}) == {"p_yes": 0.25}
    assert cache.get("judge", "d1") == {"p_yes": 0.25}
    assert ResponseCache(tmp_path / "cache").get("judge", "d1") == {"p_yes": 0.25}


def test_put_leaves_no_temporary_files(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    for i in range(20):
        cache.put("define", f"d{i}", {"text": str(i)})
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["define.log"]
    assert len(ResponseCache(tmp_path / "cache").stored("define")) == 20


def test_put_overwrites_existing_entry(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "old"})
    cache.put("define", "d1", {"text": "new"})
    assert cache.get("define", "d1")["text"] == "new"
    assert ResponseCache(tmp_path / "cache").get("define", "d1")["text"] == "new"


def test_get_or_compute_computes_once_then_hits(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    calls = []

    def compute():
        calls.append(1)
        return {"text": "computed"}

    first = cache.get_or_compute("define", "d1", compute)
    second = cache.get_or_compute("define", "d1", compute)
    assert first["text"] == second["text"] == "computed"
    assert len(calls) == 1


def test_get_or_compute_distinct_digests_compute_separately(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    calls = []

    def compute_for(tag):
        def compute():
            calls.append(tag)
            return {"text": tag}
        return compute

    cache.get_or_compute("define", "a", compute_for("a"))
    cache.get_or_compute("define", "b", compute_for("b"))
    assert sorted(calls) == ["a", "b"]


def test_get_or_compute_returns_canonical_record(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    got = cache.get_or_compute("define", "d1", lambda: {"text": "x"})
    assert got == {"text": "x"}
    assert cache.get_or_compute("define", "d1", lambda: {"text": "y"}) == got


def test_get_or_compute_returns_written_record_without_reading_back(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    reads = []
    real_get = cache.get

    def counted_get(kind, digest):
        reads.append(digest)
        return real_get(kind, digest)

    monkeypatch.setattr(cache, "get", counted_get)
    got = cache.get_or_compute("judge", "d1", lambda: {"entries": {"YES": -0.5, "NO": -1.0}})
    assert reads == ["d1"]
    assert got == real_get("judge", "d1")


# Each kind with the accept its batch function hands ``serve``, a usable
# payload, and an unusable one that is still a JSON object. Each of the
# ``test_a_job_*`` tests is a one-job ``serve`` batch.
ACCEPT_KINDS = {
    "define": (_accept_definition, {"text": "A definition."},
               {"text": "first para.\n\nsecond para."}),
    "judge": (functools.partial(judge_pair, "s", "t", 0.5, "pair"),
              {"entries": {"YES": -0.001, "NO": -7.0}}, {"entries": {"MAYBE": -0.1}}),
}


def _one_job(cache, kind, compute, accept):
    return cache.serve(kind, iter([("d1", compute, accept)]), max_workers=1)


@pytest.mark.parametrize("kind", sorted(ACCEPT_KINDS))
def test_a_job_recomputes_a_stored_payload_it_rejects_once_with_one_warning(tmp_path, caplog,
                                                                             kind):
    accept, good, unusable = ACCEPT_KINDS[kind]
    cache = ResponseCache(tmp_path / "cache")
    cache.put(kind, "d1", unusable)
    log = tmp_path / "cache" / f"{kind}.log"
    records = sum(map(len, block_digests(log)))
    computed = []
    with caplog.at_level("WARNING"):
        got = _one_job(cache, kind, lambda: computed.append(1) or good, accept)
    assert got == ([accept(good)], 0)
    assert computed == [1]
    assert [r.getMessage() for r in caplog.records] == [
        f"recomputing unusable cache entry d1 of {log}: {_rejection(accept, unusable)}"]
    assert sum(map(len, block_digests(log))) == records + 1
    assert ResponseCache(tmp_path / "cache").get(kind, "d1") == good


@pytest.mark.parametrize("kind", sorted(ACCEPT_KINDS))
def test_a_job_never_stores_a_fresh_payload_it_rejects(tmp_path, kind):
    accept, _, unusable = ACCEPT_KINDS[kind]
    cache = ResponseCache(tmp_path / "cache")
    with pytest.raises(ItemError):
        _one_job(cache, kind, lambda: unusable, accept)
    assert not cache.stored(kind)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("kind", sorted(ACCEPT_KINDS))
def test_a_job_is_served_a_usable_stored_payload_without_computing(tmp_path, caplog, kind):
    accept, good, _ = ACCEPT_KINDS[kind]
    ResponseCache(tmp_path / "cache").put(kind, "d1", good)
    log = (tmp_path / "cache" / f"{kind}.log").read_bytes()

    def compute():
        raise AssertionError("a usable stored payload was computed again")

    with caplog.at_level("WARNING"):
        got = _one_job(ResponseCache(tmp_path / "cache"), kind, compute, accept)
    assert got == ([accept(good)], 1)
    assert not caplog.records
    assert (tmp_path / "cache" / f"{kind}.log").read_bytes() == log


def _rejection(accept, payload) -> str:
    with pytest.raises(ItemError) as exc:
        accept(payload)
    return str(exc.value)


def test_a_leftover_entry_directory_is_ignored(tmp_path):
    """Entry files of the layout before the logs are not read, and their
    directory is left as it is."""
    kind_dir = tmp_path / "cache" / "judge"
    kind_dir.mkdir(parents=True)
    (kind_dir / "d1.json").write_bytes(b'{"p_yes": 0.5}')
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("judge", "d1") is None
    assert cache.stored("judge") == set()
    assert [p.name for p in kind_dir.iterdir()] == ["d1.json"]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["judge"]


def test_stored_is_empty_for_a_missing_kind_directory(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert cache.stored("judge") == set()
    cache.put("define", "d1", {"text": "def"})
    assert cache.stored("judge") == set()


def test_stored_keeps_kinds_apart(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    cache.put("judge", "j1", {"entries": {"YES": -0.1}})
    assert cache.stored("define") == {"d1"}
    assert cache.stored("judge") == {"j1"}


# -- atomic writes ------------------------------------------------------------------


def test_atomic_open_failure_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "artifact.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fp:
            fp.write("new, half written")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]


def test_atomic_open_writes_lf_text_and_bytes(tmp_path):
    with atomic_open(tmp_path / "sub" / "a.txt") as fp:
        fp.write("x\ny\n")
    with atomic_open(tmp_path / "sub" / "b.bin", "wb") as fp:
        fp.write(b"\x00\x01")
    assert (tmp_path / "sub" / "a.txt").read_bytes() == b"x\ny\n"
    assert (tmp_path / "sub" / "b.bin").read_bytes() == b"\x00\x01"


def test_atomic_open_gives_the_permissions_open_gives(tmp_path):
    with open(tmp_path / "plain.txt", "w") as fp:
        fp.write("x")
    with atomic_open(tmp_path / "atomic.txt") as fp:
        fp.write("x")
    assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_put_failure_keeps_the_old_entry_and_leaves_no_temporary(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "kept"})
    with pytest.raises(TypeError):
        cache.put("define", "d1", {"text": object()})
    assert cache.get("define", "d1")["text"] == "kept"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["define.log"]
    assert ResponseCache(tmp_path / "cache").get("define", "d1")["text"] == "kept"


def test_a_failed_append_stores_nothing(tmp_path, monkeypatch):
    def refuse(path, data):
        raise OSError(f"cannot append to {path}")

    cache = ResponseCache(tmp_path / "cache")
    monkeypatch.setattr(cache_module, "_append", refuse)
    with pytest.raises(OSError, match="cannot append"):
        cache.put("define", "d1", {"text": "lost"})
    assert cache.get("define", "d1") is None


def test_a_short_write_raises_and_its_torn_block_is_never_served(tmp_path, monkeypatch,
                                                                   caplog):
    """``os.write`` may write less than it was given. The append raises, the
    loaded log is forgotten, and reading it again skips the torn block."""
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d0", {"text": "kept"})
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:len(data) // 2]))
    with pytest.raises(OSError, match="short write"):
        cache.put("define", "d1", {"text": "torn"})
    monkeypatch.undo()
    with caplog.at_level("WARNING"):
        assert cache.get("define", "d1") is None
    assert any("bad block" in m for m in caplog.messages)
    assert cache.get("define", "d0") == {"text": "kept"}


def test_building_a_cache_touches_no_file(tmp_path, monkeypatch):
    ResponseCache(tmp_path / "cache").put("judge", "d1", {"p_yes": 0.5})

    def refuse(*args, **kwargs):
        raise AssertionError("a cache file was touched")

    monkeypatch.setattr(ResponseCache, "_read", refuse)
    monkeypatch.setattr(cache_module, "_append", refuse)
    ResponseCache(tmp_path / "cache")
    ResponseCache(tmp_path / "missing")


def test_a_load_of_a_half_appended_block_writes_nothing(tmp_path, monkeypatch):
    """A block that another process is still appending: a load skips its
    first half and leaves the log byte for byte as it was; once the rest is
    appended, a fresh load serves the block's entry."""
    ResponseCache(tmp_path / "cache").put("judge", "d0", {"p_yes": 0.5})
    log = tmp_path / "cache" / "judge.log"
    block = cache_module._blocks([cache_module._record("d1", b'{"p_yes": 0.25}')])
    with open(log, "ab") as fp:
        fp.write(block[:len(block) // 2])
    before = hashlib.sha256(log.read_bytes()).hexdigest()

    def refuse(*args, **kwargs):
        raise AssertionError("a load appended to the log")

    monkeypatch.setattr(cache_module, "_append", refuse)
    assert ResponseCache(tmp_path / "cache").stored("judge") == {"d0"}
    assert hashlib.sha256(log.read_bytes()).hexdigest() == before
    monkeypatch.undo()
    with open(log, "ab") as fp:
        fp.write(block[len(block) // 2:])
    fresh = ResponseCache(tmp_path / "cache")
    assert fresh.get("judge", "d1") == {"p_yes": 0.25}
    assert fresh.get("judge", "d0") == {"p_yes": 0.5}


def test_every_block_body_starts_with_the_sync_header():
    """A load that meets a bad block goes on at the next length followed by
    ``_SYNC``, so every block ``_blocks`` writes must start with it: a change
    of compression level would otherwise hide every block after a bad one."""
    assert cache_module._SYNC == b"x\x9c"
    records = [cache_module._record(f"d{i}", bytes(range(i % 256)) * i)
               for i in range(BLOCK_ENTRIES * 3)]
    data, pos, bodies = cache_module._blocks(records), 0, 0
    while pos < len(data):
        (size,) = struct.unpack_from("<I", data, pos)
        assert data[pos + 4:pos + 6] == cache_module._SYNC
        pos, bodies = pos + 4 + size, bodies + 1
    assert pos == len(data) and bodies == 3


# -- bad blocks ---------------------------------------------------------------------


def test_a_torn_tail_stays_and_the_blocks_appended_after_it_load(tmp_path, caplog):
    """A torn last block is skipped at every load and never cut: a put
    appends after it, and the next load finds that block past the torn one."""
    cache = ResponseCache(tmp_path / "cache")
    for i in range(3):
        cache.put("judge", f"d{i}", {"p_yes": i})
    log = tmp_path / "cache" / "judge.log"
    spans = log_blocks(log)
    with open(log, "r+b") as fp:
        fp.truncate(spans[2][0] + 5)
    torn = log.read_bytes()
    with caplog.at_level("WARNING"):
        fresh = ResponseCache(tmp_path / "cache")
        assert fresh.stored("judge") == {"d0", "d1"}
    assert sum("bad block" in m for m in caplog.messages) == 1
    assert log.read_bytes() == torn
    fresh.put("judge", "d2", {"p_yes": 2})
    assert log.read_bytes()[:len(torn)] == torn
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert ResponseCache(tmp_path / "cache").get("judge", "d2") == {"p_yes": 2}
    assert [f"byte {spans[2][0]} " in m for m in caplog.messages] == [True]


def test_a_corrupt_block_stays_and_every_load_skips_it(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    for i in range(3):
        cache.put("judge", f"d{i}", {"p_yes": i})
    log = tmp_path / "cache" / "judge.log"
    start, end = log_blocks(log)[1]
    data = bytearray(log.read_bytes())
    data[(start + 4 + end) // 2] ^= 0xFF
    log.write_bytes(bytes(data))
    for _ in range(2):
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert ResponseCache(tmp_path / "cache").stored("judge") == {"d0", "d2"}
        assert sum("bad block" in m for m in caplog.messages) == 1
        assert log.read_bytes() == bytes(data)


def test_a_load_resyncs_past_false_block_starts(tmp_path, caplog):
    """Garbage between two blocks that holds the header behind a length, once
    with a length past the end of the log and once before an empty stream
    whose adler32 is wrong, is one bad stretch: one warning, and the block
    after it loads."""
    cache = ResponseCache(tmp_path / "cache")
    cache.put("judge", "d0", {"p_yes": 0})
    log = tmp_path / "cache" / "judge.log"
    sync = cache_module._SYNC
    with open(log, "ab") as fp:
        fp.write(b"\x00garbage" + struct.pack("<I", 1 << 30) + sync + b"\x01\x02"
                 + struct.pack("<I", 8) + sync + b"\x03\x00\x00\x00\x00\x02")
    cache.put("judge", "d1", {"p_yes": 1})
    with caplog.at_level("WARNING"):
        fresh = ResponseCache(tmp_path / "cache")
        assert fresh.stored("judge") == {"d0", "d1"}
        assert fresh.get("judge", "d1") == {"p_yes": 1}
    assert sum("bad block" in m for m in caplog.messages) == 1


# -- batches: one serve call, appends in store order -------------------------------

# A batch is one ``ResponseCache.serve`` call; its calling thread stores a pool
# job's entry in the open block when it collects that job's result.


def test_a_batch_put_is_read_from_memory_and_written_by_the_batch_end(tmp_path):
    """The first job computes its entry on the pool; its duplicate then reads
    that entry from memory on the calling thread, before the log exists."""
    cache = ResponseCache(tmp_path / "cache")
    log = tmp_path / "cache" / "define.log"

    def compute():
        with pytest.raises(TypeError):
            cache.put("define", "d2", {"text": object()})
        with pytest.raises(RuntimeError, match="already running"):
            cache.serve("define", iter([]), max_workers=1)
        return {"text": "A définition."}

    def read_back(payload):
        assert payload == cache.get("define", "d1") == {"text": "A définition."}
        assert not log.exists()
        return "done"

    jobs = iter([("d1", compute, lambda payload: "done"), ("d1", _unreachable, read_back)])
    # The first job computes, so it counts as sent to the provider; the
    # duplicate reads what it stored, so it counts as served.
    assert cache.serve("define", jobs, max_workers=1) == (["done", "done"], 1)
    assert block_digests(log) == [["d1"]]
    assert ResponseCache(tmp_path / "cache").get("define", "d1") == {"text": "A définition."}


def _unreachable() -> dict:
    raise AssertionError("a stored entry was computed again")


def _slow_first_then_a_duplicate():
    """Jobs ``d0``, ``d1``, ``d1`` for two workers: ``d0`` finishes only
    after ``d1`` has, and the second ``d1`` is a duplicate of a pool job."""
    d1_done = threading.Event()

    def d0():
        assert d1_done.wait(timeout=30)
        return {"text": "d0"}

    def d1():
        d1_done.set()
        return {"text": "d1"}

    return iter([("d0", d0, _text), ("d1", d1, _text), ("d1", _unreachable, _text)])


def _text(payload):
    return payload["text"]


def test_a_batch_stores_in_job_order_when_a_duplicate_arrives_before_its_original_is_collected(
        tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert cache.serve("judge", _slow_first_then_a_duplicate(), max_workers=2) == (
        ["d0", "d1", "d1"], 1)
    assert block_digests(tmp_path / "cache" / "judge.log") == [["d0", "d1"]]


def test_a_traced_batch_counts_a_duplicate_of_a_pool_job_as_one_hit(tmp_path, monkeypatch):
    """Each pool job misses and stores once; the duplicate reads its
    original's entry: one hit, and no second lookup of the original."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer as tracing

    tracer = tracing.Tracer()
    cache = tracing.TracedCache(tmp_path / "cache", tracer)
    cache.serve("judge", _slow_first_then_a_duplicate(), max_workers=2)
    assert (tracer.counts["cache.misses"], tracer.counts["cache.hits"]) == (2, 1)
    assert sum(span[1] == "cache.put" for span in tracer.spans) == 2


def test_a_batch_that_puts_nothing_starts_no_thread(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    size = (tmp_path / "cache" / "define.log").stat().st_size
    monkeypatch.setattr(threading.Thread, "start", refuse)
    jobs = iter([("d1", _unreachable, lambda payload: payload)])
    assert cache.serve("define", jobs, max_workers=4) == ([{"text": "def"}], 1)
    assert (tmp_path / "cache" / "define.log").stat().st_size == size
    assert cache.serve("judge", iter([]), max_workers=4) == ([], 0)
    assert not (tmp_path / "cache" / "judge.log").exists()


def test_a_batch_appends_full_blocks_in_store_order_and_the_rest_at_its_end(tmp_path):
    """A block is appended by the store that fills it; the end of serve
    appends the open block. Every job's stored entry is torn, so each job
    runs on the calling thread and stores its answer again, in job order,
    which is not digest order. One miss fails, so it stores nothing, and a
    job of a digest already stored in the batch stores nothing either."""
    cache = ResponseCache(tmp_path / "cache")
    log = tmp_path / "cache" / "judge.log"
    digests = [f"d{i:03d}" for i in reversed(range(BLOCK_ENTRIES + 3))]
    for digest in digests:
        append_raw_entry(cache.root, "judge", digest, b"{torn")
    torn = len(log_blocks(log))

    def jobs():
        for i, digest in enumerate(digests[:-1]):
            yield digest, lambda: {"p_yes": 0.5}, none
            assert len(log_blocks(log)) == torn + (i >= BLOCK_ENTRIES - 1)
        yield "not-stored", fail, none  # a miss whose job stores nothing
        yield digests[-1], lambda: {"p_yes": 0.5}, none
        yield digests[-1], _unreachable, none  # a hit on the entry just stored

    def none(payload):
        return None

    def fail():
        raise ItemError("no answer")

    # Only the last job reads an entry that it accepts, so only it is served.
    assert cache.serve("judge", jobs(), max_workers=1, on_error=lambda index, error: None) == (
        [None] * (len(digests) + 2), 1)
    assert block_digests(log)[torn:] == [digests[:BLOCK_ENTRIES], digests[BLOCK_ENTRIES:]]


def test_a_failed_append_raises_at_the_store_that_fills_a_block(tmp_path, monkeypatch):
    def refuse(path, data):
        raise OSError(f"cannot append to {path}")

    cache = ResponseCache(tmp_path / "cache")
    for i in range(BLOCK_ENTRIES):
        append_raw_entry(cache.root, "judge", f"d{i}", b"{torn")
    cache.stored("judge")
    monkeypatch.setattr(cache_module, "_append", refuse)
    collected = []

    def jobs():
        for i in range(BLOCK_ENTRIES):
            yield f"d{i}", lambda: {"p_yes": 0.5}, lambda payload: None
            collected.append(i)

    with pytest.raises(OSError, match="cannot append"):
        cache.serve("judge", jobs(), max_workers=1)
    assert collected == list(range(BLOCK_ENTRIES - 1))


def test_a_raising_batch_logs_a_failed_append_and_keeps_its_own_error(tmp_path, monkeypatch,
                                                                      caplog):
    def refuse(path, data):
        raise OSError(f"cannot append to {path}")

    def fail():
        raise KeyError("the job's own")

    cache = ResponseCache(tmp_path / "cache")
    cache.stored("judge")
    monkeypatch.setattr(cache_module, "_append", refuse)
    jobs = iter([("d0", lambda: {"p_yes": 0.5}, lambda payload: None),
                 ("d1", fail, lambda payload: None)])
    with caplog.at_level("ERROR", logger="ontomatch.cache"):
        with pytest.raises(KeyError, match="the job's own"):
            cache.serve("judge", jobs, max_workers=1)
    assert any("cannot append" in m for m in caplog.messages)
    with pytest.raises(OSError, match="cannot append"):
        jobs = iter([("d1", lambda: {"p_yes": 0.5}, lambda payload: None)])
        cache.serve("judge", jobs, max_workers=1)
