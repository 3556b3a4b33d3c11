"""Content-addressed response cache: round-trips, corruption, get-or-compute,
batches, and the atomic writer every artifact goes through."""

import threading

import pytest

import ontomatch.cache as cache_module
from ontomatch.cache import ResponseCache, atomic_open


def test_put_get_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "abc123", {"text": "A définition."})
    assert cache.get("define", "abc123") == {"text": "A définition."}
    entry = tmp_path / "cache" / "define" / "abc123.json"
    assert entry.read_bytes() == '{"text": "A définition."}'.encode("utf-8")


def test_an_entry_larger_than_one_read_round_trips(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    payload = {"text": "é" * 50_000, "entries": {f"t{i}": -i / 7 for i in range(2_000)}}
    cache.put("define", "big", payload)
    assert (tmp_path / "cache" / "define" / "big.json").stat().st_size > 1 << 16
    assert cache.get("define", "big") == payload


def test_get_missing_returns_none(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("define", "nope") is None


def test_entries_are_namespaced_by_kind(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    cache.put("judge", "d1", {"p_yes": 0.5})
    assert cache.get("define", "d1")["text"] == "def"
    assert cache.get("judge", "d1")["p_yes"] == 0.5
    assert (tmp_path / "cache" / "define" / "d1.json").exists()
    assert (tmp_path / "cache" / "judge" / "d1.json").exists()


def test_corrupt_entry_is_discarded(tmp_path, caplog):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    path = tmp_path / "cache" / "define" / "d1.json"
    path.write_text("{truncated", encoding="utf-8")
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
    cache = ResponseCache(tmp_path / "cache")
    cache.put("judge", "d1", {"p_yes": 0.5})
    path = tmp_path / "cache" / "judge" / "d1.json"
    path.write_bytes(content)
    with caplog.at_level("WARNING"):
        assert cache.get("judge", "d1") is None
    assert any("discarding corrupt cache entry" in r.message for r in caplog.records)
    assert cache.get_or_compute("judge", "d1", lambda: {"p_yes": 0.25}) == {"p_yes": 0.25}
    assert cache.get("judge", "d1") == {"p_yes": 0.25}


def test_put_leaves_no_temporary_files(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    for i in range(20):
        cache.put("define", f"d{i}", {"text": str(i)})
    leftovers = list((tmp_path / "cache" / "define").glob("*.tmp"))
    assert leftovers == []
    assert len(list((tmp_path / "cache" / "define").glob("*.json"))) == 20


def test_put_overwrites_existing_entry(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "old"})
    cache.put("define", "d1", {"text": "new"})
    assert cache.get("define", "d1")["text"] == "new"


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


def test_stored_lists_only_json_entries(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    cache.put("define", "d2", {"text": "other"})
    kind_dir = tmp_path / "cache" / "define"
    # What a writer killed before its rename leaves, and other strays.
    (kind_dir / "tmp0123456789abcdef.tmp").write_text('{"text": "half')
    (kind_dir / "notes.txt").write_text("x")
    (kind_dir / "d3.json.bak").write_text("{}")
    assert cache.stored("define") == {"d1", "d2"}


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
    assert [p.name for p in (tmp_path / "cache" / "define").iterdir()] == ["d1.json"]


# -- batches: writes behind the callers ---------------------------------------------


def test_a_batch_put_is_read_from_memory_and_written_by_the_batch_end(tmp_path, monkeypatch):
    written = []
    real_write = cache_module._write

    def recorded_write(path, data):
        written.append(path)
        real_write(path, data)

    monkeypatch.setattr(cache_module, "_write", recorded_write)
    cache = ResponseCache(tmp_path / "cache")
    entry = tmp_path / "cache" / "define" / "d1.json"
    with cache.batch():
        cache.put("define", "d1", {"text": "A définition."})
        assert cache.get("define", "d1") == {"text": "A définition."}
        with pytest.raises(TypeError):
            cache.put("define", "d2", {"text": object()})
        with pytest.raises(RuntimeError, match="already open"):
            with cache.batch():
                pass
    assert written == [str(entry)]
    assert entry.read_bytes() == '{"text": "A définition."}'.encode("utf-8")
    assert ResponseCache(tmp_path / "cache").get("define", "d1") == {"text": "A définition."}


def test_a_batch_that_puts_nothing_starts_no_thread(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "d1", {"text": "def"})
    monkeypatch.setattr(threading.Thread, "start", refuse)
    with cache.batch():
        assert cache.get("define", "d1") == {"text": "def"}
