"""Content-addressed response cache: round-trips, corruption, single-flight."""

import sys
import threading
import time
from collections import Counter

from ontomatch.cache import ResponseCache


def test_put_get_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("define", "abc123", {"text": "A definition.", "model": "m"})
    got = cache.get("define", "abc123")
    assert got["text"] == "A definition."
    assert got["model"] == "m"
    assert got["digest"] == "abc123"
    assert "created_at" in got


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


def test_get_or_compute_single_flight_under_threads(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    calls = []
    gate = threading.Barrier(8)

    def compute():
        calls.append(1)
        return {"text": "computed"}

    results = []

    def worker():
        gate.wait()
        results.append(cache.get_or_compute("judge", "shared", compute))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert len(results) == 8
    assert all(r["text"] == "computed" for r in results)


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
    assert got["digest"] == "d1"
    assert "created_at" in got


def test_get_or_compute_returns_written_record_without_reading_back(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    reads = []
    real_get = cache.get

    def counted_get(kind, digest):
        reads.append(digest)
        return real_get(kind, digest)

    monkeypatch.setattr(cache, "get", counted_get)
    got = cache.get_or_compute("judge", "d1", lambda: {"entries": {"YES": -0.5, "NO": -1.0}})
    assert reads == ["d1", "d1"]  # the check before the lock and the one under it
    assert got == real_get("judge", "d1")


def test_contains_checks_for_the_entry_file(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert not cache.contains("define", "d1")
    cache.put("define", "d1", {"text": "def"})
    assert cache.contains("define", "d1")
    assert not cache.contains("judge", "d1")


def test_get_or_compute_drops_per_digest_locks(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    computed = Counter()
    counted = threading.Lock()
    gate = threading.Barrier(8)

    def compute_for(digest):
        def compute():
            with counted:
                computed[digest] += 1
            time.sleep(0.001)
            return {"text": digest}
        return compute

    def worker(n):
        gate.wait()
        for i in range(50):
            digest = f"d{(i + n) % 20}"
            cache.get_or_compute("judge", digest, compute_for(digest))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert computed == Counter({f"d{i}": 1 for i in range(20)})
    assert cache._locks == {}
