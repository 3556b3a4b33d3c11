"""Retrieval: cosine, exact and graph indexes, candidate IO, embedding files."""

import io
import json
import math
import random

import numpy as np
import pytest

from ontomatch.errors import DegenerateVectorError, OntologyParseError
from ontomatch.retrieval import (
    ExactIndex,
    HnswIndex,
    HnswParams,
    build_index,
    cosine,
    embedding_paths,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    read_candidates,
    save_embeddings,
    write_candidates,
)

import oracles


def test_cosine_hand_values():
    assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-9
    )
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == -1.0


def test_cosine_is_clamped():
    v = np.full(64, 0.125)
    assert cosine(v, v) <= 1.0
    assert cosine(v, -v) >= -1.0


def test_cosine_rejects_zero_vectors_and_shape_mismatch():
    with pytest.raises(DegenerateVectorError):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


def test_cosine_agrees_with_oracle_on_random_vectors():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randint(2, 32)
        a = [rng.uniform(-1, 1) for _ in range(dim)]
        b = [rng.uniform(-1, 1) for _ in range(dim)]
        assert cosine(np.array(a), np.array(b)) == pytest.approx(
            oracles.cosine(a, b), abs=1e-12
        )


# -- exact index ---------------------------------------------------------------


FIVE = {
    "http://t#A": [1.0, 0.0],
    "http://t#B": [0.9, 0.1],
    "http://t#C": [0.0, 1.0],
    "http://t#D": [1.0, 1.0],
    "http://t#E": [-1.0, 0.0],
}


def exact_index(vectors=FIVE) -> ExactIndex:
    return ExactIndex(list(vectors), np.array([vectors[i] for i in vectors]))


def test_exact_index_hand_computed_ranking():
    got = exact_index().top_k(np.array([1.0, 0.0]), 5)
    assert [iri for iri, _ in got] == [
        "http://t#A", "http://t#B", "http://t#D", "http://t#C", "http://t#E",
    ]
    sims = dict(got)
    assert sims["http://t#A"] == pytest.approx(1.0, abs=1e-12)
    assert sims["http://t#B"] == pytest.approx(0.9 / math.hypot(0.9, 0.1), abs=1e-12)
    assert sims["http://t#D"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert sims["http://t#C"] == pytest.approx(0.0, abs=1e-12)
    assert sims["http://t#E"] == pytest.approx(-1.0, abs=1e-12)


def test_exact_index_breaks_ties_by_ascending_iri():
    vectors = {
        "http://t#Z": [1.0, 0.0],
        "http://t#B": [1.0, 0.0],
        "http://t#M": [2.0, 0.0],  # same direction, same cosine
    }
    got = exact_index(vectors).top_k(np.array([1.0, 0.0]), 3)
    assert [iri for iri, _ in got] == ["http://t#B", "http://t#M", "http://t#Z"]


def test_exact_index_k_larger_than_n_returns_all():
    assert len(exact_index().top_k(np.array([1.0, 0.0]), 50)) == len(FIVE)


def test_exact_index_input_validation():
    idx = exact_index()
    with pytest.raises(ValueError):
        idx.top_k(np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError):
        idx.top_k(np.array([1.0, 0.0, 0.0]), 3)
    with pytest.raises(DegenerateVectorError):
        idx.top_k(np.zeros(2), 3)
    with pytest.raises(DegenerateVectorError):
        ExactIndex(["http://t#A"], np.zeros((1, 4)))
    with pytest.raises(ValueError):
        ExactIndex(["http://t#A"], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        ExactIndex([], np.zeros((0, 4)))
    assert len(idx) == len(FIVE)


def test_exact_index_matches_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(25):
        dim = rng.choice([4, 8, 16])
        n = rng.randint(3, 60)
        items = [
            (f"http://x#{rng.randrange(10**6):06d}-{i}",
             [rng.gauss(0, 1) for _ in range(dim)])
            for i in range(n)
        ]
        index = ExactIndex([iri for iri, _ in items],
                           np.array([vec for _, vec in items]))
        query = np.array([rng.gauss(0, 1) for _ in range(dim)])
        k = rng.randint(1, n)
        got = index.top_k(query, k)
        want = oracles.brute_force_top_k(items, list(query), k)
        assert [iri for iri, _ in got] == [iri for iri, _ in want]
        for (_, sim), (_, ref) in zip(got, want):
            assert sim == pytest.approx(ref, abs=1e-9)


# -- hnsw index ------------------------------------------------------------------


def unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_hnsw_params_validation():
    HnswParams(m=2, ef_construction=2, ef_search=1)
    with pytest.raises(ValueError):
        HnswParams(m=1)
    with pytest.raises(ValueError):
        HnswParams(m=16, ef_construction=8)
    with pytest.raises(ValueError):
        HnswParams(ef_search=0)


def test_hnsw_small_index_is_exhaustive():
    # ef_search far above n, so the graph search visits everything
    idx = HnswIndex(list(FIVE), np.array([FIVE[i] for i in FIVE]))
    got = idx.top_k(np.array([1.0, 0.0]), 5)
    assert [iri for iri, _ in got] == [
        "http://t#A", "http://t#B", "http://t#D", "http://t#C", "http://t#E",
    ]


def test_hnsw_recall_against_oracle():
    n, dim, queries, k = 200, 32, 30, 10
    matrix = unit_rows(n, dim, seed=7)
    iris = [f"http://x#{i:04d}" for i in range(n)]
    idx = HnswIndex(iris, matrix)
    exact = ExactIndex(iris, matrix)
    total = 0.0
    for q in unit_rows(queries, dim, seed=8):
        approx_ids = [iri for iri, _ in idx.top_k(q, k)]
        exact_ids = [iri for iri, _ in exact.top_k(q, k)]
        total += oracles.recall_at_k(approx_ids, exact_ids)
    assert total / queries >= 0.95


def test_hnsw_construction_is_deterministic():
    matrix = unit_rows(120, 16, seed=3)
    iris = [f"http://x#{i:04d}" for i in range(120)]
    a = HnswIndex(iris, matrix, HnswParams(seed=5))
    b = HnswIndex(iris, matrix, HnswParams(seed=5))
    q = unit_rows(1, 16, seed=9)[0]
    assert a.top_k(q, 10) == b.top_k(q, 10)
    assert a._neighbors == b._neighbors


def test_hnsw_insertion_order_is_iri_not_input_order():
    matrix = unit_rows(50, 8, seed=1)
    iris = [f"http://x#{i:04d}" for i in range(50)]
    shuffled = list(zip(iris, matrix))
    random.Random(0).shuffle(shuffled)
    a = HnswIndex(iris, matrix)
    b = HnswIndex([i for i, _ in shuffled], np.array([v for _, v in shuffled]))
    q = unit_rows(1, 8, seed=2)[0]
    assert a.top_k(q, 5) == b.top_k(q, 5)


def test_hnsw_validates_queries():
    idx = HnswIndex(list(FIVE), np.array([FIVE[i] for i in FIVE]))
    with pytest.raises(ValueError):
        idx.top_k(np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError):
        idx.top_k(np.ones(3), 2)
    with pytest.raises(DegenerateVectorError):
        idx.top_k(np.zeros(2), 2)
    assert len(idx) == len(FIVE)


def test_build_index_dispatch():
    vectors = {iri: np.array(v) for iri, v in FIVE.items()}
    assert build_index(vectors, kind="exact").kind == "exact"
    assert build_index(vectors, kind="hnsw").kind == "hnsw"
    with pytest.raises(ValueError):
        build_index(vectors, kind="faiss")
    with pytest.raises(ValueError):
        build_index({}, kind="exact")


# -- candidate generation ---------------------------------------------------------


def test_generate_candidates_sorted_by_query_iri():
    index = exact_index()
    queries = {
        "http://s#S2": np.array([0.0, 1.0]),
        "http://s#S1": np.array([1.0, 0.0]),
    }
    out = generate_candidates(queries, index, k=2)
    assert list(out) == ["http://s#S1", "http://s#S2"]
    assert [iri for iri, _ in out["http://s#S1"]] == ["http://t#A", "http://t#B"]
    assert [iri for iri, _ in out["http://s#S2"]] == ["http://t#C", "http://t#D"]


def test_generate_candidates_degenerate_query_yields_empty(caplog):
    index = exact_index()
    queries = {"http://s#Bad": np.zeros(2), "http://s#Ok": np.array([1.0, 0.0])}
    with caplog.at_level("WARNING"):
        out = generate_candidates(queries, index, k=2)
    assert out["http://s#Bad"] == []
    assert len(out["http://s#Ok"]) == 2
    assert any("degenerate" in r.message for r in caplog.records)


def test_merge_candidate_maps_folds_backward_into_forward():
    forward = {"http://s#S1": [("http://t#T1", 0.8), ("http://t#T2", 0.6)]}
    backward = {
        "http://t#T1": [("http://s#S1", 0.9)],   # duplicate pair, higher sim
        "http://t#T3": [("http://s#S2", 0.7)],   # new source from backward pass
    }
    merged = merge_candidate_maps(forward, backward)
    assert list(merged) == ["http://s#S1", "http://s#S2"]
    assert merged["http://s#S1"] == [("http://t#T1", 0.9), ("http://t#T2", 0.6)]
    assert merged["http://s#S2"] == [("http://t#T3", 0.7)]


def test_merge_candidate_maps_orders_by_similarity_then_target():
    forward = {"http://s#S1": [("http://t#B", 0.5), ("http://t#A", 0.5),
                               ("http://t#C", 0.9)]}
    merged = merge_candidate_maps(forward, {})
    assert merged["http://s#S1"] == [
        ("http://t#C", 0.9), ("http://t#A", 0.5), ("http://t#B", 0.5),
    ]


def test_candidates_tsv_round_trip():
    candidates = {
        "http://s#S1": [("http://t#T1", 0.99908804), ("http://t#T2", 0.5)],
        "http://s#S2": [("http://t#T1", 0.25)],
    }
    buf = io.StringIO()
    write_candidates(candidates, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "SrcEntity\tTgtEntity\tRank\tCosine"
    assert lines[1] == "http://s#S1\thttp://t#T1\t1\t0.99908804"
    assert lines[2] == "http://s#S1\thttp://t#T2\t2\t0.50000000"
    assert read_candidates(io.StringIO(buf.getvalue())) == candidates


def test_read_candidates_rejects_malformed_rows():
    with pytest.raises(OntologyParseError) as exc:
        read_candidates(io.StringIO("a\tb\t1\n"))
    assert exc.value.line == 1


# -- embedding persistence ---------------------------------------------------------


def test_embedding_paths_append_suffixes_to_dotted_bases(tmp_path):
    npy, sidecar = embedding_paths(tmp_path / "out" / "source.embeddings")
    assert npy.name == "source.embeddings.npy"
    assert sidecar.name == "source.embeddings.json"
    plain_npy, plain_json = embedding_paths(tmp_path / "plain")
    assert plain_npy.name == "plain.npy"
    assert plain_json.name == "plain.json"


def test_save_load_embeddings_round_trip(tmp_path):
    base = tmp_path / "target.embeddings"
    iris = ["http://t#B", "http://t#A", "http://t#C"]
    matrix = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    save_embeddings(base, iris, matrix, model="mock-embed-d2-s0")
    got_iris, got_matrix, sidecar = load_embeddings(base)
    assert got_iris == ["http://t#A", "http://t#B", "http://t#C"]
    assert np.array_equal(got_matrix[0], [1.0, 0.0])
    assert np.array_equal(got_matrix[1], [0.0, 1.0])
    assert sidecar["model"] == "mock-embed-d2-s0"
    assert sidecar["dimension"] == 2
    assert sidecar["count"] == 3
    assert len(sidecar["content_digest"]) == 64


def test_save_embeddings_digest_tracks_file_contents(tmp_path):
    import hashlib

    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A"], np.array([[1.0, 0.0]]), model="m")
    npy_path, json_path = embedding_paths(base)
    sidecar = json.loads(json_path.read_text())
    assert sidecar["content_digest"] == hashlib.sha256(npy_path.read_bytes()).hexdigest()


def test_load_embeddings_rejects_shape_mismatch(tmp_path):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A", "http://t#B"],
                    np.eye(2), model="m")
    npy_path, _ = embedding_paths(base)
    np.save(npy_path, np.eye(3))
    with pytest.raises(ValueError, match="disagrees"):
        load_embeddings(base)


def test_load_embeddings_rejects_iri_count_mismatch(tmp_path):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A", "http://t#B"], np.eye(2), model="m")
    _, json_path = embedding_paths(base)
    sidecar = json.loads(json_path.read_text())
    sidecar["iris"] = sidecar["iris"][:1]
    json_path.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="IRI list"):
        load_embeddings(base)


def test_load_embeddings_rejects_content_digest_mismatch(tmp_path):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A", "http://t#B"], np.eye(2), model="m")
    npy_path, _ = embedding_paths(base)
    raw = bytearray(npy_path.read_bytes())
    raw[-1] ^= 0x01  # one bit of the last matrix entry; shape and count still agree
    npy_path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="content_digest"):
        load_embeddings(base)
