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


# Three rows share one direction, so their cosine ties; IRI order differs
# from input order.
TIED = {
    "http://t#E": [0.0, 1.0],
    "http://t#Z": [1.0, 1.0],
    "http://t#A": [1.0, 0.0],
    "http://t#M": [1.0, 1.0],
    "http://t#B": [1.0, 1.0],
}
TIED_RANKING = ["http://t#A", "http://t#B", "http://t#M", "http://t#Z", "http://t#E"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_exact_index_tie_group_at_and_across_rank_k_resolves_by_iri(k):
    # k=2 and k=3 cut the tied group B/M/Z; k=4 ends exactly on it;
    # k=5 is n and k=8 exceeds it.
    got = exact_index(TIED).top_k(np.array([1.0, 0.0]), k)
    assert [iri for iri, _ in got] == TIED_RANKING[:k]
    tied = [sim for iri, sim in got if iri in ("http://t#B", "http://t#M", "http://t#Z")]
    assert len(set(tied)) <= 1


def test_exact_index_single_vector():
    index = ExactIndex(["http://t#Only"], np.array([[0.6, 0.8]]))
    for k in (1, 3):
        got = index.top_k(np.array([0.0, 1.0]), k)
        assert [iri for iri, _ in got] == ["http://t#Only"]
        assert got[0][1] == pytest.approx(0.8, abs=1e-12)


def argsort_top_k(iris, matrix, query, k):
    """Reference ranking by a full stable argsort, with ExactIndex's arithmetic."""
    order = sorted(range(len(iris)), key=lambda i: iris[i])
    rows = np.asarray(matrix, dtype=np.float64)[order]
    norms = np.linalg.norm(rows, axis=1)
    sims = np.clip((rows @ query) / (norms * float(np.linalg.norm(query))), -1.0, 1.0)
    return [(iris[order[i]], float(sims[i])) for i in np.argsort(-sims, kind="stable")[:k]]


def test_exact_index_matches_oracle_with_planted_duplicates():
    rng = np.random.default_rng(505)
    for _ in range(40):
        dim = int(rng.integers(2, 17))
        n = int(rng.integers(2, 200))
        # Few distinct rows, so most ranks sit inside a group of tied rows.
        # Small integers keep every dot product exact: BLAS may round the
        # same row differently at different positions, which would split
        # a tie by one ulp.
        distinct = rng.integers(-3, 4, size=(int(rng.integers(1, 9)), dim)).astype(float)
        distinct[:, 0] = np.where(distinct[:, 0] == 0, 1.0, distinct[:, 0])  # no zero rows
        matrix = distinct[rng.integers(0, len(distinct), size=n)]
        iris = [f"http://x#{j:04d}" for j in rng.permutation(n)]
        query = rng.integers(-3, 4, size=dim).astype(float)
        query[0] = query[0] or 1.0
        k = int(rng.integers(1, n + 3))
        got = ExactIndex(iris, matrix).top_k(query, k)
        assert got == argsort_top_k(iris, matrix, query, k)
        want = oracles.brute_force_top_k(list(zip(iris, matrix.tolist())), query.tolist(), k)
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
    iris = list(FIVE)
    index = build_index(iris, np.array([FIVE[i] for i in iris]))
    assert isinstance(index, ExactIndex)
    query = np.array([1.0, 0.0])
    assert index.top_k(query, 5) == exact_index().top_k(query, 5)
    with pytest.raises(ValueError):
        build_index([], np.empty((0, 2)))


# -- candidate generation ---------------------------------------------------------


def test_generate_candidates_sorted_by_query_iri():
    index = exact_index()
    iris = ["http://s#S2", "http://s#S1"]
    out = generate_candidates(iris, np.array([[0.0, 1.0], [1.0, 0.0]]), index, k=2)
    assert list(out) == ["http://s#S1", "http://s#S2"]
    assert [iri for iri, _ in out["http://s#S1"]] == ["http://t#A", "http://t#B"]
    assert [iri for iri, _ in out["http://s#S2"]] == ["http://t#C", "http://t#D"]


def test_generate_candidates_degenerate_query_yields_empty(caplog):
    index = exact_index()
    iris = ["http://s#Bad", "http://s#Ok"]
    with caplog.at_level("WARNING"):
        out = generate_candidates(iris, np.array([[0.0, 0.0], [1.0, 0.0]]), index, k=2)
    assert out["http://s#Bad"] == []
    assert len(out["http://s#Ok"]) == 2
    assert any("degenerate" in r.message for r in caplog.records)


INDEX_CLASSES = pytest.mark.parametrize(
    "index_cls", [ExactIndex, HnswIndex], ids=["exact", "hnsw"]
)


@INDEX_CLASSES
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_k_rejects_non_finite_query(index_cls, bad):
    index = index_cls(list(FIVE), np.array([FIVE[i] for i in FIVE]))
    with pytest.raises(DegenerateVectorError, match="non-finite"):
        index.top_k(np.array([1.0, bad]), 3)


@INDEX_CLASSES
def test_generate_candidates_non_finite_query_yields_empty(index_cls, caplog):
    index = index_cls(list(FIVE), np.array([FIVE[i] for i in FIVE]))
    iris = ["http://s#Inf", "http://s#NaN", "http://s#Ok"]
    queries = np.array([[np.inf, 0.0], [np.nan, 1.0], [1.0, 0.0]])
    with caplog.at_level("WARNING"):
        out = generate_candidates(iris, queries, index, k=2)
    assert out["http://s#Inf"] == [] and out["http://s#NaN"] == []
    assert [iri for iri, _ in out["http://s#Ok"]] == ["http://t#A", "http://t#B"]
    assert sum("degenerate" in r.message for r in caplog.records) == 2


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


def test_load_embeddings_rejects_an_empty_npy_with_value_error(tmp_path):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A"], np.eye(1, 2), model="m")
    npy_path, _ = embedding_paths(base)
    npy_path.write_bytes(b"")
    with pytest.raises(ValueError, match="malformed embedding entry"):
        load_embeddings(base)


@pytest.mark.parametrize("key", ["count", "dimension", "iris", "content_digest"])
def test_load_embeddings_rejects_a_missing_sidecar_key_with_value_error(tmp_path, key):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A", "http://t#B"], np.eye(2), model="m")
    _, json_path = embedding_paths(base)
    sidecar = json.loads(json_path.read_text())
    del sidecar[key]
    json_path.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="malformed embedding entry"):
        load_embeddings(base)


def test_save_embeddings_failure_keeps_the_old_sidecar_and_leaves_no_temporary(tmp_path):
    base = tmp_path / "emb"
    save_embeddings(base, ["http://t#A", "http://t#B"], np.eye(2), model="m")
    _, json_path = embedding_paths(base)
    old = json_path.read_bytes()
    with pytest.raises(TypeError):
        save_embeddings(base, ["http://t#A", "http://t#B"], 2 * np.eye(2), model=object())
    assert json_path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.json", "emb.npy"]
    # The new .npy beside the old sidecar is a torn pair, and it is reported.
    with pytest.raises(ValueError, match="content_digest"):
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
