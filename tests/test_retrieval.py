"""Retrieval: cosine, exact and graph indexes, candidate IO, embedding files."""

import io
import math
import random
import re
import zipfile

import numpy as np
import pytest

from ontomatch.errors import ItemError, OntologyParseError
from ontomatch.retrieval import (
    ExactIndex,
    HnswIndex,
    HnswParams,
    build_index,
    cosine,
    generate_candidates,
    load_embeddings,
    merge_candidate_maps,
    normed_cosine,
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
    with pytest.raises(ItemError):
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


def test_normed_cosine_equals_cosine_bit_for_bit():
    """Given the vectors' norms, normed_cosine is cosine's value, clamp and
    zero-norm error included."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.normal(size=(2, int(rng.integers(2, 64))))
        for x, y in ((a, b), (a, a), (a, -a)):
            expected = cosine(x, y)
            got = normed_cosine(x, float(np.linalg.norm(x)), y, float(np.linalg.norm(y)))
            assert got.hex() == expected.hex()
    with pytest.raises(ItemError, match="zero-norm"):
        normed_cosine(np.zeros(3), 0.0, np.ones(3), math.sqrt(3.0))


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
    with pytest.raises(ItemError):
        idx.top_k(np.zeros(2), 3)
    with pytest.raises(ItemError):
        ExactIndex(["http://t#A"], np.zeros((1, 4)))
    with pytest.raises(ValueError):
        ExactIndex(["http://t#A"], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        ExactIndex([], np.zeros((0, 4)))
    assert len(idx) == len(FIVE)


@pytest.mark.parametrize("index_cls", [ExactIndex, HnswIndex])
@pytest.mark.parametrize("matrix", [np.ones((3, 4)), np.ones((1, 4)), np.ones(4)])
def test_an_index_rejects_a_matrix_that_does_not_match_its_iris(index_cls, matrix):
    """The shape is checked before the rows are sorted by IRI, a sort that
    would drop extra rows and fail on missing ones with an ``IndexError``."""
    with pytest.raises(ValueError, match=r"matrix must be \(n_iris, dimension\)"):
        index_cls(["http://t#B", "http://t#A"], matrix)


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
    with pytest.raises(ItemError):
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
    with pytest.raises(ItemError, match="non-finite"):
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
    # Sources out of IRI order in both maps come out in IRI order.
    forward = {
        "http://s#S3": [("http://t#B", 0.4)],
        "http://s#S1": [("http://t#B", 0.5), ("http://t#A", 0.7)],
    }
    backward = {
        "http://t#C": [("http://s#S2", 0.6), ("http://s#S1", 0.5)],
        "http://t#A": [("http://s#S3", 0.4), ("http://s#S1", 0.6)],
    }
    merged = merge_candidate_maps(forward, backward)
    assert list(merged) == ["http://s#S1", "http://s#S2", "http://s#S3"]
    assert merged == {
        "http://s#S1": [("http://t#A", 0.7), ("http://t#B", 0.5), ("http://t#C", 0.5)],
        "http://s#S2": [("http://t#C", 0.6)],
        "http://s#S3": [("http://t#A", 0.4), ("http://t#B", 0.4)],
    }


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


def test_save_load_embeddings_round_trip(tmp_path):
    path = tmp_path / "target.embeddings.npz"
    iris = ["http://t#B", "http://t#Å", "http://t#A"]
    matrix = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]], dtype=np.float32)
    save_embeddings(path, iris, matrix)
    got_iris, got_matrix = load_embeddings(path)
    assert got_iris == ["http://t#A", "http://t#B", "http://t#Å"]
    assert got_matrix.dtype == np.float64
    assert np.array_equal(got_matrix, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    with zipfile.ZipFile(path) as npz:  # stored, with the IRIs as UTF-8 bytes
        assert [(i.filename, i.compress_type) for i in npz.infolist()] == [
            ("iris.npy", zipfile.ZIP_STORED), ("matrix.npy", zipfile.ZIP_STORED)]
    with np.load(path) as npz:
        assert npz["iris"].tolist() == [b"http://t#A", b"http://t#B", "http://t#Å".encode()]
    again = tmp_path / "again.npz"
    save_embeddings(again, iris, matrix)
    assert again.read_bytes() == path.read_bytes()


def _saved(tmp_path):
    path = tmp_path / "emb.npz"
    save_embeddings(path, ["http://t#A", "http://t#B"], np.eye(2))
    return path


def test_load_embeddings_rejects_a_flipped_matrix_byte_through_the_crc(tmp_path):
    path = _saved(tmp_path)
    raw = bytearray(path.read_bytes())
    at = raw.find(np.eye(2).tobytes())
    assert at > 0
    raw[at + 31] ^= 0x01  # one bit of the last matrix entry; every header still parses
    path.write_bytes(bytes(raw))
    with pytest.raises(OntologyParseError, match="Bad CRC-32 for file 'matrix.npy'"):
        load_embeddings(path)


def _bare_npy(path):
    with open(path, "wb") as fp:
        np.save(fp, np.eye(2))


MALFORMED = {
    "bare-npy": _bare_npy,
    "empty": lambda path: path.write_bytes(b""),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "no-iris": lambda path: np.savez(path, matrix=np.eye(2)),
    "no-matrix": lambda path: np.savez(path, iris=np.array([b"http://t#A"])),
    "not-utf8": lambda path: np.savez(path, iris=np.array([b"\xff"]), matrix=np.eye(1, 2)),
    "pickled": lambda path: np.savez(path, iris=np.array(["http://t#A"], dtype=object),
                                     matrix=np.eye(1, 2)),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_load_embeddings_rejects_a_malformed_file_with_value_error(tmp_path, fault):
    """Every fault raises an ``OntologyParseError`` that names the file."""
    path = _saved(tmp_path)
    MALFORMED[fault](path)
    with pytest.raises(OntologyParseError, match=re.escape(f"malformed embedding file {path}")):
        load_embeddings(path)


def test_load_embeddings_rejects_iri_count_mismatch(tmp_path):
    path = tmp_path / "emb.npz"
    np.savez(path, iris=np.array([b"http://t#A"]), matrix=np.eye(2))
    with pytest.raises(OntologyParseError, match=r"matrix of shape \(2, 2\) for 1 IRIs"):
        load_embeddings(path)


def test_load_embeddings_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "emb.npz"
    np.savez(path, iris=np.array([b"http://t#A", b"http://t#B"]), matrix=np.ones(2))
    with pytest.raises(OntologyParseError, match=r"matrix of shape \(2,\) for 2 IRIs"):
        load_embeddings(path)


@pytest.mark.parametrize("matrix", [np.eye(3), np.ones((0, 3)), np.ones(1), np.ones((1, 1, 1))],
                         ids=["more-rows", "no-rows", "1-d", "3-d"])
def test_save_embeddings_rejects_a_matrix_without_one_row_per_iri(tmp_path, matrix):
    with pytest.raises(ValueError, match=r"a matrix of shape \(.*\) for 1 IRIs"):
        save_embeddings(tmp_path / "emb.npz", ["http://t#A"], matrix)
    assert list(tmp_path.iterdir()) == []


def test_save_embeddings_failure_keeps_the_old_file_and_leaves_no_temporary(tmp_path,
                                                                           monkeypatch):
    path = _saved(tmp_path)
    old = path.read_bytes()

    def torn_savez(fp, **arrays):
        fp.write(old[:100])
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError):
        save_embeddings(path, ["http://t#A", "http://t#B"], 2 * np.eye(2))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["emb.npz"]
