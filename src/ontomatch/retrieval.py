"""Embedding-based candidate retrieval.

Both index kinds rank stored items by cosine similarity to a query with a
fixed tie-break: equal similarities order by ascending IRI byte order. The
pipeline retrieves with the exact index only: ``build_index`` always returns
an ``ExactIndex``, a full numpy scan. ``HnswIndex`` (with ``HnswParams``), a
seeded, self-contained small-world graph whose recall is approximate, remains
a library class that no pipeline path reaches; it is to be deleted with the
benchmark revision of ROADMAP item 1.

An embedding matrix is stored as one uncompressed ``.npz`` of its IRIs and
vectors, sorted by IRI (``save_embeddings``/``load_embeddings``); the zip
checks each member's CRC-32 on load, and one rename writes the file.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .cache import atomic_open
from .errors import ItemError, OntologyParseError
from .model import read_tsv_rows

logger = logging.getLogger(__name__)

__all__ = [
    "cosine",
    "normed_cosine",
    "HnswParams",
    "ExactIndex",
    "HnswIndex",
    "build_index",
    "generate_candidates",
    "merge_candidate_maps",
    "write_candidates",
    "read_candidates",
    "save_embeddings",
    "load_embeddings",
]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return normed_cosine(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def normed_cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """``cosine`` of two float64 vectors of one length whose norms are ``na``
    and ``nb``: one ``np.dot``, and no conversion or check of the vectors."""
    if na == 0.0 or nb == 0.0:
        raise ItemError("cosine of a zero-norm vector is undefined")
    return max(-1.0, min(1.0, float(np.dot(a, b) / (na * nb))))


@dataclass(frozen=True)
class HnswParams:
    m: int = 16
    ef_construction: int = 200
    ef_search: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < self.m:
            raise ValueError("ef_construction must be >= m")
        if self.ef_search < 1:
            raise ValueError("ef_search must be >= 1")


def _validate_vectors(iris: Sequence[str], matrix: np.ndarray) -> None:
    if len(iris) == 0:
        raise ValueError("index requires at least one vector")
    if matrix.ndim != 2 or matrix.shape[0] != len(iris):
        raise ValueError("matrix must be (n_iris, dimension)")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("index vectors must be finite")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        bad = [iris[i] for i in np.nonzero(norms == 0.0)[0][:5]]
        raise ItemError(f"zero-norm vectors for {bad}")


def _validate_query(query: np.ndarray, k: int, dimension: int) -> tuple[np.ndarray, float]:
    """Return ``(query as float64, its norm)``; a non-finite or zero-norm
    query raises ``ItemError``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dimension,):
        raise ValueError(f"query has shape {query.shape}, expected ({dimension},)")
    if not np.all(np.isfinite(query)):
        raise ItemError("non-finite query vector")
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ItemError("zero-norm query vector")
    return query, qnorm


class ExactIndex:
    """Brute-force cosine ranking over all stored vectors."""

    def __init__(self, iris: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        _validate_vectors(iris, matrix)  # before the sort, which would drop extra rows
        order = sorted(range(len(iris)), key=lambda i: iris[i])
        self.iris, self._matrix = [iris[i] for i in order], matrix[order]
        self.dimension = int(self._matrix.shape[1])
        self._norms = np.linalg.norm(self._matrix, axis=1)

    def __len__(self) -> int:
        return len(self.iris)

    def top_k(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        query, qnorm = _validate_query(query, k, self.dimension)
        sims = np.clip((self._matrix @ query) / (self._norms * qnorm), -1.0, 1.0)
        n = len(sims)
        if k < n:
            # Keep every row tied with the k-th largest value, so a tie that
            # straddles rank k is still decided by IRI below.
            kth = np.partition(sims, n - k)[n - k]
            rows = np.flatnonzero(sims >= kth)
        else:
            rows = np.arange(n)
        # rows are pre-sorted by IRI, so a stable sort on -sims breaks ties
        # by ascending IRI byte order.
        order = rows[np.argsort(-sims[rows], kind="stable")[:k]]
        return [(self.iris[i], float(sims[i])) for i in order]


class HnswIndex:
    """Hierarchical navigable small-world graph over unit vectors.

    Construction is deterministic for a given (iris, matrix, params): level
    draws come from a seeded RNG and insertion follows ascending IRI order.
    Distances are ``1 - cosine`` on L2-normalized vectors.
    """

    def __init__(self, iris: Sequence[str], matrix: np.ndarray, params: HnswParams = HnswParams()):
        raw = np.asarray(matrix, dtype=np.float64)
        _validate_vectors(iris, raw)  # before the sort, which would drop extra rows
        order = sorted(range(len(iris)), key=lambda i: iris[i])
        self.iris, raw = [iris[i] for i in order], raw[order]
        self.dimension = int(raw.shape[1])
        self.params = params
        self._unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        self._level_mult = 1.0 / math.log(params.m)
        # _neighbors[node][level] -> list of neighbor node ids
        self._neighbors: list[list[list[int]]] = []
        self._entry: int | None = None
        self._top_level = -1
        rng = random.Random(params.seed)
        for node in range(len(self.iris)):
            self._insert(node, rng)

    def __len__(self) -> int:
        return len(self.iris)

    def _distance(self, query: np.ndarray, node: int) -> float:
        return 1.0 - float(np.dot(self._unit[node], query))

    def _distances(self, query: np.ndarray, nodes: Sequence[int]) -> np.ndarray:
        return 1.0 - self._unit[list(nodes)] @ query

    def _draw_level(self, rng: random.Random) -> int:
        u = rng.random()
        while u <= 0.0:  # guard against log(0)
            u = rng.random()
        return int(-math.log(u) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entries: list[int], ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Best-first expansion; returns up to ef (distance, node) pairs sorted."""
        visited = set(entries)
        candidates: list[tuple[float, int]] = []
        results: list[tuple[float, int]] = []  # max-heap via negated distance
        for node in entries:
            d = self._distance(query, node)
            heapq.heappush(candidates, (d, node))
            heapq.heappush(results, (-d, node))
        while candidates:
            d, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if d > worst and len(results) >= ef:
                break
            fresh = [n for n in self._neighbors[node][level] if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            dists = self._distances(query, fresh)
            for neighbor, nd in zip(fresh, dists):
                nd = float(nd)
                if len(results) < ef or nd < -results[0][0]:
                    heapq.heappush(candidates, (nd, neighbor))
                    heapq.heappush(results, (-nd, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted(((-d, n) for d, n in results), key=lambda t: (t[0], t[1]))

    def _select_neighbors(self, pool: list[tuple[float, int]], m: int) -> list[int]:
        return [n for _, n in sorted(pool, key=lambda t: (t[0], t[1]))[:m]]

    def _insert(self, node: int, rng: random.Random) -> None:
        level = self._draw_level(rng)
        self._neighbors.append([[] for _ in range(level + 1)])
        if self._entry is None:
            self._entry = node
            self._top_level = level
            return
        query = self._unit[node]
        current = self._entry
        for lvl in range(self._top_level, level, -1):
            current = self._greedy_step(query, current, lvl)
        entries = [current]
        max_link0 = 2 * self.params.m
        for lvl in range(min(level, self._top_level), -1, -1):
            found = self._search_layer(query, entries, self.params.ef_construction, lvl)
            chosen = self._select_neighbors(found, self.params.m)
            self._neighbors[node][lvl] = list(chosen)
            cap = max_link0 if lvl == 0 else self.params.m
            for other in chosen:
                links = self._neighbors[other][lvl]
                links.append(node)
                if len(links) > cap:
                    pool = [(self._distance(self._unit[other], n), n) for n in links]
                    self._neighbors[other][lvl] = self._select_neighbors(pool, cap)
            entries = [n for _, n in found]
        if level > self._top_level:
            self._entry = node
            self._top_level = level

    def _greedy_step(self, query: np.ndarray, start: int, level: int) -> int:
        current = start
        current_d = self._distance(query, current)
        improved = True
        while improved:
            improved = False
            neighbors = self._neighbors[current][level]
            if not neighbors:
                break
            dists = self._distances(query, neighbors)
            best = int(np.argmin(dists))
            if float(dists[best]) < current_d:
                current = neighbors[best]
                current_d = float(dists[best])
                improved = True
        return current

    def top_k(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        query, qnorm = _validate_query(query, k, self.dimension)
        unit_q = query / qnorm
        assert self._entry is not None
        current = self._entry
        for lvl in range(self._top_level, 0, -1):
            current = self._greedy_step(unit_q, current, lvl)
        ef = max(self.params.ef_search, k)
        found = self._search_layer(unit_q, [current], ef, 0)
        out = []
        for d, node in found[:k]:
            sim = max(-1.0, min(1.0, 1.0 - d))
            out.append((self.iris[node], sim))
        return out


def build_index(iris: Sequence[str], matrix: np.ndarray) -> ExactIndex:
    """Build the exact retrieval index over ``matrix``, whose row i is the
    vector of ``iris[i]``."""
    return ExactIndex(iris, matrix)


def generate_candidates(
    iris: Sequence[str],
    matrix: np.ndarray,
    index,
    k: int = 10,
) -> dict[str, list[tuple[str, float]]]:
    """Top-k candidates for each query concept ``iris[i]``, whose vector is
    row i of ``matrix``, in ascending query-IRI order.

    Zero-norm or non-finite query vectors are flagged and produce an empty
    candidate list rather than failing the whole run.
    """
    out: dict[str, list[tuple[str, float]]] = {}
    for iri, query in sorted(zip(iris, matrix, strict=True), key=lambda row: row[0]):
        try:
            out[iri] = index.top_k(query, k)
        except ItemError:
            logger.warning("query %s has a degenerate embedding; no candidates", iri)
            out[iri] = []
    return out


def merge_candidate_maps(
    forward: Mapping[str, list[tuple[str, float]]],
    backward: Mapping[str, list[tuple[str, float]]],
) -> dict[str, list[tuple[str, float]]]:
    """Union of both retrieval directions, keyed by source concept.

    ``backward`` maps target IRI -> [(source IRI, cosine)] and is folded into
    the forward orientation; duplicate pairs keep the larger cosine.
    """
    best: dict[tuple[str, str], float] = {}
    for candidate_map, folded in ((forward, False), (backward, True)):
        for query, cands in candidate_map.items():
            for hit, sim in cands:
                key = (hit, query) if folded else (query, hit)
                if key not in best or sim > best[key]:
                    best[key] = sim
    merged: dict[str, list[tuple[str, float]]] = {}
    for src, tgt in sorted(best, key=lambda pair: (pair[0], -best[pair], pair[1])):
        merged.setdefault(src, []).append((tgt, best[src, tgt]))
    return merged


def write_candidates(candidates: Mapping[str, list[tuple[str, float]]], fp: IO[str]) -> None:
    fp.write("SrcEntity\tTgtEntity\tRank\tCosine\n")
    for src in sorted(candidates):
        for rank, (tgt, sim) in enumerate(candidates[src], start=1):
            fp.write(f"{src}\t{tgt}\t{rank}\t{sim:.8f}\n")


def read_candidates(fp: IO[str]) -> dict[str, list[tuple[str, float]]]:
    out: dict[str, list[tuple[str, float]]] = {}
    for src, tgt, sim in read_tsv_rows(
        fp, "candidate", 4, lambda parts: (parts[0], parts[1], float(parts[3]))
    ):
        out.setdefault(src, []).append((tgt, sim))
    return out


def save_embeddings(path: str | Path, iris: Sequence[str], matrix: np.ndarray) -> None:
    """Write ``iris`` (as UTF-8 bytes) and ``matrix`` (as float64), both
    sorted by IRI, to one uncompressed ``.npz`` at ``path``, atomically. A
    matrix without one row per IRI is a ``ValueError``, and writes nothing."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) != len(iris):
        raise ValueError(f"a matrix of shape {matrix.shape} for {len(iris)} IRIs")
    order = sorted(range(len(iris)), key=lambda i: iris[i])
    encoded = np.array([iris[i].encode("utf-8") for i in order], dtype=np.bytes_)
    with atomic_open(path, "wb") as fp:
        np.savez(fp, iris=encoded, matrix=matrix[order])


def load_embeddings(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The IRIs and matrix ``save_embeddings`` wrote to ``path``. A malformed
    file raises ``OntologyParseError`` naming ``path``: one that is not a zip
    of arrays or fails a member's CRC-32, a missing or pickled array, IRIs
    that are not UTF-8, or a matrix whose rows do not match the IRIs."""
    try:
        # Opened here: np.load leaks a file it opens itself if ZipFile rejects it.
        with open(path, "rb") as fp, np.load(fp, allow_pickle=False) as npz:
            iris = [iri.decode("utf-8") for iri in npz["iris"].tolist()]
            matrix = npz["matrix"]
    # TypeError: a bare .npy, which np.load returns as an array, not an archive;
    # ValueError: a pickled array, a header numpy cannot read, or IRIs not in UTF-8
    except (zipfile.BadZipFile, KeyError, OSError, EOFError, TypeError, ValueError) as e:
        raise OntologyParseError(f"malformed embedding file {path}: {e!r}") from e
    if matrix.ndim != 2 or len(matrix) != len(iris):
        raise OntologyParseError(
            f"{path} holds a matrix of shape {matrix.shape} for {len(iris)} IRIs")
    return iris, matrix
