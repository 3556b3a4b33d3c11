"""Embedding-based candidate retrieval.

Both index kinds rank stored items by cosine similarity to a query with a
fixed tie-break: equal similarities order by ascending IRI byte order. The
exact index is a full scan; the HNSW index is a seeded, self-contained
small-world graph (recall is approximate, ranking of returned items follows
the same contract).
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import DegenerateVectorError, OntologyParseError

logger = logging.getLogger(__name__)

__all__ = [
    "cosine",
    "HnswParams",
    "ExactIndex",
    "HnswIndex",
    "build_index",
    "generate_candidates",
    "merge_candidate_maps",
    "write_candidates",
    "read_candidates",
    "embedding_paths",
    "save_embeddings",
    "load_embeddings",
]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    value = float(np.dot(a, b) / (na * nb))
    return max(-1.0, min(1.0, value))


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
        raise DegenerateVectorError(f"zero-norm vectors for {bad}")


class ExactIndex:
    """Brute-force cosine ranking over all stored vectors."""

    kind = "exact"

    def __init__(self, iris: Sequence[str], matrix: np.ndarray):
        order = sorted(range(len(iris)), key=lambda i: iris[i])
        self.iris = [iris[i] for i in order]
        self._matrix = np.asarray(matrix, dtype=np.float64)[order]
        _validate_vectors(self.iris, self._matrix)
        self.dimension = int(self._matrix.shape[1])
        self._norms = np.linalg.norm(self._matrix, axis=1)

    def __len__(self) -> int:
        return len(self.iris)

    def top_k(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dimension,):
            raise ValueError(f"query has shape {query.shape}, expected ({self.dimension},)")
        qnorm = float(np.linalg.norm(query))
        if qnorm == 0.0:
            raise DegenerateVectorError("zero-norm query vector")
        sims = np.clip((self._matrix @ query) / (self._norms * qnorm), -1.0, 1.0)
        # rows are pre-sorted by IRI, so a stable sort on -sims breaks ties
        # by ascending IRI byte order.
        order = np.argsort(-sims, kind="stable")[:k]
        return [(self.iris[i], float(sims[i])) for i in order]


class HnswIndex:
    """Hierarchical navigable small-world graph over unit vectors.

    Construction is deterministic for a given (iris, matrix, params): level
    draws come from a seeded RNG and insertion follows ascending IRI order.
    Distances are ``1 - cosine`` on L2-normalized vectors.
    """

    kind = "hnsw"

    def __init__(self, iris: Sequence[str], matrix: np.ndarray, params: HnswParams = HnswParams()):
        order = sorted(range(len(iris)), key=lambda i: iris[i])
        self.iris = [iris[i] for i in order]
        raw = np.asarray(matrix, dtype=np.float64)[order]
        _validate_vectors(self.iris, raw)
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
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dimension,):
            raise ValueError(f"query has shape {query.shape}, expected ({self.dimension},)")
        qnorm = float(np.linalg.norm(query))
        if qnorm == 0.0:
            raise DegenerateVectorError("zero-norm query vector")
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


def build_index(
    vectors: Mapping[str, np.ndarray],
    kind: str = "hnsw",
    params: HnswParams = HnswParams(),
):
    """Build a retrieval index from ``iri -> vector``. ``kind`` is ``exact``
    or ``hnsw``."""
    iris = list(vectors)
    if not iris:
        raise ValueError("cannot build an index from zero vectors")
    matrix = np.stack([np.asarray(vectors[i], dtype=np.float64) for i in iris])
    if kind == "exact":
        return ExactIndex(iris, matrix)
    if kind == "hnsw":
        return HnswIndex(iris, matrix, params)
    raise ValueError(f"unknown index kind {kind!r}")


def generate_candidates(
    queries: Mapping[str, np.ndarray],
    index,
    k: int = 10,
) -> dict[str, list[tuple[str, float]]]:
    """Top-k candidates per query concept, in ascending query-IRI order.

    Zero-norm query vectors are flagged and produce an empty candidate list
    rather than failing the whole run.
    """
    out: dict[str, list[tuple[str, float]]] = {}
    for iri in sorted(queries):
        try:
            out[iri] = index.top_k(queries[iri], k)
        except DegenerateVectorError:
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
    for src, cands in forward.items():
        for tgt, sim in cands:
            key = (src, tgt)
            if key not in best or sim > best[key]:
                best[key] = sim
    for tgt, cands in backward.items():
        for src, sim in cands:
            key = (src, tgt)
            if key not in best or sim > best[key]:
                best[key] = sim
    merged: dict[str, list[tuple[str, float]]] = {}
    for (src, tgt), sim in best.items():
        merged.setdefault(src, []).append((tgt, sim))
    for src in merged:
        merged[src].sort(key=lambda t: (-t[1], t[0]))
    return {src: merged[src] for src in sorted(merged)}


def write_candidates(candidates: Mapping[str, list[tuple[str, float]]], fp: IO[str]) -> None:
    fp.write("SrcEntity\tTgtEntity\tRank\tCosine\n")
    for src in sorted(candidates):
        for rank, (tgt, sim) in enumerate(candidates[src], start=1):
            fp.write(f"{src}\t{tgt}\t{rank}\t{sim:.8f}\n")


def read_candidates(fp: IO[str]) -> dict[str, list[tuple[str, float]]]:
    out: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in enumerate(fp, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if lineno == 1 and parts[0] == "SrcEntity":
            continue
        if len(parts) != 4:
            raise OntologyParseError("candidate row needs 4 columns", line=lineno)
        out.setdefault(parts[0], []).append((parts[1], float(parts[3])))
    return out


def embedding_paths(base: str | Path) -> tuple[Path, Path]:
    """(<base>.npy, <base>.json); suffixes append even when base contains dots."""
    base = Path(base)
    return base.parent / (base.name + ".npy"), base.parent / (base.name + ".json")


def save_embeddings(
    base: str | Path, iris: Sequence[str], matrix: np.ndarray, model: str
) -> None:
    """Persist vectors as ``<base>.npy`` plus a ``<base>.json`` sidecar."""
    npy_path, json_path = embedding_paths(base)
    order = sorted(range(len(iris)), key=lambda i: iris[i])
    sorted_iris = [iris[i] for i in order]
    sorted_matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64)[order])
    np.save(npy_path, sorted_matrix)
    digest = hashlib.sha256(npy_path.read_bytes()).hexdigest()
    sidecar = {
        "model": model,
        "dimension": int(sorted_matrix.shape[1]),
        "count": int(sorted_matrix.shape[0]),
        "content_digest": digest,
        "iris": sorted_iris,
    }
    with open(json_path, "w", encoding="utf-8") as fp:
        json.dump(sidecar, fp, ensure_ascii=False, indent=0)
        fp.write("\n")


def load_embeddings(base: str | Path) -> tuple[list[str], np.ndarray, dict]:
    """Read ``<base>.npy`` and its sidecar; raise ``ValueError`` when the
    matrix shape, the IRI count or the ``.npy`` sha256 disagrees with it."""
    npy_path, json_path = embedding_paths(base)
    with open(json_path, "r", encoding="utf-8") as fp:
        sidecar = json.load(fp)
    raw = npy_path.read_bytes()
    matrix = np.load(io.BytesIO(raw))
    if matrix.shape != (sidecar["count"], sidecar["dimension"]):
        raise ValueError(f"embedding matrix shape {matrix.shape} disagrees with sidecar")
    if len(sidecar["iris"]) != sidecar["count"]:
        raise ValueError("sidecar IRI list length disagrees with count")
    if hashlib.sha256(raw).hexdigest() != sidecar.get("content_digest"):
        raise ValueError(f"{npy_path} disagrees with the sidecar content_digest")
    return list(sidecar["iris"]), matrix, sidecar
