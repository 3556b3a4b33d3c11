"""Evaluation: global precision/recall/F1 over mapping pairs, and local
ranking metrics (MRR, Hit@K) over per-source candidate lists.

Ranking uses 1-based ranks; candidates sort by score descending with ties
broken by ascending candidate IRI.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import IO, Callable, Iterable, Mapping as TMapping, Sequence

from .model import read_tsv_rows

__all__ = [
    "f1_score",
    "global_metrics",
    "RankingCase",
    "local_ranking",
    "make_ranking_cases",
    "read_ranking_cases",
    "MetricsReport",
]

Pair = tuple[str, str]


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0.0 when both inputs are 0."""
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def global_metrics(predicted: Iterable[Pair], reference: Iterable[Pair]) -> tuple[float, float, float]:
    """(precision, recall, f1) of predicted pairs against reference pairs.

    Empty predicted set gives precision 0; empty reference gives recall 0.
    """
    pred = set(predicted)
    ref = set(reference)
    hits = len(pred & ref)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(ref) if ref else 0.0
    return precision, recall, f1_score(precision, recall)


@dataclass(frozen=True)
class RankingCase:
    """One source concept with its gold target among scored candidates."""

    source: str
    gold: str
    candidates: tuple[tuple[str, float], ...]  # (target IRI, score)

    def __post_init__(self):
        if not any(iri == self.gold for iri, _ in self.candidates):
            raise ValueError(f"gold target {self.gold!r} missing from candidates")

    def rank_of_gold(self) -> int:
        """1 plus the number of candidates ahead of the gold's best entry."""
        best = min((-score, iri) for iri, score in self.candidates if iri == self.gold)
        return 1 + sum((-score, iri) < best for iri, score in self.candidates)


def local_ranking(
    cases: Sequence[RankingCase], ks: Sequence[int] = (1, 5, 10)
) -> tuple[float, dict[int, float]]:
    """(MRR, {k: Hit@k}) over the cases. Raises on an empty case list."""
    if not cases:
        raise ValueError("local ranking metrics need at least one case")
    ranks = [case.rank_of_gold() for case in cases]
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    hits = {k: sum(1 for r in ranks if r <= k) / len(ranks) for k in ks}
    return mrr, hits


def make_ranking_cases(
    rows: Iterable[tuple[str, str, Sequence[str]]],
    score: Callable[[list[Pair]], TMapping[Pair, float]],
) -> list[RankingCase]:
    """One case per row ``(source, gold, candidates)``, as in Bio-ML's local
    ranking: the gold target, then the row's other candidates. Cases come in
    ``(source, gold)`` order. ``score`` is called once, with every distinct
    ``(source, target)`` pair the cases rank, and maps each to its score.
    """
    ranked = [
        (source, gold, [gold, *(t for t in candidates if t != gold)])
        for source, gold, candidates in sorted(rows, key=lambda row: row[:2])
    ]
    scores = score(list(dict.fromkeys((s, t) for s, _, targets in ranked for t in targets)))
    return [
        RankingCase(source=s, gold=gold, candidates=tuple((t, scores[s, t]) for t in targets))
        for s, gold, targets in ranked
    ]


def _ranking_row(parts: list[str]) -> tuple[str, str, list[str]]:
    source, gold, *candidates = parts
    if all(t == gold for t in candidates):
        raise ValueError(f"no candidate but the gold {gold!r} to rank it against")
    return source, gold, candidates


def read_ranking_cases(fp: IO[str]) -> list[tuple[str, str, list[str]]]:
    """``(source, gold, candidates)`` of every row ``source, gold, candidate...``,
    in file order. A row with no candidate other than its gold, which would
    rank first under any scorer, raises ``OntologyParseError`` naming its line."""
    return list(read_tsv_rows(fp, "ranking case", 2, _ranking_row, at_least=True))


@dataclass
class MetricsReport:
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    mrr: float | None = None
    hit_at: dict[int, float] = field(default_factory=dict)
    predicted_count: int | None = None
    reference_count: int | None = None

    def to_json(self) -> str:
        payload = {**asdict(self), "hit_at": {str(k): v for k, v in self.hit_at.items()}}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        rows: list[tuple[str, str]] = []
        if self.predicted_count is not None:
            rows.append(("predicted", str(self.predicted_count)))
        if self.reference_count is not None:
            rows.append(("reference", str(self.reference_count)))
        for name, value in (
            ("precision", self.precision),
            ("recall", self.recall),
            ("f1", self.f1),
            ("mrr", self.mrr),
        ):
            if value is not None:
                rows.append((name, f"{value:.3f}"))
        for k, v in sorted(self.hit_at.items()):
            rows.append((f"hit@{k}", f"{v:.3f}"))
        width = max(len(name) for name, _ in rows) if rows else 0
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows) + "\n"
