"""Result fusion: dual-threshold filtering of judgements plus lexical
exact matching, combined by union.

Exact matching goes through an inverted index over normalized labels and
synonyms (trim, whitespace collapse, case-fold) — never a pairwise scan.
Exact pairs carry score 1.0 and survive any threshold setting.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

from .model import (
    Judgement,
    Mapping,
    MappingSet,
    Ontology,
    normalize_string,
)

logger = logging.getLogger(__name__)

__all__ = ["exact_match", "filter_and_fuse"]


def _string_index(ontology: Ontology) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for iri in sorted(ontology.concepts):
        for text in ontology.concepts[iri].lexical_strings():
            key = normalize_string(text)
            if not key:
                continue
            bucket = index.setdefault(key, [])
            if iri not in bucket:
                bucket.append(iri)
    return index


def exact_match(source: Ontology, target: Ontology) -> MappingSet:
    """All (source, target) pairs sharing a normalized label or synonym."""
    src_index = _string_index(source)
    tgt_index = _string_index(target)
    out = MappingSet()
    for key, src_iris in src_index.items():
        tgt_iris = tgt_index.get(key)
        if not tgt_iris:
            continue
        for s in src_iris:
            for t in tgt_iris:
                out.add(Mapping(source=s, target=t, alpha=1.0, provenance="exact"))
    return out


def filter_and_fuse(
    judgements: Iterable[Judgement],
    exact: MappingSet | Sequence[Mapping] = (),
    lambda_prob: float = 0.99,
    lambda_cs: float = 0.97,
) -> MappingSet:
    """Keep judgements passing both thresholds, then union exact matches.

    A pair found by both routes gets provenance ``both`` and score 1.0 (the
    max of the two scores). Exact pairs are never removed by thresholds.
    """
    for name, value in (("lambda_prob", lambda_prob), ("lambda_cs", lambda_cs)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    fused = MappingSet()
    for j in judgements:
        if j.p_yes >= lambda_prob and j.cosine >= lambda_cs:
            fused.add(Mapping(source=j.source, target=j.target, alpha=j.p_yes, provenance="llm"))
    for m in exact:
        provenance = "exact" if fused.get(m.source, m.target) is None else "both"
        fused.add(Mapping(source=m.source, target=m.target, alpha=1.0, provenance=provenance))
    return fused
