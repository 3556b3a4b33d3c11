"""Result fusion: dual-threshold filtering of judgements plus lexical
exact matching, combined by union; and the mapping TSV's reader and writer.

Exact matching goes through an inverted index over normalized labels and
synonyms (trim, whitespace collapse, case-fold) — never a pairwise scan.
The pipeline runs it once, in ``ingest``, and writes its pairs to
``exact.tsv`` with ``write_mappings``; ``fuse`` reads them back with
``read_mappings``. Exact pairs carry score 1.0 and survive any threshold
setting.
"""

from __future__ import annotations

from typing import IO, Iterable

from .evaluate import Pair
from .model import Judgement, Mapping, Ontology, bounded_float, normalize_string, read_tsv_rows

__all__ = ["exact_match", "filter_and_fuse", "read_mappings", "write_mappings"]

PROVENANCES = ("llm", "exact", "both")


def exact_match(source: Ontology, target: Ontology) -> list[Mapping]:
    """All (source, target) pairs sharing a normalized label or synonym, once each."""
    index: dict[str, list[str]] = {}
    for iri, concept in target.items():
        for text in concept.lexical_strings():
            if key := normalize_string(text):
                index.setdefault(key, []).append(iri)
    pairs: dict[Pair, None] = {}
    for s, concept in source.items():
        for text in concept.lexical_strings():
            for t in index.get(normalize_string(text), ()):
                pairs[s, t] = None
    return [Mapping(s, t, 1.0, "exact") for s, t in pairs]


def filter_and_fuse(
    judgements: Iterable[Judgement],
    exact: Iterable[Mapping] = (),
    lambda_prob: float = 0.99,
    lambda_cs: float = 0.97,
) -> list[Mapping]:
    """Keep judgements passing both thresholds, then union exact matches:
    one mapping per pair, a later one of a pair replacing an earlier one.

    A pair found by both routes gets provenance ``both`` and score 1.0 (the
    max of the two scores). Exact pairs are never removed by thresholds.
    """
    for name, value in (("lambda_prob", lambda_prob), ("lambda_cs", lambda_cs)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    fused = {
        (j.source, j.target): Mapping(j.source, j.target, j.p_yes, "llm")
        for j in judgements if j.p_yes >= lambda_prob and j.cosine >= lambda_cs
    }
    for m in exact:
        pair = (m.source, m.target)
        fused[pair] = Mapping(m.source, m.target, 1.0, "both" if pair in fused else "exact")
    return list(fused.values())


def _mapping(parts: list[str]) -> Mapping:
    score = bounded_float(parts[2], "Score", 0.0, 1.0) if len(parts) > 2 and parts[2] else 1.0
    provenance = parts[3] if len(parts) > 3 else "llm"
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    return Mapping(parts[0], parts[1], score, provenance)


def read_mappings(fp: IO[str]) -> dict[Pair, Mapping]:
    """The mappings of a ``SrcEntity TgtEntity [Score [Provenance]]`` TSV
    (``mappings.tsv``, a reference), keyed by pair: a later row of a pair
    replaces an earlier one, the score defaults to 1.0 and the provenance to
    ``llm``. A score outside [0, 1] or an unknown provenance raises
    ``OntologyParseError`` naming its line."""
    return {(m.source, m.target): m
            for m in read_tsv_rows(fp, "mapping", 2, _mapping, at_least=True)}


def write_mappings(mappings: Iterable[Mapping], fp: IO[str], with_provenance: bool = False) -> None:
    """One row per mapping, sorted by (source, -score, target), the score
    with 8 decimals; a ``Provenance`` column only ``with_provenance``."""
    fp.write("SrcEntity\tTgtEntity\tScore" + ("\tProvenance\n" if with_provenance else "\n"))
    for m in sorted(mappings, key=lambda m: (m.source, -m.alpha, m.target)):
        row = f"{m.source}\t{m.target}\t{m.alpha:.8f}"
        fp.write(row + (f"\t{m.provenance}\n" if with_provenance else "\n"))
