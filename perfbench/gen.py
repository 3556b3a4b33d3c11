"""Seeded generator of a synthetic OWL/RDF-XML ontology pair.

The pair scales up the categories of ``tests/data/toy/generate.py``; each
source concept of a planted pair has one target counterpart:

  both_case   case-variant labels and an identical synonym: found by exact
              matching and by the judge (provenance ``both``)
  both_alias  labels linked through an alias group, shared case-variant
              synonym: ``both``
  judge_only  label and every synonym linked through alias groups, no shared
              normalized string: judge only (``llm``), cosine 1 > lambda_cs
  judge_low   labels alias-linked but synonyms unrelated: the judge says YES,
              but the cosine falls below lambda_cs=0.97, so only a looser
              threshold finds them
  exact_only  a source label equals a target synonym, labels unrelated:
              exact matching only (``exact``)
  near_miss   ``left X`` / ``right X`` siblings the judge must reject
  unmatched   concepts on one side only; one source concept has no label

Concepts get ``rdfs:subClassOf`` parents and some carry an
``owl:equivalentClass`` intersection that verbalizes to a description. The
reference holds every planted pair except the near misses. Writes
``source.owl``, ``target.owl``, ``reference.tsv``, ``alias_groups.json`` and
``ranking_cases.tsv``; ``generate`` returns the planted pair sets for checks.

Run ``python3 perfbench/gen.py OUT_DIR --seed N --concepts N`` to write a pair.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

SRC_NS = "http://example.org/bench/src#"
TGT_NS = "http://example.org/bench/tgt#"
PART_OF = "partOf"

# Shares of the concepts per side; the remainder is unmatched.
SHARES = {
    "both_case": 0.27,
    "both_alias": 0.20,
    "judge_only": 0.20,
    "judge_low": 0.05,
    "exact_only": 0.03,
    "near_miss": 0.15,
}
RANKING_NEGATIVES = 4
EQUIV_SHARE = 0.1
PARENT_SHARE = 0.6

_SYLLABLES = (
    "ab", "ac", "al", "an", "ar", "ba", "be", "bi", "bra", "ca", "ce", "chi",
    "co", "cra", "cu", "da", "de", "di", "do", "dor", "du", "el", "en", "er",
    "fa", "fe", "fi", "ga", "ge", "gi", "glo", "ha", "he", "hy", "id", "il",
    "in", "is", "la", "le", "li", "lo", "lu", "ma", "me", "mi", "mo", "mu",
    "na", "ne", "ni", "no", "nu", "ob", "oc", "ol", "om", "on", "or", "os",
    "pa", "pe", "pha", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru", "sa",
    "se", "si", "so", "su", "ta", "te", "ti", "to", "tra", "tu", "ul", "um",
    "ur", "va", "ve", "vi", "vo", "xa", "ze", "zo",
)


@dataclass
class _Concept:
    iri: str
    label: str | None
    synonyms: list[str] = field(default_factory=list)
    parents: list[str] = field(default_factory=list)
    equiv: tuple[str, str] | None = None  # (named head, partOf filler)


@dataclass
class Planted:
    """Pair sets the output check compares ``mappings.tsv`` against."""

    reference: list[tuple[str, str]]
    exact: list[tuple[str, str]]
    near_miss: list[tuple[str, str]]
    source_count: int
    target_count: int


class _Words:
    """Pseudo-words that never repeat within one pair."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def phrase(self, words: int) -> str:
        while True:
            out = " ".join(
                "".join(self.rng.choice(_SYLLABLES) for _ in range(self.rng.randint(2, 3)))
                for _ in range(words)
            )
            if out not in self.used:
                self.used.add(out)
                return out


def _counts(concepts: int) -> dict[str, int]:
    counts = {name: max(1, round(share * concepts)) for name, share in SHARES.items()}
    counts["unmatched"] = concepts - sum(counts.values())
    if counts["unmatched"] < 2:
        raise ValueError(f"{concepts} concepts per side is too few for every category")
    return counts


def build(seed: int, concepts: int):
    rng = random.Random(f"perfbench:{seed}")
    words = _Words(rng)
    counts = _counts(concepts)
    src_ids = rng.sample(range(1, concepts + 1), concepts)
    tgt_ids = rng.sample(range(1, concepts + 1), concepts)
    width = len(str(concepts))
    src_iris = iter(f"{SRC_NS}S{i:0{width}d}" for i in src_ids)
    tgt_iris = iter(f"{TGT_NS}T{i:0{width}d}" for i in tgt_ids)
    sources: list[_Concept] = []
    targets: list[_Concept] = []
    alias_groups: list[list[str]] = []
    reference: list[tuple[str, str]] = []
    exact: list[tuple[str, str]] = []
    near_miss: list[tuple[str, str]] = []

    def pair(src_label, src_syns, tgt_label, tgt_syns):
        s = _Concept(next(src_iris), src_label, list(src_syns))
        t = _Concept(next(tgt_iris), tgt_label, list(tgt_syns))
        sources.append(s)
        targets.append(t)
        return s.iri, t.iri

    for _ in range(counts["both_case"]):
        label, syn = words.phrase(3), words.phrase(2)
        p = pair(label.capitalize(), [syn], label.upper(), [syn])
        reference.append(p)
        exact.append(p)
    for _ in range(counts["both_alias"]):
        canon, src, tgt, syn = (words.phrase(2) for _ in range(4))
        alias_groups.append([canon, src, tgt])
        p = pair(src, [syn.capitalize()], tgt, [syn.upper()])
        reference.append(p)
        exact.append(p)
    for _ in range(counts["judge_only"]):
        canon, src, tgt = (words.phrase(2) for _ in range(3))
        syn_canon, src_syn, tgt_syn = (words.phrase(2) for _ in range(3))
        alias_groups.append([canon, src, tgt])
        alias_groups.append([syn_canon, src_syn, tgt_syn])
        reference.append(pair(src, [src_syn], tgt, [tgt_syn]))
    for _ in range(counts["judge_low"]):
        canon, src, tgt = (words.phrase(2) for _ in range(3))
        alias_groups.append([canon, src, tgt])
        reference.append(pair(src, [words.phrase(2)], tgt, [words.phrase(2)]))
    for _ in range(counts["exact_only"]):
        shared = words.phrase(3)
        p = pair(shared.capitalize(), [words.phrase(2)], words.phrase(3), [shared.upper()])
        reference.append(p)
        exact.append(p)
    for _ in range(counts["near_miss"]):
        organ = words.phrase(2)
        near_miss.append(pair(f"left {organ}", [], f"right {organ}", []))
    for i in range(counts["unmatched"]):
        label = None if i == 0 else words.phrase(2)
        sources.append(_Concept(next(src_iris), label, [words.phrase(2)]))
        targets.append(_Concept(next(tgt_iris), words.phrase(2), []))

    for side in (sources, targets):
        side.sort(key=lambda c: c.iri)
        for i, c in enumerate(side):
            if i > 0 and rng.random() < PARENT_SHARE:
                c.parents.append(side[rng.randrange(i)].iri)
            if i > 1 and rng.random() < EQUIV_SHARE:
                head, filler = rng.sample(range(i), 2)
                c.equiv = (side[head].iri, side[filler].iri)

    target_iris = [c.iri for c in targets]
    ranking: list[tuple[str, str, list[str]]] = []
    for s, t in sorted(reference):
        negatives = rng.sample([x for x in target_iris if x != t], RANKING_NEGATIVES)
        ranking.append((s, t, negatives))

    planted = Planted(
        reference=sorted(reference),
        exact=sorted(exact),
        near_miss=sorted(near_miss),
        source_count=len(sources),
        target_count=len(targets),
    )
    return sources, targets, alias_groups, ranking, planted


def _owl(concepts: list[_Concept], ns: str) -> str:
    out = [
        '<?xml version="1.0"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
        '         xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
        '         xmlns:obo="http://www.geneontology.org/formats/oboInOwl#">\n',
        f'  <owl:ObjectProperty rdf:about="{ns}{PART_OF}">\n'
        "    <rdfs:label>part of</rdfs:label>\n"
        "  </owl:ObjectProperty>\n",
    ]
    for c in concepts:
        out.append(f'  <owl:Class rdf:about="{c.iri}">\n')
        if c.label is not None:
            out.append(f"    <rdfs:label>{escape(c.label)}</rdfs:label>\n")
        for syn in c.synonyms:
            out.append(f"    <obo:hasExactSynonym>{escape(syn)}</obo:hasExactSynonym>\n")
        for parent in c.parents:
            out.append(f'    <rdfs:subClassOf rdf:resource="{parent}"/>\n')
        if c.equiv is not None:
            head, filler = c.equiv
            out.append(
                "    <owl:equivalentClass>\n"
                "      <owl:Class>\n"
                '        <owl:intersectionOf rdf:parseType="Collection">\n'
                f'          <owl:Class rdf:about="{head}"/>\n'
                "          <owl:Restriction>\n"
                f'            <owl:onProperty rdf:resource="{ns}{PART_OF}"/>\n'
                f'            <owl:someValuesFrom rdf:resource="{filler}"/>\n'
                "          </owl:Restriction>\n"
                "        </owl:intersectionOf>\n"
                "      </owl:Class>\n"
                "    </owl:equivalentClass>\n"
            )
        out.append("  </owl:Class>\n")
    out.append("</rdf:RDF>\n")
    return "".join(out)


def generate(out_dir: Path, seed: int, concepts: int) -> Planted:
    sources, targets, alias_groups, ranking, planted = build(seed, concepts)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "source.owl": _owl(sources, SRC_NS),
        "target.owl": _owl(targets, TGT_NS),
        "alias_groups.json": json.dumps(alias_groups, indent=1) + "\n",
        "reference.tsv": "SrcEntity\tTgtEntity\tScore\n"
        + "".join(f"{s}\t{t}\t1.00000000\n" for s, t in planted.reference),
        "ranking_cases.tsv": "".join(
            "\t".join([s, t, *negs]) + "\n" for s, t, negs in ranking
        ),
    }
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return planted


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--concepts", type=int, default=1000)
    args = parser.parse_args()
    planted = generate(args.out_dir, args.seed, args.concepts)
    print(f"{planted.source_count} x {planted.target_count} concepts, "
          f"{len(planted.reference)} reference pairs")
