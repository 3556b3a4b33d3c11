"""Fusion: lexical exact matching and dual-threshold filtering with union."""

import random

import pytest

from ontomatch.fusion import exact_match, filter_and_fuse
from ontomatch.model import Concept, Judgement, Mapping, Ontology

import oracles


def build_ontology(rows: list[tuple[str, str | None, list[str]]]) -> Ontology:
    onto = Ontology()
    for iri, label, synonyms in rows:
        onto[iri] = Concept(iri=iri, label=label, synonyms=synonyms)
    return onto


def by_pair(mappings: list[Mapping]) -> dict[tuple[str, str], Mapping]:
    """The mappings keyed by pair; a pair listed twice fails."""
    out = {(m.source, m.target): m for m in mappings}
    assert len(out) == len(mappings)
    return out


def test_exact_match_on_case_and_whitespace_variants():
    src = build_ontology([("http://s#1", "Nervus  Abducens", [])])
    tgt = build_ontology([("http://t#1", "nervus abducens", [])])
    assert exact_match(src, tgt) == [Mapping("http://s#1", "http://t#1", 1.0, "exact")]


def test_exact_match_label_to_synonym():
    src = build_ontology([("http://s#1", "Shared exact string 30", [])])
    tgt = build_ontology([("http://t#1", "Unrelated", ["shared EXACT string 30"])])
    assert by_pair(exact_match(src, tgt)).keys() == {("http://s#1", "http://t#1")}


def test_exact_match_no_shared_string_is_empty():
    src = build_ontology([("http://s#1", "heart", [])])
    tgt = build_ontology([("http://t#1", "kidney", [])])
    assert len(exact_match(src, tgt)) == 0


def test_exact_match_multi_bucket_cross_products():
    src = build_ontology([
        ("http://s#1", "alpha", []),
        ("http://s#2", "Alpha", []),
    ])
    tgt = build_ontology([
        ("http://t#1", "ALPHA", []),
        ("http://t#2", "other", ["alpha"]),
    ])
    out = exact_match(src, tgt)
    assert by_pair(out).keys() == {
        ("http://s#1", "http://t#1"), ("http://s#1", "http://t#2"),
        ("http://s#2", "http://t#1"), ("http://s#2", "http://t#2"),
    }


def test_exact_match_two_shared_strings_yield_one_mapping():
    src = build_ontology([("http://s#1", "heart", ["cor"])])
    tgt = build_ontology([("http://t#1", "Heart", ["Cor"])])
    out = exact_match(src, tgt)
    assert len(out) == 1


def test_exact_match_ignores_empty_strings():
    src = build_ontology([("http://s#1", None, ["  "])])
    tgt = build_ontology([("http://t#1", None, ["   "])])
    assert len(exact_match(src, tgt)) == 0


def test_exact_match_agrees_with_pairwise_oracle():
    """Random pairs drawn from a few strings, so that several concepts share
    a string, in case and whitespace variants, with blank synonyms."""
    rng = random.Random(4242)
    words = ("heart", "left kidney", "cor", "nervus abducens", "liver")

    def pad() -> str:
        return rng.choice(("", " ", "\t", "  "))

    def variant() -> str:
        text = "".join(c.upper() if rng.random() < 0.3 else c for c in rng.choice(words))
        return pad() + text.replace(" ", rng.choice((" ", "  ", " \t"))) + pad()

    def rows(prefix: str) -> list[tuple[str, str | None, list[str]]]:
        return [
            (f"http://{prefix}#{i}", variant() if rng.random() < 0.8 else None,
             [rng.choice(("", " \t", variant(), variant())) for _ in range(rng.randint(0, 3))])
            for i in range(rng.randint(0, 8))
        ]

    found = 0
    for _ in range(200):
        src_rows, tgt_rows = rows("s"), rows("t")
        expected = oracles.exact_pairs(
            *([(iri, [t for t in (label, *synonyms) if t is not None])
               for iri, label, synonyms in side] for side in (src_rows, tgt_rows))
        )
        out = exact_match(build_ontology(src_rows), build_ontology(tgt_rows))
        assert by_pair(out).keys() == expected
        assert all(m.alpha == 1.0 and m.provenance == "exact" for m in out)
        found += len(expected)
    assert found > 1000


def judgement(src: str, tgt: str, cos: float, p: float) -> Judgement:
    return Judgement(source=src, target=tgt, cosine=cos, p_yes=p)


def test_filter_keeps_only_pairs_passing_both_thresholds():
    rows = [
        judgement("s1", "t1", 0.99, 0.999),   # passes both
        judgement("s2", "t2", 0.90, 0.999),   # fails cosine
        judgement("s3", "t3", 0.99, 0.90),    # fails probability
        judgement("s4", "t4", 0.969, 0.999),  # just under cosine threshold
    ]
    fused = by_pair(filter_and_fuse(rows, lambda_prob=0.99, lambda_cs=0.97))
    assert fused.keys() == {("s1", "t1")}
    m = fused["s1", "t1"]
    assert m.alpha == 0.999
    assert m.provenance == "llm"


def test_filter_thresholds_are_inclusive():
    rows = [judgement("s1", "t1", 0.97, 0.99)]
    fused = by_pair(filter_and_fuse(rows, lambda_prob=0.99, lambda_cs=0.97))
    assert fused.keys() == {("s1", "t1")}


def test_exact_only_pairs_survive_any_thresholds():
    exact = [Mapping("s9", "t9", 1.0, "exact")]
    fused = by_pair(filter_and_fuse([], exact=exact, lambda_prob=1.0, lambda_cs=1.0))
    m = fused["s9", "t9"]
    assert m.provenance == "exact"
    assert m.alpha == 1.0


def test_pair_found_by_both_routes_gets_both_provenance_and_score_one():
    rows = [judgement("s1", "t1", 0.99, 0.9991)]
    exact = [Mapping("s1", "t1", 1.0, "exact")]
    fused = by_pair(filter_and_fuse(rows, exact=exact))
    m = fused["s1", "t1"]
    assert m.provenance == "both"
    assert m.alpha == 1.0
    assert len(fused) == 1


def test_exact_route_rescues_pairs_rejected_by_thresholds():
    rows = [judgement("s1", "t1", 0.5, 0.5)]
    exact = [Mapping("s1", "t1", 1.0, "exact")]
    fused = by_pair(filter_and_fuse(rows, exact=exact))
    # the judgement failed the filter, so the pair is exact, not both
    assert fused["s1", "t1"].provenance == "exact"


def test_fusion_union_keeps_distinct_pairs_from_each_route():
    rows = [judgement("s1", "t1", 0.99, 0.999)]
    exact = [Mapping("s2", "t2", 1.0, "exact")]
    fused = by_pair(filter_and_fuse(rows, exact=exact))
    assert fused.keys() == {("s1", "t1"), ("s2", "t2")}
    assert fused["s1", "t1"].provenance == "llm"
    assert fused["s2", "t2"].provenance == "exact"


def test_fusion_accepts_plain_mapping_sequences():
    """Any iterable of mappings, read once: here a generator."""
    exact = (Mapping(s, t, 1.0, "exact") for s, t in [("s1", "t1")])
    assert filter_and_fuse([], exact=exact) == [Mapping("s1", "t1", 1.0, "exact")]


def test_fusion_validates_thresholds():
    with pytest.raises(ValueError):
        filter_and_fuse([], lambda_prob=1.5)
    with pytest.raises(ValueError):
        filter_and_fuse([], lambda_cs=-0.1)


def test_raising_thresholds_never_adds_mappings():
    rows = [
        judgement(f"s{i}", f"t{i}", 0.5 + 0.05 * i, 0.5 + 0.049 * i)
        for i in range(10)
    ]
    exact = [Mapping("s0", "t0", 1.0, "exact")]
    sizes = []
    for lam in (0.5, 0.7, 0.9, 0.99):
        fused = by_pair(filter_and_fuse(rows, exact=exact, lambda_prob=lam, lambda_cs=lam))
        sizes.append(len(fused))
        assert ("s0", "t0") in fused  # exact pair invariant
    assert sizes == sorted(sizes, reverse=True)
