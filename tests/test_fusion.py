"""Fusion: lexical exact matching and dual-threshold filtering with union."""

import pytest

from ontomatch.fusion import exact_match, filter_and_fuse
from ontomatch.model import Concept, Judgement, Mapping, MappingSet, Ontology


def build_ontology(name: str, rows: list[tuple[str, str | None, list[str]]]) -> Ontology:
    onto = Ontology(name=name)
    for iri, label, synonyms in rows:
        onto.concepts[iri] = Concept(iri=iri, label=label, synonyms=synonyms)
    return onto


def test_exact_match_on_case_and_whitespace_variants():
    src = build_ontology("s", [("http://s#1", "Nervus  Abducens", [])])
    tgt = build_ontology("t", [("http://t#1", "nervus abducens", [])])
    out = exact_match(src, tgt)
    assert out.pairs() == {("http://s#1", "http://t#1")}
    m = out.get("http://s#1", "http://t#1")
    assert m.alpha == 1.0
    assert m.provenance == "exact"


def test_exact_match_label_to_synonym():
    src = build_ontology("s", [("http://s#1", "Shared exact string 30", [])])
    tgt = build_ontology("t", [("http://t#1", "Unrelated", ["shared EXACT string 30"])])
    assert exact_match(src, tgt).pairs() == {("http://s#1", "http://t#1")}


def test_exact_match_no_shared_string_is_empty():
    src = build_ontology("s", [("http://s#1", "heart", [])])
    tgt = build_ontology("t", [("http://t#1", "kidney", [])])
    assert len(exact_match(src, tgt)) == 0


def test_exact_match_multi_bucket_cross_products():
    src = build_ontology("s", [
        ("http://s#1", "alpha", []),
        ("http://s#2", "Alpha", []),
    ])
    tgt = build_ontology("t", [
        ("http://t#1", "ALPHA", []),
        ("http://t#2", "other", ["alpha"]),
    ])
    out = exact_match(src, tgt)
    assert out.pairs() == {
        ("http://s#1", "http://t#1"), ("http://s#1", "http://t#2"),
        ("http://s#2", "http://t#1"), ("http://s#2", "http://t#2"),
    }


def test_exact_match_two_shared_strings_yield_one_mapping():
    src = build_ontology("s", [("http://s#1", "heart", ["cor"])])
    tgt = build_ontology("t", [("http://t#1", "Heart", ["Cor"])])
    out = exact_match(src, tgt)
    assert len(out) == 1


def test_exact_match_ignores_empty_strings():
    src = build_ontology("s", [("http://s#1", None, ["  "])])
    tgt = build_ontology("t", [("http://t#1", None, ["   "])])
    assert len(exact_match(src, tgt)) == 0


def judgement(src: str, tgt: str, cos: float, p: float) -> Judgement:
    return Judgement(source=src, target=tgt, cosine=cos, p_yes=p)


def test_filter_keeps_only_pairs_passing_both_thresholds():
    rows = [
        judgement("s1", "t1", 0.99, 0.999),   # passes both
        judgement("s2", "t2", 0.90, 0.999),   # fails cosine
        judgement("s3", "t3", 0.99, 0.90),    # fails probability
        judgement("s4", "t4", 0.969, 0.999),  # just under cosine threshold
    ]
    fused = filter_and_fuse(rows, lambda_prob=0.99, lambda_cs=0.97)
    assert fused.pairs() == {("s1", "t1")}
    m = fused.get("s1", "t1")
    assert m.alpha == 0.999
    assert m.provenance == "llm"


def test_filter_thresholds_are_inclusive():
    rows = [judgement("s1", "t1", 0.97, 0.99)]
    fused = filter_and_fuse(rows, lambda_prob=0.99, lambda_cs=0.97)
    assert fused.pairs() == {("s1", "t1")}


def test_exact_only_pairs_survive_any_thresholds():
    exact = MappingSet([Mapping("s9", "t9", 1.0, "exact")])
    fused = filter_and_fuse([], exact=exact, lambda_prob=1.0, lambda_cs=1.0)
    m = fused.get("s9", "t9")
    assert m.provenance == "exact"
    assert m.alpha == 1.0


def test_pair_found_by_both_routes_gets_both_provenance_and_score_one():
    rows = [judgement("s1", "t1", 0.99, 0.9991)]
    exact = MappingSet([Mapping("s1", "t1", 1.0, "exact")])
    fused = filter_and_fuse(rows, exact=exact)
    m = fused.get("s1", "t1")
    assert m.provenance == "both"
    assert m.alpha == 1.0
    assert len(fused) == 1


def test_exact_route_rescues_pairs_rejected_by_thresholds():
    rows = [judgement("s1", "t1", 0.5, 0.5)]
    exact = MappingSet([Mapping("s1", "t1", 1.0, "exact")])
    fused = filter_and_fuse(rows, exact=exact)
    # the judgement failed the filter, so the pair is exact, not both
    assert fused.get("s1", "t1").provenance == "exact"


def test_fusion_union_keeps_distinct_pairs_from_each_route():
    rows = [judgement("s1", "t1", 0.99, 0.999)]
    exact = MappingSet([Mapping("s2", "t2", 1.0, "exact")])
    fused = filter_and_fuse(rows, exact=exact)
    assert fused.pairs() == {("s1", "t1"), ("s2", "t2")}
    assert fused.get("s1", "t1").provenance == "llm"
    assert fused.get("s2", "t2").provenance == "exact"


def test_fusion_accepts_plain_mapping_sequences():
    fused = filter_and_fuse([], exact=[Mapping("s1", "t1", 1.0, "exact")])
    assert fused.pairs() == {("s1", "t1")}


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
    exact = MappingSet([Mapping("s0", "t0", 1.0, "exact")])
    sizes = []
    for lam in (0.5, 0.7, 0.9, 0.99):
        fused = filter_and_fuse(rows, exact=exact, lambda_prob=lam, lambda_cs=lam)
        sizes.append(len(fused))
        assert fused.get("s0", "t0") is not None  # exact pair invariant
    assert sizes == sorted(sizes, reverse=True)
