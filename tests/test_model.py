"""Data model: IRI helpers, concepts, mapping sets, JSONL interchange."""

import io
import json

import pytest

from ontomatch.errors import OntologyParseError
from ontomatch.evaluate import read_ranking_cases
from ontomatch.judge import read_judgements
from ontomatch.model import (
    Concept,
    Mapping,
    MappingSet,
    Ontology,
    concept_context,
    dedupe_synonyms,
    iri_fragment,
    is_absolute_iri,
    normalize_string,
    read_concept_jsonl,
    read_tsv_rows,
    write_concept_jsonl,
)
from ontomatch.retrieval import read_candidates


def test_iri_fragment_prefers_hash():
    assert iri_fragment("http://x.org/path/onto#Heart") == "Heart"


def test_iri_fragment_falls_back_to_last_path_segment():
    assert iri_fragment("http://snomed.info/id/763158003") == "763158003"


def test_iri_fragment_without_separator_returns_input():
    assert iri_fragment("C123") == "C123"


def test_iri_fragment_empty_tail_returns_whole_iri():
    assert iri_fragment("http://x.org/onto#") == "http://x.org/onto#"


def test_is_absolute_iri():
    assert is_absolute_iri("http://x.org/a")
    assert is_absolute_iri("urn://thing")
    assert not is_absolute_iri("relative/path#frag")
    assert not is_absolute_iri("#frag")


def test_normalize_string_trims_collapses_casefolds():
    assert normalize_string("  Lateral   Rectus\tNerve ") == "lateral rectus nerve"
    assert normalize_string("ABDUCENS") == normalize_string("abducens")
    assert normalize_string("") == ""
    assert normalize_string(" \t\n ") == ""


def test_dedupe_synonyms_drops_label_duplicates_and_repeats():
    out = dedupe_synonyms(
        "Abducens Nerve",
        ["abducens  nerve", "Sixth cranial nerve", "SIXTH CRANIAL NERVE", "", "  "],
    )
    assert out == ["Sixth cranial nerve"]


def test_dedupe_synonyms_keeps_first_spelling():
    out = dedupe_synonyms(None, ["Heart Muscle", "heart muscle", "Myocardium"])
    assert out == ["Heart Muscle", "Myocardium"]


def test_concept_display_name_falls_back_to_fragment():
    onto = Ontology(name="o")
    labelled = Concept(iri="http://x.org/c#C1", label="Heart")
    assert concept_context(labelled, onto).display_name() == "Heart"
    assert concept_context(Concept(iri="http://x.org/c#C1"), onto).display_name() == "C1"


def test_concept_lexical_strings_order():
    c = Concept(iri="http://x.org/c#C1", label="Heart", synonyms=["Cor", "Pump"])
    assert c.lexical_strings() == ["Heart", "Cor", "Pump"]
    assert Concept(iri="http://x.org/c#C1", synonyms=["Cor"]).lexical_strings() == ["Cor"]


def test_mapping_validates_alpha_range():
    Mapping("a", "b", 0.0)
    Mapping("a", "b", 1.0)
    with pytest.raises(ValueError):
        Mapping("a", "b", 1.5)
    with pytest.raises(ValueError):
        Mapping("a", "b", -0.1)


def test_mapping_validates_provenance():
    for prov in ("llm", "exact", "both"):
        Mapping("a", "b", 0.5, prov)
    with pytest.raises(ValueError):
        Mapping("a", "b", 0.5, "guess")


def test_mapping_set_is_unique_per_pair_last_wins():
    ms = MappingSet([Mapping("a", "b", 0.5), Mapping("a", "b", 0.9)])
    assert len(ms) == 1
    assert ms.get("a", "b").alpha == 0.9
    assert ("a", "b") in ms
    assert ms.get("a", "zzz") is None


def test_mapping_set_sorted_by_source_then_alpha_desc_then_target():
    ms = MappingSet([
        Mapping("s2", "t1", 0.5),
        Mapping("s1", "t2", 0.7),
        Mapping("s1", "t1", 0.9),
        Mapping("s1", "t0", 0.7),
    ])
    order = [(m.source, m.target) for m in ms.sorted_mappings()]
    assert order == [("s1", "t1"), ("s1", "t0"), ("s1", "t2"), ("s2", "t1")]
    assert list(ms) == ms.sorted_mappings()


def test_mapping_set_tsv_round_trip_with_provenance():
    ms = MappingSet([
        Mapping("http://a#1", "http://b#1", 0.99908804, "llm"),
        Mapping("http://a#2", "http://b#2", 1.0, "both"),
    ])
    buf = io.StringIO()
    ms.write_tsv(buf, with_provenance=True)
    text = buf.getvalue()
    assert text.splitlines()[0] == "SrcEntity\tTgtEntity\tScore\tProvenance"
    assert "\t0.99908804\tllm" in text
    back = MappingSet.read_tsv(io.StringIO(text))
    assert back.pairs() == ms.pairs()
    assert back.get("http://a#2", "http://b#2").provenance == "both"


def test_mapping_set_tsv_without_provenance_defaults_to_llm():
    ms = MappingSet([Mapping("http://a#1", "http://b#1", 0.5, "exact")])
    buf = io.StringIO()
    ms.write_tsv(buf)
    assert buf.getvalue().splitlines()[0] == "SrcEntity\tTgtEntity\tScore"
    back = MappingSet.read_tsv(io.StringIO(buf.getvalue()))
    m = back.get("http://a#1", "http://b#1")
    assert m.alpha == 0.5
    assert m.provenance == "llm"


def test_mapping_set_read_tsv_score_defaults_to_one():
    back = MappingSet.read_tsv(io.StringIO("http://a#1\thttp://b#1\n"))
    assert back.get("http://a#1", "http://b#1").alpha == 1.0


def test_mapping_set_read_tsv_rejects_short_rows():
    with pytest.raises(OntologyParseError) as exc:
        MappingSet.read_tsv(io.StringIO("SrcEntity\tTgtEntity\tScore\nonly-one-column\n"))
    assert exc.value.line == 2


def test_mapping_set_read_tsv_skips_blank_lines():
    back = MappingSet.read_tsv(io.StringIO("\nhttp://a#1\thttp://b#1\t0.5\n\n"))
    assert len(back) == 1


def _onto_lines(*rows: dict) -> io.StringIO:
    return io.StringIO("".join(json.dumps(r) + "\n" for r in rows))


def test_read_concept_jsonl_round_trip_sorted_by_iri():
    onto = Ontology(name="t")
    onto.concepts["http://x.org/c#B"] = Concept(
        iri="http://x.org/c#B", label="B", synonyms=["b alt"],
        parents=["http://x.org/c#A", "http://x.org/c#Gone"],
    )
    onto.concepts["http://x.org/c#A"] = Concept(
        iri="http://x.org/c#A", label="A", equiv_descriptions=["A that is first."],
        definition="The first concept.",
    )
    buf = io.StringIO()
    write_concept_jsonl(onto, buf)
    lines = buf.getvalue().splitlines()
    assert [json.loads(l)["iri"] for l in lines] == ["http://x.org/c#A", "http://x.org/c#B"]
    back = read_concept_jsonl(io.StringIO(buf.getvalue()), name="t")
    assert back.concepts == onto.concepts
    assert back.dangling_parent_count == 1


def test_read_concept_jsonl_skips_blank_lines_and_dedupes_synonyms():
    fp = _onto_lines({"iri": "http://x.org/c#A", "label": "Heart",
                      "synonyms": ["heart", "Cor", "cor", "Pump"]})
    fp = io.StringIO("\n" + fp.getvalue() + "\n")
    onto = read_concept_jsonl(fp, name="t")
    assert onto.concepts["http://x.org/c#A"].synonyms == ["Cor", "Pump"]


def test_read_concept_jsonl_counts_unlabeled():
    fp = _onto_lines(
        {"iri": "http://x.org/c#A", "label": None},
        {"iri": "http://x.org/c#B", "label": "B"},
    )
    onto = read_concept_jsonl(fp, name="t")
    assert onto.unlabeled_count == 1


def test_unlabeled_count_is_derived_from_the_concepts():
    onto = Ontology("n", {"http://x.org/c#A": Concept("http://x.org/c#A")})
    assert onto.unlabeled_count == 1
    onto.concepts["http://x.org/c#A"].label = "A"
    assert onto.unlabeled_count == 0


def test_read_concept_jsonl_reports_bad_json_line():
    fp = io.StringIO('{"iri": "http://x.org/c#A"}\n{not json\n')
    with pytest.raises(OntologyParseError) as exc:
        read_concept_jsonl(fp, name="t")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("row, fragment", [
    ([1, 2], "JSON object"),
    ({"label": "no iri"}, "iri"),
    ({"iri": 42}, "iri"),
    ({"iri": "not-absolute#A"}, "not absolute"),
    ({"iri": "http://x.org/c#A", "label": 7}, "label"),
    ({"iri": "http://x.org/c#A", "synonyms": "oops"}, "synonyms"),
    ({"iri": "http://x.org/c#A", "synonyms": [1]}, "synonyms"),
    ({"iri": "http://x.org/c#A", "parents": {}}, "parents"),
    ({"iri": "http://x.org/c#A", "equiv_descriptions": [None]}, "equiv_descriptions"),
    ({"iri": "http://x.org/c#A", "definition": []}, "definition"),
])
def test_read_concept_jsonl_rejects_malformed_rows(row, fragment):
    with pytest.raises(OntologyParseError) as exc:
        read_concept_jsonl(_onto_lines(row), name="t")
    assert exc.value.line == 1
    assert fragment in str(exc.value)


def test_read_concept_jsonl_rejects_duplicate_iri():
    fp = _onto_lines({"iri": "http://x.org/c#A"}, {"iri": "http://x.org/c#A"})
    with pytest.raises(OntologyParseError) as exc:
        read_concept_jsonl(fp, name="t")
    assert exc.value.line == 2


def test_ontology_recount_dangling():
    onto = read_concept_jsonl(_onto_lines(
        {"iri": "http://x.org/c#A", "parents": ["http://x.org/c#B", "http://x.org/c#Gone"]},
        {"iri": "http://x.org/c#B"},
    ), name="t")
    assert onto.dangling_parent_count == 1
    assert len(onto) == 2
    assert onto.label_for("http://x.org/c#Missing") is None


def test_concept_context_resolves_parent_labels_with_fragment_fallback():
    onto = read_concept_jsonl(_onto_lines(
        {"iri": "http://x.org/c#A", "label": "Child",
         "parents": ["http://x.org/c#B", "http://x.org/onto/C123"],
         "synonyms": ["kid"], "equiv_descriptions": ["Child that is small."]},
        {"iri": "http://x.org/c#B", "label": "Parent class"},
    ), name="t")
    ctx = concept_context(onto.concepts["http://x.org/c#A"], onto)
    assert ctx.parents == ["Parent class", "C123"]
    assert ctx.synonyms == ["kid"]
    assert ctx.descriptions == ["Child that is small."]
    assert ctx.display_name() == "Child"


# -- TSV rows -----------------------------------------------------------------------


_READERS = {
    "candidate": (read_candidates, "s\tt\t1\tx"),
    "judgement": (read_judgements, "s\tt\t0.9\tx\tyes"),
    "mapping": (MappingSet.read_tsv, "s\tt\tx"),
}


def test_read_ranking_cases_skips_blank_lines_and_a_header():
    text = "SrcEntity\tGold\tCandidates\n\ns\tg\tc1\tc2\n"
    assert read_ranking_cases(io.StringIO(text)) == [("s", "g", ["c1", "c2"])]


@pytest.mark.parametrize("what", sorted(_READERS))
def test_tsv_readers_report_a_bad_value_with_its_line(what):
    reader, bad = _READERS[what]
    text = "SrcEntity\tTgtEntity\n\n" + bad + "\n"
    with pytest.raises(OntologyParseError, match=rf"bad {what} row: .*'x' \(line 3\)$"):
        reader(io.StringIO(text))


def test_read_tsv_rows_checks_the_column_count():
    rows = io.StringIO("SrcEntity\ta\n1\t2\n\n1\t2\t3\n")
    assert list(read_tsv_rows(rows, "pair", 2, tuple, at_least=True)) == [("1", "2"), ("1", "2", "3")]
    with pytest.raises(OntologyParseError, match=r"pair row needs 2 columns \(line 3\)"):
        list(read_tsv_rows(io.StringIO("1\t2\n\n1\t2\t3\n"), "pair", 2, tuple))
    with pytest.raises(OntologyParseError, match=r"needs at least 2 columns \(line 1\)"):
        list(read_tsv_rows(io.StringIO("1\n"), "pair", 2, tuple, at_least=True))
