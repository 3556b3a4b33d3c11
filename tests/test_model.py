"""Data model: IRI helpers, concepts, mapping files, JSONL interchange."""

import io
import json
import math

import pytest

from ontomatch.errors import OntologyParseError
from ontomatch.evaluate import read_ranking_cases
from ontomatch.fusion import read_mappings, write_mappings
from ontomatch.judge import read_judgements
from ontomatch.model import (
    Concept,
    Mapping,
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


def test_iri_fragment_of_an_iri_without_hash_or_slash_is_its_last_colon_segment():
    assert iri_fragment("urn:example:src:S29") == "S29"
    assert iri_fragment("urn:example:") == "urn:example:"


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
    onto = Ontology()
    labelled = Concept(iri="http://x.org/c#C1", label="Heart")
    assert concept_context(labelled, onto).display_name() == "Heart"
    assert concept_context(Concept(iri="http://x.org/c#C1"), onto).display_name() == "C1"


def test_concept_lexical_strings_order():
    c = Concept(iri="http://x.org/c#C1", label="Heart", synonyms=["Cor", "Pump"])
    assert c.lexical_strings() == ["Heart", "Cor", "Pump"]
    assert Concept(iri="http://x.org/c#C1", synonyms=["Cor"]).lexical_strings() == ["Cor"]


def _mappings(text: str) -> dict:
    return read_mappings(io.StringIO(text))


def _written(mappings, with_provenance: bool = False) -> str:
    buf = io.StringIO()
    write_mappings(mappings, buf, with_provenance)
    return buf.getvalue()


def test_mapping_validates_alpha_range():
    """A mapping row is checked where its file is read, not where a Mapping is built."""
    assert _mappings("a\tb\t0.0\na\tc\t1.0\n") == {
        ("a", "b"): Mapping("a", "b", 0.0), ("a", "c"): Mapping("a", "c", 1.0)}
    for score in ("1.5", "-0.1", "nan", "inf"):
        with pytest.raises(OntologyParseError, match=r"bad mapping row: Score must be in "
                                                     r"\[0, 1\], got .* \(line 3\)$"):
            _mappings(f"SrcEntity\tTgtEntity\tScore\na\tb\t0.5\na\tc\t{score}\n")


def test_mapping_validates_provenance():
    rows = "".join(f"a\t{prov}\t0.5\t{prov}\n" for prov in ("llm", "exact", "both"))
    assert [m.provenance for m in _mappings(rows).values()] == ["llm", "exact", "both"]
    for bad in ("guess", ""):
        with pytest.raises(OntologyParseError,
                           match=rf"bad mapping row: unknown provenance '{bad}' \(line 2\)$"):
            _mappings(f"a\tb\t0.5\tllm\na\tb\t0.5\t{bad}\n")


def test_mapping_set_is_unique_per_pair_last_wins():
    mappings = _mappings("SrcEntity\tTgtEntity\tScore\na\tb\t0.5\na\tc\t0.7\na\tb\t0.9\n")
    assert len(mappings) == 2
    assert mappings[("a", "b")] == Mapping("a", "b", 0.9, "llm")
    assert ("a", "zzz") not in mappings
    assert _written(mappings.values()) == "SrcEntity\tTgtEntity\tScore\n" \
        "a\tb\t0.90000000\na\tc\t0.70000000\n"


def test_mapping_set_sorted_by_source_then_alpha_desc_then_target():
    mappings = [
        Mapping("s2", "t1", 0.5),
        Mapping("s1", "t2", 0.7),
        Mapping("s1", "t1", 0.9),
        Mapping("s1", "t0", 0.7),
    ]
    order = [tuple(line.split("\t")[:2]) for line in _written(mappings).splitlines()[1:]]
    assert order == [("s1", "t1"), ("s1", "t0"), ("s1", "t2"), ("s2", "t1")]
    assert list(_mappings(_written(mappings))) == order


def test_mapping_set_tsv_round_trip_with_provenance():
    mappings = [
        Mapping("http://a#1", "http://b#1", 0.99908804, "llm"),
        Mapping("http://a#2", "http://b#2", 1.0, "both"),
    ]
    text = _written(mappings, with_provenance=True)
    assert text.splitlines()[0] == "SrcEntity\tTgtEntity\tScore\tProvenance"
    assert "\t0.99908804\tllm" in text
    assert list(_mappings(text).values()) == mappings


def test_mapping_set_tsv_without_provenance_defaults_to_llm():
    text = _written([Mapping("http://a#1", "http://b#1", 0.5, "exact")])
    assert text.splitlines()[0] == "SrcEntity\tTgtEntity\tScore"
    [m] = _mappings(text).values()
    assert m == Mapping("http://a#1", "http://b#1", 0.5, "llm")


def test_mapping_set_read_tsv_score_defaults_to_one():
    back = _mappings("http://a#1\thttp://b#1\nhttp://a#2\thttp://b#2\t\n")
    assert [m.alpha for m in back.values()] == [1.0, 1.0]


def test_mapping_set_read_tsv_rejects_short_rows():
    with pytest.raises(OntologyParseError) as exc:
        _mappings("SrcEntity\tTgtEntity\tScore\nonly-one-column\n")
    assert exc.value.line == 2


def test_mapping_set_read_tsv_skips_blank_lines():
    assert len(_mappings("\nhttp://a#1\thttp://b#1\t0.5\n\n")) == 1


def test_mapping_is_a_plain_tuple():
    m = Mapping("a", "b", 0.5)
    assert m == ("a", "b", 0.5, "llm")
    assert Mapping("a", "b", 1.5, "guess").alpha == 1.5  # built unchecked


def _onto_lines(*rows: dict) -> io.StringIO:
    return io.StringIO("".join(json.dumps(r) + "\n" for r in rows))


def test_read_concept_jsonl_round_trip_sorted_by_iri():
    onto = Ontology()
    onto["http://x.org/c#B"] = Concept(
        iri="http://x.org/c#B", label="B", synonyms=["b alt"],
        parents=["http://x.org/c#A", "http://x.org/c#Gone"],
    )
    onto["http://x.org/c#A"] = Concept(
        iri="http://x.org/c#A", label="A", equiv_descriptions=["A that is first."],
        definition="The first concept.",
    )
    buf = io.StringIO()
    write_concept_jsonl(onto, buf)
    lines = buf.getvalue().splitlines()
    assert [json.loads(l)["iri"] for l in lines] == ["http://x.org/c#A", "http://x.org/c#B"]
    back = read_concept_jsonl(io.StringIO(buf.getvalue()))
    assert back == onto
    assert sum(p not in back for c in back.values() for p in c.parents) == 1


def test_read_concept_jsonl_skips_blank_lines_and_dedupes_synonyms():
    fp = _onto_lines({"iri": "http://x.org/c#A", "label": "Heart",
                      "synonyms": ["heart", "Cor", "cor", "Pump"]})
    fp = io.StringIO("\n" + fp.getvalue() + "\n")
    onto = read_concept_jsonl(fp)
    assert onto["http://x.org/c#A"].synonyms == ["Cor", "Pump"]


def test_read_concept_jsonl_counts_unlabeled():
    fp = _onto_lines(
        {"iri": "http://x.org/c#A", "label": None},
        {"iri": "http://x.org/c#B", "label": "B"},
    )
    onto = read_concept_jsonl(fp)
    assert [c.label for c in onto.values()] == [None, "B"]


def test_unlabeled_count_is_derived_from_the_concepts():
    """A parent's display string is read from the concepts when a context is built."""
    onto = Ontology()
    onto["http://x.org/c#A"] = Concept("http://x.org/c#A")
    onto["http://x.org/c#B"] = Concept("http://x.org/c#B", parents=["http://x.org/c#A"])
    assert concept_context(onto["http://x.org/c#B"], onto).parents == ["A"]
    onto["http://x.org/c#A"].label = "Alpha"
    assert concept_context(onto["http://x.org/c#B"], onto).parents == ["Alpha"]


def test_read_concept_jsonl_reports_bad_json_line():
    fp = io.StringIO('{"iri": "http://x.org/c#A"}\n{not json\n')
    with pytest.raises(OntologyParseError) as exc:
        read_concept_jsonl(fp)
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
        read_concept_jsonl(_onto_lines(row))
    assert exc.value.line == 1
    assert fragment in str(exc.value)


def test_read_concept_jsonl_rejects_duplicate_iri():
    fp = _onto_lines({"iri": "http://x.org/c#A"}, {"iri": "http://x.org/c#A"})
    with pytest.raises(OntologyParseError) as exc:
        read_concept_jsonl(fp)
    assert exc.value.line == 2


def test_ontology_recount_dangling():
    onto = read_concept_jsonl(_onto_lines(
        {"iri": "http://x.org/c#A", "parents": ["http://x.org/c#B", "http://x.org/c#Gone"]},
        {"iri": "http://x.org/c#B"},
    ))
    assert sum(p not in onto for c in onto.values() for p in c.parents) == 1
    assert len(onto) == 2
    assert "http://x.org/c#Missing" not in onto


def test_concept_context_resolves_parent_labels_with_fragment_fallback():
    onto = read_concept_jsonl(_onto_lines(
        {"iri": "http://x.org/c#A", "label": "Child",
         "parents": ["http://x.org/c#B", "http://x.org/onto/C123"],
         "synonyms": ["kid"], "equiv_descriptions": ["Child that is small."]},
        {"iri": "http://x.org/c#B", "label": "Parent class"},
    ))
    ctx = concept_context(onto["http://x.org/c#A"], onto)
    assert ctx.parents == ["Parent class", "C123"]
    assert ctx.synonyms == ["kid"]
    assert ctx.descriptions == ["Child that is small."]
    assert ctx.display_name() == "Child"


# -- TSV rows -----------------------------------------------------------------------


_READERS = {
    "candidate": (read_candidates, "s\tt\t1\tx"),
    "judgement": (read_judgements, "s\tt\t0.9\tx\tyes"),
    "mapping": (read_mappings, "s\tt\tx"),
}


# A reader, one of its rows with {} for a value checked against a range,
# and the value's column and range. The candidate row ({0}) takes its source
# from the value too, so that each row is its source's rank 1.
_RANGED = {
    "candidate cosine": (read_candidates, "{0}\tt\t1\t{0}", "Cosine", -1, 1),
    "judgement cosine": (read_judgements, "s\tt\t{}\t0.5\tno", "Cosine", -1, 1),
    "judgement p_yes": (read_judgements, "s\tt\t0.5\t{}\tyes", "PYes", 0, 1),
    "mapping score": (read_mappings, "s\tt\t{}", "Score", 0, 1),
}


@pytest.mark.parametrize("outside", ["below", "above", "nan", "inf"])
@pytest.mark.parametrize("what", sorted(_RANGED))
def test_tsv_readers_reject_a_value_out_of_range_with_its_line(what, outside):
    reader, row, column, low, high = _RANGED[what]
    value = {"below": low - 0.5, "above": high + 0.5, "nan": math.nan, "inf": math.inf}[outside]
    bounds = row.format(low) + "\n" + row.format(high) + "\n"
    assert reader(io.StringIO(bounds))
    with pytest.raises(OntologyParseError) as exc:
        reader(io.StringIO("SrcEntity\tTgtEntity\n" + bounds + "\n" + row.format(value) + "\n"))
    assert str(exc.value) == (
        f"bad {what.split()[0]} row: {column} must be in [{low}, {high}], got {value} (line 5)")


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
