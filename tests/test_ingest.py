"""OWL/XML subset ingestion and format detection."""

import json
import logging
import re
import shutil

import pytest

from conftest import toy_config
from ontomatch.errors import OntologyParseError
from ontomatch.ingest import parse_ontology
from ontomatch.model import Concept, write_concept_jsonl
from ontomatch.pipeline import Pipeline

RDF_OPEN = (
    '<?xml version="1.0"?>\n'
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '         xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
    '         xmlns:obo="http://www.geneontology.org/formats/oboInOwl#"\n'
    '         xmlns:skos="http://www.w3.org/2004/02/skos/core#"{base}>\n'
)


def write_owl(tmp_path, body: str, base: str = "") -> str:
    base_attr = f' xml:base="{base}"' if base else ""
    doc = RDF_OPEN.format(base=base_attr) + body + "</rdf:RDF>\n"
    path = tmp_path / "onto.owl"
    path.write_text(doc, encoding="utf-8")
    return str(path)


def parse_logged(caplog, path, **kwargs):
    """``parse_ontology(path, **kwargs)`` and the lines the parse logs, each
    ``(level, message)`` with the message's leading path cut off."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ontomatch.ingest"):
        onto = parse_ontology(path, **kwargs)
    return onto, [(r.levelname, r.getMessage().removeprefix(f"{path}: "))
                  for r in caplog.records if r.name == "ontomatch.ingest"]


def logged_counts(lines) -> dict[str, int]:
    """The counts a parse's ``lines`` report: skipped axioms and dropped
    anonymous superclasses from its INFO line, unlabeled concepts from its
    WARNING. A count without its line is 0, and no line reports only zeros."""
    counts = dict(skipped=0, dropped=0, unlabeled=0)
    for level, message in lines:
        if m := re.fullmatch(
            r"skipped (\d+) unsupported axioms, dropped (\d+) anonymous superclasses", message
        ):
            assert level == "INFO" and (m[1], m[2]) != ("0", "0")
            counts.update(skipped=int(m[1]), dropped=int(m[2]))
        elif m := re.fullmatch(r"(\d+) concepts have no label", message):
            assert level == "WARNING" and m[1] != "0"
            counts.update(unlabeled=int(m[1]))
    assert len(lines) == len(set(lines))
    return counts


def ingested_dangling(tmp_path, caplog, source) -> int:
    """The dangling parent refs that the ingest stage's INFO line reports
    for ``source``, ingested as the source side of the toy pair."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ontomatch.pipeline"):
        Pipeline(toy_config(tmp_path, source=str(source))).run_stage("ingest", force=True)
    [count] = [int(m[1]) for message in caplog.messages if (m := re.fullmatch(
        r"ingested source: \d+ concepts \((\d+) dangling parent refs\)", message))]
    return count


BASIC_BODY = """
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:label>Beta</rdfs:label>
    <rdfs:label>Beta variant</rdfs:label>
    <obo:hasExactSynonym>B exact</obo:hasExactSynonym>
    <obo:hasExactSynonym>beta</obo:hasExactSynonym>
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#C">
    <rdfs:subClassOf rdf:resource="http://x.org/onto#Missing"/>
  </owl:Class>
"""


def test_basic_classes_labels_synonyms_parents(tmp_path, caplog):
    path = write_owl(tmp_path, BASIC_BODY)
    onto, lines = parse_logged(caplog, path)
    assert sorted(onto) == [
        "http://x.org/onto#A", "http://x.org/onto#B", "http://x.org/onto#C",
    ]
    b = onto["http://x.org/onto#B"]
    assert b.label == "Beta"
    # the second label becomes a synonym; 'beta' collapses into the label
    assert b.synonyms == ["Beta variant", "B exact"]
    assert b.parents == ["http://x.org/onto#A"]
    assert lines == [("WARNING", "1 concepts have no label")]  # C has no label
    assert ingested_dangling(tmp_path, caplog, path) == 1


def test_nested_named_superclass_is_kept(tmp_path, caplog):
    body = """
  <owl:Class rdf:about="http://x.org/onto#A"/>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf><owl:Class rdf:about="http://x.org/onto#A"/></rdfs:subClassOf>
  </owl:Class>
"""
    onto, lines = parse_logged(caplog, write_owl(tmp_path, body))
    assert onto["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]
    assert logged_counts(lines)["dropped"] == 0


def test_anonymous_superclass_dropped_and_counted(tmp_path, caplog):
    body = """
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf>
      <owl:Restriction>
        <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
        <owl:someValuesFrom rdf:resource="http://x.org/onto#A"/>
      </owl:Restriction>
    </rdfs:subClassOf>
  </owl:Class>
"""
    onto, lines = parse_logged(caplog, write_owl(tmp_path, body))
    assert onto["http://x.org/onto#B"].parents == []
    assert logged_counts(lines)["dropped"] == 1


def test_duplicate_parents_collapse(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]


EQUIV_BODY = """
  <owl:ObjectProperty rdf:about="http://x.org/onto#partOf">
    <rdfs:label>part of (attribute)</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:label>Beta</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#D">
    <rdfs:label>Delta</rdfs:label>
    <owl:equivalentClass>
      <owl:Class>
        <owl:intersectionOf rdf:parseType="Collection">
          <owl:Class rdf:about="http://x.org/onto#A"/>
          <owl:Restriction>
            <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
            <owl:someValuesFrom rdf:resource="http://x.org/onto#B"/>
          </owl:Restriction>
        </owl:intersectionOf>
      </owl:Class>
    </owl:equivalentClass>
  </owl:Class>
"""


def test_equivalent_class_axiom_is_verbalized_with_property_labels(tmp_path, caplog):
    onto, lines = parse_logged(caplog, write_owl(tmp_path, EQUIV_BODY))
    d = onto["http://x.org/onto#D"]
    assert d.equiv_descriptions == ["Alpha that part of (attribute) Beta."]
    assert logged_counts(lines)["skipped"] == 0
    # the property is not itself a concept
    assert "http://x.org/onto#partOf" not in onto


def test_equivalent_named_class_resource_form(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#D">
    <owl:equivalentClass rdf:resource="http://x.org/onto#A"/>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto["http://x.org/onto#D"].equiv_descriptions == ["Alpha"]


def test_unlabeled_filler_falls_back_to_iri_fragment(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#D">
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
        <owl:someValuesFrom rdf:resource="http://x.org/onto#Unknown"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto["http://x.org/onto#D"].equiv_descriptions == [
        "something that partOf Unknown"
    ]


@pytest.mark.parametrize("axiom", [
    # union is outside the accepted subset
    """<owl:equivalentClass>
      <owl:Class>
        <owl:unionOf rdf:parseType="Collection">
          <owl:Class rdf:about="http://x.org/onto#A"/>
          <owl:Class rdf:about="http://x.org/onto#B"/>
        </owl:unionOf>
      </owl:Class>
    </owl:equivalentClass>""",
    # restriction without a filler
    """<owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
      </owl:Restriction>
    </owl:equivalentClass>""",
    # single-member intersection
    """<owl:equivalentClass>
      <owl:Class>
        <owl:intersectionOf rdf:parseType="Collection">
          <owl:Class rdf:about="http://x.org/onto#A"/>
        </owl:intersectionOf>
      </owl:Class>
    </owl:equivalentClass>""",
    # empty axiom element
    "<owl:equivalentClass/>",
])
def test_unsupported_equivalence_axiom_skipped_and_counted(tmp_path, caplog, axiom):
    body = f"""
  <owl:Class rdf:about="http://x.org/onto#D">
    {axiom}
  </owl:Class>
"""
    onto, lines = parse_logged(caplog, write_owl(tmp_path, body))
    assert onto["http://x.org/onto#D"].equiv_descriptions == []
    assert logged_counts(lines)["skipped"] == 1


def test_xml_base_resolves_relative_and_rdf_id(tmp_path):
    body = """
  <owl:Class rdf:about="#E"/>
  <owl:Class rdf:ID="F"/>
"""
    onto = parse_ontology(write_owl(tmp_path, body, base="http://x.org/base/onto.owl"))
    assert set(onto) == {
        "http://x.org/base/onto.owl#E",
        "http://x.org/base/onto.owl#F",
    }


def test_relative_iri_without_base_is_an_error(tmp_path):
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(write_owl(tmp_path, '<owl:Class rdf:about="#E"/>\n'))
    assert "xml:base" in str(exc.value)


def test_rdf_id_without_an_absolute_base_is_an_error(tmp_path):
    with pytest.raises(OntologyParseError, match="rdf:ID 'F' without an absolute xml:base"):
        parse_ontology(write_owl(tmp_path, '<owl:Class rdf:ID="F"/>\n'))


def test_a_top_level_node_without_an_iri_is_skipped(tmp_path):
    body = """
  <owl:Class>
    <rdfs:label>Anonymous</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert list(onto) == ["http://x.org/onto#A"]
    assert onto["http://x.org/onto#A"].label == "Alpha"


def test_a_property_element_without_a_namespace_is_ignored(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#A">
    <label>Not the label</label>
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
"""
    a = parse_ontology(write_owl(tmp_path, body))["http://x.org/onto#A"]
    assert (a.label, a.synonyms, a.parents) == ("Alpha", [], [])


def test_a_property_entity_gives_only_its_label(tmp_path):
    """Of an ``owl:ObjectProperty``, only the label is read: for the
    descriptions that name it. Its domain makes no parent or concept."""
    body = EQUIV_BODY.replace(
        "<rdfs:label>part of (attribute)</rdfs:label>",
        '<rdfs:label>part of (attribute)</rdfs:label>\n'
        '    <rdfs:domain rdf:resource="http://x.org/onto#B"/>\n'
        '    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>',
    )
    assert body != EQUIV_BODY
    onto = parse_ontology(write_owl(tmp_path, body))
    assert sorted(onto) == [f"http://x.org/onto#{c}" for c in "ABD"]
    assert onto["http://x.org/onto#D"].equiv_descriptions == [
        "Alpha that part of (attribute) Beta."]
    assert all(c.parents == [] for c in onto.values())


def test_malformed_xml_reports_position(tmp_path):
    path = tmp_path / "broken.owl"
    path.write_text('<?xml version="1.0"?>\n<rdf:RDF>\n  <broken\n')
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(str(path))
    assert "malformed XML" in str(exc.value)
    assert exc.value.line is not None


def test_custom_label_property(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Wrong</rdfs:label>
    <skos:prefLabel>Right</skos:prefLabel>
  </owl:Class>
"""
    onto = parse_ontology(
        write_owl(tmp_path, body),
        label_property="http://www.w3.org/2004/02/skos/core#prefLabel",
        synonym_properties=(),
    )
    assert onto["http://x.org/onto#A"].label == "Right"


def test_parse_ontology_requires_label_property(tmp_path):
    with pytest.raises(ValueError, match="label_property must be non-empty"):
        parse_ontology(write_owl(tmp_path, ""), label_property="")


def test_parse_ontology_of_a_jsonl_path_depends_on_its_bytes_alone(tmp_path):
    path = tmp_path / "animals.jsonl"
    path.write_text(json.dumps({"iri": "http://x.org/c#Cat", "label": "Cat"}) + "\n")
    onto = parse_ontology(path)
    assert onto["http://x.org/c#Cat"].label == "Cat"
    assert not hasattr(onto, "name")
    renamed = path.rename(tmp_path / "custom.jsonl")
    assert parse_ontology(renamed) == onto


def test_parse_ontology_rejects_unknown_format(tmp_path):
    path = tmp_path / "onto.owl"
    path.write_text("@prefix owl: <http://www.w3.org/2002/07/owl#> .\n")
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(path)
    assert str(path) in str(exc.value)
    assert "starts with '@'" in str(exc.value)


@pytest.mark.parametrize("content", ["", "\n \r\n\t\n", "\ufeff"])
def test_parse_ontology_rejects_an_empty_file(tmp_path, content):
    path = tmp_path / "onto.jsonl"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(OntologyParseError, match=re.escape(f"{path} is empty")):
        parse_ontology(path)


JSONL = json.dumps({"iri": "http://x.org/c#Cat", "label": "Cat", "synonyms": ["Moggy"]}) + "\n"


def assert_same_parse(caplog, left, right):
    """The two paths parse to equal ontologies that log the same lines."""
    left_onto, left_lines = parse_logged(caplog, left)
    right_onto, right_lines = parse_logged(caplog, right)
    assert left_onto == right_onto
    assert left_lines == right_lines


def test_format_follows_the_content_not_the_file_name(tmp_path, caplog):
    owl = write_owl(tmp_path, BASIC_BODY)
    shutil.copy(owl, tmp_path / "owl.jsonl")
    assert_same_parse(caplog, tmp_path / "owl.jsonl", owl)

    (tmp_path / "concepts.jsonl").write_text(JSONL, encoding="utf-8")
    (tmp_path / "concepts.owl").write_text(JSONL, encoding="utf-8")
    assert_same_parse(caplog, tmp_path / "concepts.owl", tmp_path / "concepts.jsonl")


@pytest.mark.parametrize("prefix", ["\ufeff", "\n\n", " \r\n\t\n", "\ufeff\n  \n"])
def test_a_leading_bom_or_blank_lines_are_accepted(tmp_path, caplog, prefix):
    owl = write_owl(tmp_path, BASIC_BODY)
    doc = (tmp_path / "onto.owl").read_text(encoding="utf-8")
    (tmp_path / "padded.owl").write_text(prefix + doc, encoding="utf-8")
    assert_same_parse(caplog, tmp_path / "padded.owl", owl)

    (tmp_path / "concepts.jsonl").write_text(JSONL, encoding="utf-8")
    (tmp_path / "padded.jsonl").write_text(prefix + JSONL, encoding="utf-8")
    assert_same_parse(caplog, tmp_path / "padded.jsonl", tmp_path / "concepts.jsonl")


def test_malformed_xml_after_blank_lines_reports_the_file_line(tmp_path):
    path = tmp_path / "broken.owl"
    path.write_text('\n\n<?xml version="1.0"?>\n<rdf:RDF>\n  <broken\n')
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(path)
    unpadded = tmp_path / "unpadded.owl"
    unpadded.write_text('<?xml version="1.0"?>\n<rdf:RDF>\n  <broken\n')
    with pytest.raises(OntologyParseError) as expected:
        parse_ontology(unpadded)
    assert (exc.value.line, exc.value.column) == (expected.value.line + 2, expected.value.column)


NESTED_LABELS = """
  <owl:ObjectProperty rdf:about="http://x.org/onto#partOf">
    <rdfs:label>part of</rdfs:label>
  </owl:ObjectProperty>
  <owl:ObjectProperty rdf:about="http://x.org/onto#roleGroup">
    <rdfs:label>role group</rdfs:label>
  </owl:ObjectProperty>
  <owl:Class rdf:about="http://x.org/onto#A">
    <rdfs:label>Alpha</rdfs:label>
  </owl:Class>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:label>Beta</rdfs:label>
  </owl:Class>
"""


def _intersection(restriction: str) -> str:
    return f"""<owl:equivalentClass>
      <owl:Class>
        <owl:intersectionOf rdf:parseType="Collection">
          <owl:Class rdf:about="http://x.org/onto#A"/>
          {restriction}
        </owl:intersectionOf>
      </owl:Class>
    </owl:equivalentClass>"""


@pytest.mark.parametrize("axiom, description", [
    # a role-group filler that is itself a restriction
    (_intersection("""<owl:Restriction>
            <owl:onProperty rdf:resource="http://x.org/onto#roleGroup"/>
            <owl:someValuesFrom>
              <owl:Restriction>
                <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
                <owl:someValuesFrom rdf:resource="http://x.org/onto#B"/>
              </owl:Restriction>
            </owl:someValuesFrom>
          </owl:Restriction>"""),
     "Alpha that role group something that part of Beta."),
    # a nested property node under onProperty
    (_intersection("""<owl:Restriction>
            <owl:onProperty><owl:ObjectProperty rdf:about="http://x.org/onto#partOf"/></owl:onProperty>
            <owl:someValuesFrom rdf:resource="http://x.org/onto#B"/>
          </owl:Restriction>"""),
     "Alpha that part of Beta."),
    # a nested named filler
    (_intersection("""<owl:Restriction>
            <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
            <owl:someValuesFrom><owl:Class rdf:about="http://x.org/onto#B"/></owl:someValuesFrom>
          </owl:Restriction>"""),
     "Alpha that part of Beta."),
    # a nested named equivalent class
    ("""<owl:equivalentClass><owl:Class rdf:about="http://x.org/onto#A"/></owl:equivalentClass>""",
     "Alpha"),
])
def test_nested_class_expressions_are_verbalized(tmp_path, caplog, axiom, description):
    body = NESTED_LABELS + f"""
  <owl:Class rdf:about="http://x.org/onto#D">
    <rdfs:label>Delta</rdfs:label>
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
    <rdfs:subClassOf><owl:Class rdf:about="http://x.org/onto#B"/></rdfs:subClassOf>
    {axiom}
  </owl:Class>
"""
    onto, lines = parse_logged(caplog, write_owl(tmp_path, body))
    d = onto["http://x.org/onto#D"]
    assert d.equiv_descriptions == [description]
    assert d.parents == ["http://x.org/onto#A", "http://x.org/onto#B"]
    counts = logged_counts(lines)
    assert (counts["skipped"], counts["dropped"]) == (0, 0)


def test_a_described_node_under_subclass_of_is_a_parent(tmp_path, caplog):
    """RDF/XML gives a nested node its rdf:about IRI whatever the node's tag."""
    body = """
  <owl:Class rdf:about="http://x.org/onto#A"/>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf><rdf:Description rdf:about="http://x.org/onto#A"/></rdfs:subClassOf>
  </owl:Class>
"""
    path = write_owl(tmp_path, body)
    onto, lines = parse_logged(caplog, path)
    assert onto["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]
    assert logged_counts(lines)["dropped"] == 0
    assert ingested_dangling(tmp_path, caplog, path) == 0


def test_an_unread_restriction_child_is_not_resolved(tmp_path):
    """Only onProperty and someValuesFrom are read, so a relative IRI
    elsewhere in a restriction needs no xml:base."""
    body = """
  <owl:Class rdf:about="http://x.org/onto#D">
    <owl:equivalentClass>
      <owl:Restriction>
        <owl:onProperty rdf:resource="http://x.org/onto#partOf"/>
        <owl:allValuesFrom rdf:resource="#Relative"/>
        <owl:someValuesFrom rdf:resource="http://x.org/onto#B"/>
      </owl:Restriction>
    </owl:equivalentClass>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto["http://x.org/onto#D"].equiv_descriptions == [
        "something that partOf B"
    ]


def test_a_directly_built_ontology_counts_its_dangling_parents(tmp_path, caplog):
    onto = {
        "http://x.org/onto#A": Concept("http://x.org/onto#A"),
        "http://x.org/onto#B": Concept("http://x.org/onto#B", parents=[
            "http://x.org/onto#A", "http://x.org/onto#Gone", "http://x.org/onto#Lost",
        ]),
    }
    path = tmp_path / "built.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_concept_jsonl(onto, fp)
    assert ingested_dangling(tmp_path, caplog, path) == 2
    del onto["http://x.org/onto#A"]
    with open(path, "w", encoding="utf-8") as fp:
        write_concept_jsonl(onto, fp)
    assert ingested_dangling(tmp_path, caplog, path) == 3
