"""OWL/XML subset ingestion and format detection."""

import json
import re

import pytest

from ontomatch.errors import OntologyParseError
from ontomatch.ingest import parse_ontology
from ontomatch.model import Concept, Ontology

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


def test_basic_classes_labels_synonyms_parents(tmp_path):
    onto = parse_ontology(write_owl(tmp_path, BASIC_BODY))
    assert sorted(onto.concepts) == [
        "http://x.org/onto#A", "http://x.org/onto#B", "http://x.org/onto#C",
    ]
    b = onto.concepts["http://x.org/onto#B"]
    assert b.label == "Beta"
    # the second label becomes a synonym; 'beta' collapses into the label
    assert b.synonyms == ["Beta variant", "B exact"]
    assert b.parents == ["http://x.org/onto#A"]
    assert onto.dangling_parent_count == 1
    assert onto.unlabeled_count == 1  # C has no label
    assert onto.name == "onto"


def test_nested_named_superclass_is_kept(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#A"/>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf><owl:Class rdf:about="http://x.org/onto#A"/></rdfs:subClassOf>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto.concepts["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]
    assert onto.stats.dropped_anonymous_parents == 0


def test_anonymous_superclass_dropped_and_counted(tmp_path):
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
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto.concepts["http://x.org/onto#B"].parents == []
    assert onto.stats.dropped_anonymous_parents == 1


def test_duplicate_parents_collapse(tmp_path):
    body = """
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto.concepts["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]


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


def test_equivalent_class_axiom_is_verbalized_with_property_labels(tmp_path):
    onto = parse_ontology(write_owl(tmp_path, EQUIV_BODY))
    d = onto.concepts["http://x.org/onto#D"]
    assert d.equiv_descriptions == ["Alpha that part of (attribute) Beta."]
    assert onto.stats.skipped_axioms == 0
    # the property is not itself a concept
    assert "http://x.org/onto#partOf" not in onto.concepts


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
    assert onto.concepts["http://x.org/onto#D"].equiv_descriptions == ["Alpha"]


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
    assert onto.concepts["http://x.org/onto#D"].equiv_descriptions == [
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
def test_unsupported_equivalence_axiom_skipped_and_counted(tmp_path, axiom):
    body = f"""
  <owl:Class rdf:about="http://x.org/onto#D">
    {axiom}
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto.concepts["http://x.org/onto#D"].equiv_descriptions == []
    assert onto.stats.skipped_axioms == 1


def test_xml_base_resolves_relative_and_rdf_id(tmp_path):
    body = """
  <owl:Class rdf:about="#E"/>
  <owl:Class rdf:ID="F"/>
"""
    onto = parse_ontology(write_owl(tmp_path, body, base="http://x.org/base/onto.owl"))
    assert set(onto.concepts) == {
        "http://x.org/base/onto.owl#E",
        "http://x.org/base/onto.owl#F",
    }


def test_relative_iri_without_base_is_an_error(tmp_path):
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(write_owl(tmp_path, '<owl:Class rdf:about="#E"/>\n'))
    assert "xml:base" in str(exc.value)


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
    assert onto.concepts["http://x.org/onto#A"].label == "Right"


def test_parse_ontology_requires_label_property(tmp_path):
    with pytest.raises(ValueError, match="label_property must be non-empty"):
        parse_ontology(write_owl(tmp_path, ""), label_property="")


def test_parse_ontology_jsonl_path_and_default_name(tmp_path):
    path = tmp_path / "animals.jsonl"
    path.write_text(json.dumps({"iri": "http://x.org/c#Cat", "label": "Cat"}) + "\n")
    onto = parse_ontology(path)
    assert onto.name == "animals"
    assert onto.concepts["http://x.org/c#Cat"].label == "Cat"
    named = parse_ontology(path, name="custom")
    assert named.name == "custom"


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


def assert_same_ontology(left, right):
    assert left.name == right.name
    assert left.concepts == right.concepts
    assert left.stats == right.stats


def test_format_follows_the_content_not_the_file_name(tmp_path):
    owl = parse_ontology(write_owl(tmp_path, BASIC_BODY), name="o")
    (tmp_path / "onto.owl").rename(tmp_path / "owl.jsonl")
    assert_same_ontology(parse_ontology(tmp_path / "owl.jsonl", name="o"), owl)

    (tmp_path / "concepts.jsonl").write_text(JSONL, encoding="utf-8")
    (tmp_path / "concepts.owl").write_text(JSONL, encoding="utf-8")
    assert_same_ontology(parse_ontology(tmp_path / "concepts.owl", name="c"),
                         parse_ontology(tmp_path / "concepts.jsonl", name="c"))


@pytest.mark.parametrize("prefix", ["\ufeff", "\n\n", " \r\n\t\n", "\ufeff\n  \n"])
def test_a_leading_bom_or_blank_lines_are_accepted(tmp_path, prefix):
    owl = parse_ontology(write_owl(tmp_path, BASIC_BODY), name="o")
    doc = (tmp_path / "onto.owl").read_text(encoding="utf-8")
    (tmp_path / "padded.owl").write_text(prefix + doc, encoding="utf-8")
    assert_same_ontology(parse_ontology(tmp_path / "padded.owl", name="o"), owl)

    (tmp_path / "concepts.jsonl").write_text(JSONL, encoding="utf-8")
    (tmp_path / "padded.jsonl").write_text(prefix + JSONL, encoding="utf-8")
    assert_same_ontology(parse_ontology(tmp_path / "padded.jsonl", name="c"),
                         parse_ontology(tmp_path / "concepts.jsonl", name="c"))


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
def test_nested_class_expressions_are_verbalized(tmp_path, axiom, description):
    body = NESTED_LABELS + f"""
  <owl:Class rdf:about="http://x.org/onto#D">
    <rdfs:label>Delta</rdfs:label>
    <rdfs:subClassOf rdf:resource="http://x.org/onto#A"/>
    <rdfs:subClassOf><owl:Class rdf:about="http://x.org/onto#B"/></rdfs:subClassOf>
    {axiom}
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    d = onto.concepts["http://x.org/onto#D"]
    assert d.equiv_descriptions == [description]
    assert d.parents == ["http://x.org/onto#A", "http://x.org/onto#B"]
    assert (onto.stats.skipped_axioms, onto.stats.dropped_anonymous_parents) == (0, 0)


def test_a_described_node_under_subclass_of_is_a_parent(tmp_path):
    """RDF/XML gives a nested node its rdf:about IRI whatever the node's tag."""
    body = """
  <owl:Class rdf:about="http://x.org/onto#A"/>
  <owl:Class rdf:about="http://x.org/onto#B">
    <rdfs:subClassOf><rdf:Description rdf:about="http://x.org/onto#A"/></rdfs:subClassOf>
  </owl:Class>
"""
    onto = parse_ontology(write_owl(tmp_path, body))
    assert onto.concepts["http://x.org/onto#B"].parents == ["http://x.org/onto#A"]
    assert onto.stats.dropped_anonymous_parents == 0
    assert onto.dangling_parent_count == 0


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
    assert onto.concepts["http://x.org/onto#D"].equiv_descriptions == [
        "something that partOf B"
    ]


def test_a_directly_built_ontology_counts_its_dangling_parents():
    onto = Ontology(name="o", concepts={
        "http://x.org/onto#A": Concept("http://x.org/onto#A"),
        "http://x.org/onto#B": Concept("http://x.org/onto#B", parents=[
            "http://x.org/onto#A", "http://x.org/onto#Gone", "http://x.org/onto#Lost",
        ]),
    })
    assert onto.dangling_parent_count == 2
    del onto.concepts["http://x.org/onto#A"]
    assert onto.dangling_parent_count == 3
