"""Ontology ingestion.

Two input formats, told apart by the file's first non-blank byte:

* RDF/XML (``<``) -- restricted to named classes, ``rdfs:subClassOf``
  with named superclasses, and ``owl:equivalentClass`` axioms built from
  named classes, intersections and existential restrictions, nested to any
  depth. A property element points at its ``rdf:resource``, else at its
  first nested node, read the same way wherever it appears (``_object``).
  Anything outside the subset is skipped and counted, never a hard failure.
* concept JSONL (``{``) -- the package's canonical interchange format.

Annotation property IRIs select labels and synonyms; the defaults cover the
conventional biomedical vocabularies (OBO, EFO, ORDO, FMA, SKOS, NCIt).
"""

from __future__ import annotations

import logging
import re
import xml.etree.ElementTree as ET
from codecs import BOM_UTF8
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence, Union
from urllib.parse import urljoin

from .errors import ItemError, OntologyParseError
from .model import (
    Concept,
    Ontology,
    check_iri,
    dedupe_synonyms,
    is_absolute_iri,
    read_concept_jsonl,
)
from .verbalize import ClassExpression, Intersection, Named, SomeValuesFrom, verbalize

logger = logging.getLogger(__name__)

__all__ = ["DEFAULT_LABEL_PROPERTY", "DEFAULT_SYNONYM_PROPERTIES", "parse_ontology"]

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XML_NS = "http://www.w3.org/XML/1998/namespace"

_RDF_ABOUT = f"{{{RDF_NS}}}about"
_RDF_ID = f"{{{RDF_NS}}}ID"
_RDF_RESOURCE = f"{{{RDF_NS}}}resource"
_XML_BASE = f"{{{XML_NS}}}base"
_OWL_CLASS = f"{{{OWL_NS}}}Class"
_OWL_RESTRICTION = f"{{{OWL_NS}}}Restriction"
_OWL_INTERSECTION = f"{{{OWL_NS}}}intersectionOf"
_OWL_ON_PROPERTY = f"{{{OWL_NS}}}onProperty"
_OWL_SOME_VALUES = f"{{{OWL_NS}}}someValuesFrom"
_OWL_EQUIVALENT = f"{{{OWL_NS}}}equivalentClass"
_RDFS_SUBCLASS = f"{{{RDFS_NS}}}subClassOf"

DEFAULT_LABEL_PROPERTY = f"{RDFS_NS}label"

# Synonym annotation properties of the usual biomedical vocabularies.
DEFAULT_SYNONYM_PROPERTIES = (
    "http://www.geneontology.org/formats/oboInOwl#hasSynonym",
    "http://www.geneontology.org/formats/oboInOwl#hasExactSynonym",
    "http://www.ebi.ac.uk/efo/alternative_term",
    "http://www.orpha.net/ORDO/Orphanet_#symbol",
    "http://purl.org/sig/ont/fma/synonym",
    "http://www.w3.org/2004/02/skos/core#altLabel",
    "http://www.w3.org/2004/02/skos/core#prefLabel",
    "http://ncicb.nci.nih.gov/xml/owl/EVS/Thesaurus.owl#P108",
    "http://ncicb.nci.nih.gov/xml/owl/EVS/Thesaurus.owl#P90",
)


def _tag_to_iri(tag: str) -> str:
    """ElementTree '{namespace}local' -> 'namespacelocal' (the property IRI)."""
    if tag.startswith("{"):
        return tag[1:].replace("}", "", 1)
    return tag


def _resolve(ref: str, base: str) -> str:
    if is_absolute_iri(ref):
        return ref
    if base:
        return urljoin(base, ref)
    raise OntologyParseError(
        f"relative IRI {ref!r} without an xml:base to resolve against"
    )


@dataclass
class _RawClass:
    iri: str
    labels: list[str] = field(default_factory=list)
    synonyms: list[str] = field(default_factory=list)
    parents: list[str] = field(default_factory=list)
    equivs: list[ClassExpression] = field(default_factory=list)


def _object(prop: ET.Element, base: str) -> ClassExpression | None:
    """What a property element points at: its ``rdf:resource``, else its
    first nested node."""
    resource = prop.get(_RDF_RESOURCE)
    if resource is not None:
        return Named(_resolve(resource, base))
    for node in prop:
        return _node(node, base)
    return None


def _node(elem: ET.Element, base: str) -> ClassExpression | None:
    """The class expression a node states, or None outside the subset.

    A node with ``rdf:about`` names that IRI, whatever its tag. An
    ``owl:Class`` wraps an intersection (``verbalize`` rejects one of fewer
    than two members, which counts as a skipped axiom), and an
    ``owl:Restriction`` is ``onProperty`` plus ``someValuesFrom``; no other
    child of a restriction is read.
    """
    about = elem.get(_RDF_ABOUT)
    if about is not None:
        return Named(_resolve(about, base))
    if elem.tag == _OWL_CLASS:
        for child in elem:
            if child.tag == _OWL_INTERSECTION:
                members = tuple(_node(sub, base) for sub in child)
                return None if None in members else Intersection(members)
    elif elem.tag == _OWL_RESTRICTION:
        prop = filler = None
        for child in elem:
            if child.tag == _OWL_ON_PROPERTY:
                prop = _object(child, base)
            elif child.tag == _OWL_SOME_VALUES:
                filler = _object(child, base)
        if isinstance(prop, Named) and filler is not None:
            return SomeValuesFrom(prop.iri, filler)
    return None


def _parse_owl(fp: IO[bytes], path: Path, skipped_lines: int, label_property: str,
               synonym_properties: Sequence[str]) -> Ontology:
    """Parse RDF/XML from ``fp``, positioned ``skipped_lines`` lines into the file."""
    try:
        tree = ET.parse(fp)
    except ET.ParseError as e:
        line, column = e.position
        # expat already embeds ": line N, column M"; the position is attached
        # structurally, so strip the clause rather than printing it twice.
        msg = re.sub(r": line \d+, column \d+$", "", e.msg)
        raise OntologyParseError(
            f"malformed XML: {msg}", line=line + skipped_lines, column=column
        ) from e

    root = tree.getroot()
    base = root.get(_XML_BASE, "")
    onto = Ontology()
    skipped_axioms = dropped_parents = 0
    raw: dict[str, _RawClass] = {}
    label_index: dict[str, str] = {}  # classes and properties, for verbalization

    for elem in root:
        about = elem.get(_RDF_ABOUT)
        rdf_id = elem.get(_RDF_ID)
        if about is not None:
            iri = _resolve(about, base)
        elif rdf_id is not None:
            iri = (base.split("#", 1)[0] if base else "") + "#" + rdf_id
            if not is_absolute_iri(iri):
                raise OntologyParseError(f"rdf:ID {rdf_id!r} without an absolute xml:base")
        else:
            continue

        # Any described entity may contribute a label for verbalization;
        # only classes become concepts.
        rc = raw.setdefault(iri, _RawClass(iri=iri)) if elem.tag == _OWL_CLASS else None
        for child in elem:
            child_iri = _tag_to_iri(child.tag)
            text = child.text.strip() if child.text else ""
            if child_iri == label_property:
                if text:
                    label_index.setdefault(iri, text)
                    if rc is not None:
                        rc.labels.append(text)
            elif rc is None:
                continue
            elif child_iri in synonym_properties:
                if text:
                    rc.synonyms.append(text)
            elif child.tag == _RDFS_SUBCLASS:
                parent = _object(child, base)
                if isinstance(parent, Named):
                    rc.parents.append(parent.iri)
                else:
                    dropped_parents += 1
            elif child.tag == _OWL_EQUIVALENT:
                expr = _object(child, base)
                if expr is not None:
                    rc.equivs.append(expr)
                else:
                    skipped_axioms += 1

    for iri, rc in raw.items():
        check_iri(iri)
        label = rc.labels[0] if rc.labels else None
        extra_labels = rc.labels[1:]
        descriptions = []
        for expr in rc.equivs:
            try:
                descriptions.append(verbalize(expr, label_index))
            except ItemError:
                skipped_axioms += 1
        onto[iri] = Concept(
            iri=iri,
            label=label,
            synonyms=dedupe_synonyms(label, extra_labels + rc.synonyms),
            parents=list(dict.fromkeys(rc.parents)),
            equiv_descriptions=descriptions,
        )

    if unlabeled := sum(c.label is None for c in onto.values()):
        logger.warning("%s: %d concepts have no label", path, unlabeled)
    if skipped_axioms or dropped_parents:
        logger.info("%s: skipped %d unsupported axioms, dropped %d anonymous superclasses",
                    path, skipped_axioms, dropped_parents)
    return onto


def _content_start(fp: IO[bytes]) -> tuple[int, int, bytes]:
    """The offset and the number of blank lines before a binary file's first
    non-blank line, after an optional UTF-8 BOM, and that line's first
    non-blank byte (``b""`` when there is none)."""
    if fp.read(len(BOM_UTF8)) != BOM_UTF8:
        fp.seek(0)
    lines = 0
    while (line := fp.readline(1 << 16)).isspace():
        lines += 1
    return fp.tell() - len(line), lines, line.lstrip()[:1]


def parse_ontology(
    source: Union[str, Path],
    label_property: str = DEFAULT_LABEL_PROPERTY,
    synonym_properties: Sequence[str] = DEFAULT_SYNONYM_PROPERTIES,
) -> Ontology:
    """Parse an ontology file into the in-memory model.

    The reader follows the first non-blank byte after an optional UTF-8 BOM,
    whatever the file is called: ``<`` is RDF/XML, ``{`` is concept JSONL,
    and anything else, an empty file included, is an ``OntologyParseError``
    that names the path. RDF/XML takes labels from ``label_property`` and
    synonyms from ``synonym_properties``; an empty ``label_property`` is a
    ``ValueError``.
    """
    if not label_property:
        raise ValueError("label_property must be non-empty")
    path = Path(source)
    with open(path, "rb") as fp:
        start, lines, first = _content_start(fp)
        if first == b"<":
            fp.seek(start)
            return _parse_owl(fp, path, lines, label_property, synonym_properties)
    if first == b"{":
        with open(path, "r", encoding="utf-8") as fp:
            return read_concept_jsonl(fp)
    found = f"starts with {first.decode('latin-1')!r}" if first else "is empty"
    raise OntologyParseError(
        f"{path} {found}: RDF/XML starts with '<' and concept JSONL with '{{'"
    )
