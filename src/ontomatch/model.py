"""Core data model: concepts, ontologies, mappings, and judgements.

Concept identity is the absolute IRI string. The JSONL interchange format
(one concept per line, keys ``iri``, ``label``, ``synonyms``, ``parents``,
``equiv_descriptions``, ``definition``) is the canonical on-disk form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar, get_args, get_origin

from .errors import ConfigError, OntologyParseError

__all__ = [
    "Concept",
    "Ontology",
    "ContextBlock",
    "Mapping",
    "MappingSet",
    "Judgement",
    "check_record",
    "iri_fragment",
    "is_absolute_iri",
    "normalize_string",
    "read_concept_jsonl",
    "read_tsv_rows",
    "write_concept_jsonl",
]

T = TypeVar("T")


def is_absolute_iri(iri: str) -> bool:
    return "://" in iri


def iri_fragment(iri: str) -> str:
    """Human-readable tail of an IRI: after '#', else after the last '/'."""
    if "#" in iri:
        frag = iri.rsplit("#", 1)[1]
    elif "/" in iri:
        frag = iri.rsplit("/", 1)[1]
    else:
        frag = iri
    return frag or iri


def normalize_string(s: str) -> str:
    """Trim, collapse internal whitespace, case-fold."""
    return " ".join(s.split()).casefold()


def _fits(value, hint) -> bool:
    """Whether a JSON value has a type hint's type: an int is a float, a
    bool is only a bool, and a list's items have the item type."""
    if get_origin(hint) is UnionType:
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def check_record(record: dict, hints: dict, what: str = "") -> None:
    """Reject a key of the JSON object ``record`` that ``hints`` (key ->
    type) lacks, or a value that does not fit its key's type, with a
    ``ConfigError`` naming the key: ``unknown {what} keys: [...]`` or
    ``{what} {key} must be {type}, got {value!r}``, the type as its
    annotation reads. ``what`` names a record inside the config; without
    it the record is the config, whose keys are named bare."""
    unknown = sorted(record.keys() - hints.keys())
    if unknown:
        raise ConfigError(f"unknown {what or 'config'} keys: {unknown}")
    for key, value in record.items():
        if not _fits(value, hint := hints[key]):
            name = hint if get_origin(hint) else hint.__name__
            raise ConfigError(f"{what} {key} must be {name}, got {value!r}".lstrip())


@dataclass
class Concept:
    """One class. Its fields, in this order, are the keys of a concept JSONL line."""

    iri: str
    label: str | None = None
    synonyms: list[str] = field(default_factory=list)
    parents: list[str] = field(default_factory=list)
    equiv_descriptions: list[str] = field(default_factory=list)
    definition: str | None = None

    def lexical_strings(self) -> list[str]:
        """Label plus synonyms, as written."""
        out = [self.label] if self.label else []
        out.extend(self.synonyms)
        return out


def dedupe_synonyms(label: str | None, synonyms: Iterable[str]) -> list[str]:
    """Drop synonyms that are duplicates after normalization, or equal to the label."""
    seen = set()
    if label is not None:
        seen.add(normalize_string(label))
    out: list[str] = []
    for s in synonyms:
        key = normalize_string(s)
        if not key or key in seen:
            continue
        seen.add(key)
        out.append(s)
    return out


@dataclass
class OntologyStats:
    """Parse-time bookkeeping; excluded from ontology equality."""

    skipped_axioms: int = 0
    dropped_anonymous_parents: int = 0


@dataclass
class Ontology:
    name: str
    concepts: dict[str, Concept] = field(default_factory=dict)
    stats: OntologyStats = field(default_factory=OntologyStats, compare=False)

    def __len__(self) -> int:
        return len(self.concepts)

    @property
    def dangling_parent_count(self) -> int:
        """Parent references that do not resolve within this ontology."""
        return sum(p not in self.concepts for c in self.concepts.values() for p in c.parents)

    @property
    def unlabeled_count(self) -> int:
        """Concepts without a label."""
        return sum(c.label is None for c in self.concepts.values())

    def label_for(self, iri: str) -> str | None:
        c = self.concepts.get(iri)
        return c.label if c else None

    def sorted_concepts(self) -> list[Concept]:
        return [self.concepts[k] for k in sorted(self.concepts)]


@dataclass
class ContextBlock:
    """Everything a prompt needs to describe one concept."""

    iri: str
    label: str | None
    synonyms: list[str]
    parents: list[str]  # display strings, already resolved
    descriptions: list[str]
    definition: str | None = None

    def display_name(self) -> str:
        return self.label if self.label else iri_fragment(self.iri)


def concept_context(concept: Concept, ontology: Ontology) -> ContextBlock:
    """Assemble a prompt context; parent IRIs resolve to labels else fragments."""
    parents = []
    for p in concept.parents:
        label = ontology.label_for(p)
        parents.append(label if label else iri_fragment(p))
    return ContextBlock(
        iri=concept.iri,
        label=concept.label,
        synonyms=list(concept.synonyms),
        parents=parents,
        descriptions=list(concept.equiv_descriptions),
        definition=concept.definition,
    )


def read_tsv_rows(fp: IO[str], what: str, columns: int, parse: Callable[[list[str]], T],
                  at_least: bool = False) -> Iterator[T]:
    """``parse`` of each row of a TSV: blank lines and a first-line header
    whose first column is ``SrcEntity`` are skipped. A row with other than
    ``columns`` columns (fewer, when ``at_least``), or one ``parse`` rejects
    with ``ValueError``, raises ``OntologyParseError`` naming its line."""
    for lineno, line in enumerate(fp, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if lineno == 1 and parts[0] == "SrcEntity":
            continue
        if len(parts) < columns or (len(parts) > columns and not at_least):
            needs = f"at least {columns}" if at_least else str(columns)
            raise OntologyParseError(f"{what} row needs {needs} columns", line=lineno)
        try:
            row = parse(parts)
        except ValueError as e:
            raise OntologyParseError(f"bad {what} row: {e}", line=lineno) from e
        yield row


@dataclass(frozen=True)
class Mapping:
    source: str
    target: str
    alpha: float
    provenance: str = "llm"  # llm | exact | both

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.provenance not in ("llm", "exact", "both"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


class MappingSet:
    """An ordered set of mappings, unique per (source, target) pair."""

    def __init__(self, mappings: Iterable[Mapping] = ()):
        self._by_pair: dict[tuple[str, str], Mapping] = {}
        for m in mappings:
            self.add(m)

    def add(self, m: Mapping) -> None:
        self._by_pair[(m.source, m.target)] = m

    def get(self, source: str, target: str) -> Mapping | None:
        return self._by_pair.get((source, target))

    def pairs(self) -> set[tuple[str, str]]:
        return set(self._by_pair)

    def sorted_mappings(self) -> list[Mapping]:
        return sorted(self._by_pair.values(), key=lambda m: (m.source, -m.alpha, m.target))

    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self):
        return iter(self.sorted_mappings())

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    def write_tsv(self, fp: IO[str], with_provenance: bool = False) -> None:
        cols = "SrcEntity\tTgtEntity\tScore"
        fp.write(cols + ("\tProvenance\n" if with_provenance else "\n"))
        for m in self.sorted_mappings():
            row = f"{m.source}\t{m.target}\t{m.alpha:.8f}"
            fp.write(row + (f"\t{m.provenance}\n" if with_provenance else "\n"))

    @classmethod
    def read_tsv(cls, fp: IO[str]) -> "MappingSet":
        def parse(parts: list[str]) -> Mapping:
            score = float(parts[2]) if len(parts) > 2 and parts[2] else 1.0
            prov = parts[3] if len(parts) > 3 else "llm"
            return Mapping(parts[0], parts[1], score, prov)

        return cls(read_tsv_rows(fp, "mapping", 2, parse, at_least=True))


class Judgement(NamedTuple):
    """One judged pair: a tuple, cheap to build for each of a run's pairs."""

    source: str
    target: str
    cosine: float
    p_yes: float


_STR = frozenset((str,))


def _strings(row: dict, key: str, lineno: int) -> list[str]:
    """``row[key]``, a list of strings (``[]`` when absent), as ``json.loads`` made it."""
    value = row.get(key, [])
    # json.loads makes no str or list subclass, so type() is as good as isinstance
    if type(value) is not list or not _STR.issuperset(map(type, value)):
        raise OntologyParseError(f"{key!r} must be an array of strings", line=lineno)
    return value


def read_concept_jsonl(fp: IO[str], name: str) -> Ontology:
    """Parse the JSONL interchange format into an Ontology.

    Raises OntologyParseError with the 1-based line number on malformed input.
    """
    onto = Ontology(name=name)
    for lineno, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise OntologyParseError(f"invalid JSON: {e.msg}", line=lineno) from e
        if not isinstance(row, dict):
            raise OntologyParseError("concept row must be a JSON object", line=lineno)
        iri = row.get("iri")
        if not isinstance(iri, str) or not iri:
            raise OntologyParseError("missing or non-string 'iri'", line=lineno)
        if not is_absolute_iri(iri):
            raise OntologyParseError(f"iri is not absolute: {iri!r}", line=lineno)
        if iri in onto.concepts:
            raise OntologyParseError(f"duplicate iri {iri!r}", line=lineno)
        label = row.get("label")
        if label is not None and not isinstance(label, str):
            raise OntologyParseError("'label' must be a string or null", line=lineno)
        synonyms = _strings(row, "synonyms", lineno)
        parents = _strings(row, "parents", lineno)
        descriptions = _strings(row, "equiv_descriptions", lineno)
        definition = row.get("definition")
        if definition is not None and not isinstance(definition, str):
            raise OntologyParseError("'definition' must be a string or null", line=lineno)
        # Fresh lists, owned by the new concept; the fields in their order.
        onto.concepts[iri] = Concept(
            iri, label, dedupe_synonyms(label, synonyms), parents, descriptions, definition
        )
    return onto


def write_concept_jsonl(ontology: Ontology, fp: IO[str]) -> None:
    """Emit concepts sorted by IRI, UTF-8 JSON, LF line endings."""
    keys = [f.name for f in fields(Concept)]
    for concept in ontology.sorted_concepts():
        fp.write(json.dumps({key: getattr(concept, key) for key in keys}, ensure_ascii=False))
        fp.write("\n")
