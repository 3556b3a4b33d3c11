"""Core data model: concepts, ontologies, mappings, and judgements.

Concept identity is the absolute IRI string: one that starts with an RFC 3987
scheme and a colon (``http://...``, ``urn:...``). The JSONL interchange format
(one concept per line, keys ``iri``, ``label``, ``synonyms``, ``parents``,
``equiv_descriptions``, ``definition``) is the canonical on-disk form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar, get_args, get_origin

from .errors import ConfigError, OntologyParseError

__all__ = [
    "Concept",
    "Ontology",
    "ContextBlock",
    "Mapping",
    "Judgement",
    "bounded_float",
    "check_record",
    "iri_fragment",
    "is_absolute_iri",
    "normalize_string",
    "read_concept_jsonl",
    "read_tsv_rows",
    "write_concept_jsonl",
]

T = TypeVar("T")
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


def is_absolute_iri(iri: str) -> bool:
    return _SCHEME.match(iri) is not None


def iri_fragment(iri: str) -> str:
    """Human-readable tail of an IRI: after '#', else after the last '/',
    else after the last ':' (``urn:example:S29`` is ``S29``); the whole IRI
    when it has none of them or the tail is empty."""
    for separator in "#/:":
        if separator in iri:
            return iri.rsplit(separator, 1)[1] or iri
    return iri


def normalize_string(s: str) -> str:
    """Trim, collapse internal whitespace, case-fold."""
    return " ".join(s.split()).casefold()


def _fits(value, hint) -> bool:
    """Whether a JSON value has a type hint's type: an int or a finite float
    is a float, a bool is only a bool, and a list's items have the item type."""
    if get_origin(hint) is UnionType:
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # json reads NaN, Infinity and -Infinity too
        return isinstance(value, (int, float)) and float("-inf") < value < float("inf")
    return isinstance(value, hint)


def check_iri(iri: str, line: int | None = None) -> None:
    """Reject a concept IRI that is not absolute, or that holds a control
    character (Unicode ``Cc``; a tab or a line break would split a TSV row),
    with ``OntologyParseError``."""
    if not is_absolute_iri(iri):
        raise OntologyParseError(f"iri is not absolute: {iri!r}", line=line)
    if re.search(r"[\x00-\x1f\x7f-\x9f]", iri):
        raise OntologyParseError(f"iri holds a control character: {iri!r}", line=line)


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


# A parse: each concept keyed by its IRI.
Ontology = dict[str, Concept]


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
        parent = ontology.get(p)
        parents.append(parent.label if parent and parent.label else iri_fragment(p))
    return ContextBlock(
        iri=concept.iri,
        label=concept.label,
        synonyms=list(concept.synonyms),
        parents=parents,
        descriptions=list(concept.equiv_descriptions),
        definition=concept.definition,
    )


def _lines(fp: IO[str]) -> Iterator[tuple[int, str]]:
    """``fp``'s lines, numbered from 1, less a leading UTF-8 BOM; text that
    is not UTF-8 raises ``OntologyParseError`` naming the file."""
    try:
        for lineno, line in enumerate(fp, start=1):
            yield lineno, line.removeprefix("\ufeff") if lineno == 1 else line
    except UnicodeDecodeError as e:
        name = getattr(fp, "name", "input")
        raise OntologyParseError(f"{name} is not UTF-8 text: {e.reason}") from e


def read_tsv_rows(fp: IO[str], what: str, columns: int, parse: Callable[[list[str]], T],
                  at_least: bool = False) -> Iterator[T]:
    """``parse`` of each row of a TSV: a leading UTF-8 BOM, blank lines and a
    first-line header whose first column is ``SrcEntity`` are skipped. A row
    with other than ``columns`` columns (fewer, when ``at_least``), or one
    ``parse`` rejects with ``ValueError``, raises ``OntologyParseError``
    naming its line; text that is not UTF-8 raises it naming the file."""
    for lineno, line in _lines(fp):
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


def bounded_float(text: str, column: str, low: float, high: float) -> float:
    """``float(text)``, a ``ValueError`` naming ``column`` unless it lies in
    [low, high]: a TSV cell for ``read_tsv_rows``'s ``parse``. NaN lies in no range."""
    value = float(text)
    if not low <= value <= high:
        raise ValueError(f"{column} must be in [{low:g}, {high:g}], got {value}")
    return value


class Mapping(NamedTuple):
    """One kept pair: a tuple, cheap to build. ``fusion.read_mappings``
    checks the score and provenance of a row read from a file."""

    source: str
    target: str
    alpha: float
    provenance: str = "llm"  # llm | exact | both


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


def read_concept_jsonl(fp: IO[str]) -> Ontology:
    """Parse the JSONL interchange format into an Ontology.

    Raises OntologyParseError with the 1-based line number on malformed
    input, or naming the file when its text is not UTF-8.
    """
    onto = Ontology()
    for lineno, line in _lines(fp):
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
        check_iri(iri, lineno)
        if iri in onto:
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
        onto[iri] = Concept(
            iri, label, dedupe_synonyms(label, synonyms), parents, descriptions, definition
        )
    return onto


def write_concept_jsonl(ontology: Ontology, fp: IO[str]) -> None:
    """Emit concepts sorted by IRI, UTF-8 JSON, LF line endings."""
    keys = [f.name for f in fields(Concept)]
    for _, concept in sorted(ontology.items()):
        fp.write(json.dumps({key: getattr(concept, key) for key in keys}, ensure_ascii=False))
        fp.write("\n")
