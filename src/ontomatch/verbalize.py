"""Render class expressions (named classes, existential restrictions,
intersections) as English noun phrases for use as concept descriptions.

Grammar:
  Named                 -> label of the class
  SomeValuesFrom(p, f)  -> "something that " + label(p) + " " + render(f)
  Intersection          -> members joined by " and "

An outermost intersection whose first member is a named class renders as
"<head> that <rest>", and existential conjuncts directly after that junction
drop their own "something that" prefix. Consecutive existential conjuncts at
that junction sharing a property state the property label once; the repeats
render only their fillers. Intersection-rooted renderings (the full-axiom
form) take a trailing period; bare fragments do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ItemError
from .model import iri_fragment

__all__ = ["Named", "SomeValuesFrom", "Intersection", "ClassExpression", "verbalize"]

MAX_DEPTH = 32


@dataclass(frozen=True)
class Named:
    iri: str


@dataclass(frozen=True)
class SomeValuesFrom:
    property_iri: str
    filler: "ClassExpression"


@dataclass(frozen=True)
class Intersection:
    members: tuple["ClassExpression", ...]


ClassExpression = Union[Named, SomeValuesFrom, Intersection]


def _label(iri: str, labels: Mapping[str, str]) -> str:
    got = labels.get(iri)
    return got if got else iri_fragment(iri)


def _render(expr: ClassExpression, labels: Mapping[str, str], depth: int,
            bare_existential: bool = False) -> str:
    if depth > MAX_DEPTH:
        raise ItemError(f"class expression exceeds depth limit {MAX_DEPTH}")
    if isinstance(expr, Named):
        return _label(expr.iri, labels)
    if isinstance(expr, SomeValuesFrom):
        prefix = "" if bare_existential else "something that "
        return prefix + _label(expr.property_iri, labels) + " " + _render(
            expr.filler, labels, depth + 1
        )
    if isinstance(expr, Intersection):
        if len(expr.members) < 2:
            raise ItemError("intersection requires at least 2 members")
        return " and ".join(_render(m, labels, depth + 1) for m in expr.members)
    raise ItemError(f"unsupported expression node {type(expr).__name__}")


def verbalize(expr: ClassExpression, labels: Mapping[str, str]) -> str:
    """Render ``expr`` to English using ``labels`` (IRI -> label) with IRI-fragment
    fallback. Deterministic; raises ItemError on malformed trees."""
    if not isinstance(expr, Intersection):
        return _render(expr, labels, 0)
    if len(expr.members) < 2 or not isinstance(expr.members[0], Named):
        return _render(expr, labels, 0) + "."  # _render rejects a short intersection
    head, *rest = expr.members
    parts = []
    prev_property: str | None = None
    for m in rest:
        if isinstance(m, SomeValuesFrom):
            if m.property_iri == prev_property:
                # repeated property: filler alone, keeping its own prefix
                parts.append(_render(m.filler, labels, 2))
            else:
                parts.append(_render(m, labels, 1, bare_existential=True))
            prev_property = m.property_iri
        else:
            parts.append(_render(m, labels, 1))
            prev_property = None
    return _label(head.iri, labels) + " that " + " and ".join(parts) + "."
