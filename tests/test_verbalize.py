"""Class-expression verbalization: grammar, golden rendering, structure errors."""

import random

import pytest

from ontomatch.errors import ItemError
from ontomatch.verbalize import (
    Intersection,
    Named,
    SomeValuesFrom,
    verbalize,
)

from conftest import golden_text

LABELS = {
    "http://snomed.info/id/763158003": "Medicinal product (product)",
    "http://snomed.info/id/609096000": "Role group (attribute)",
    "http://snomed.info/id/127489000": "Has active ingredient (attribute)",
    "http://snomed.info/id/116571008": "Betamethasone (substance)",
    "http://snomed.info/id/395766004": "Calcipotriol (substance)",
}


def medicinal_product_axiom() -> Intersection:
    return Intersection((
        Named("http://snomed.info/id/763158003"),
        SomeValuesFrom(
            "http://snomed.info/id/609096000",
            SomeValuesFrom(
                "http://snomed.info/id/127489000",
                Named("http://snomed.info/id/116571008"),
            ),
        ),
        SomeValuesFrom(
            "http://snomed.info/id/609096000",
            SomeValuesFrom(
                "http://snomed.info/id/127489000",
                Named("http://snomed.info/id/395766004"),
            ),
        ),
    ))


def test_full_axiom_matches_golden_string():
    assert verbalize(medicinal_product_axiom(), LABELS) == golden_text("verbalization.txt")


def test_named_class_renders_its_label():
    assert verbalize(Named("http://snomed.info/id/116571008"), LABELS) == (
        "Betamethasone (substance)"
    )


def test_bare_existential_takes_something_that_prefix():
    expr = SomeValuesFrom("http://x.org/p#hasPart", Named("http://x.org/c#Nucleus"))
    assert verbalize(expr, {}) == "something that hasPart Nucleus"


def test_unresolvable_iri_falls_back_to_fragment():
    assert verbalize(Named("http://x.org/onto/C123"), {}) == "C123"


def test_intersection_without_named_head_joins_with_and():
    expr = Intersection((
        SomeValuesFrom("http://x.org/p#a", Named("http://x.org/c#X")),
        SomeValuesFrom("http://x.org/p#b", Named("http://x.org/c#Y")),
    ))
    assert verbalize(expr, {}) == "something that a X and something that b Y."


def test_named_head_conjunct_renders_head_that_rest():
    expr = Intersection((
        Named("http://x.org/c#Heart"),
        SomeValuesFrom("http://x.org/p#partOf", Named("http://x.org/c#Thorax")),
    ))
    assert verbalize(expr, {}) == "Heart that partOf Thorax."


def test_distinct_properties_each_render_their_label():
    expr = Intersection((
        Named("http://x.org/c#A"),
        SomeValuesFrom("http://x.org/p#p1", Named("http://x.org/c#X")),
        SomeValuesFrom("http://x.org/p#p2", Named("http://x.org/c#Y")),
    ))
    assert verbalize(expr, {}) == "A that p1 X and p2 Y."


def test_repeated_property_conjunct_drops_its_label():
    expr = Intersection((
        Named("http://x.org/c#A"),
        SomeValuesFrom("http://x.org/p#p1", Named("http://x.org/c#X")),
        SomeValuesFrom("http://x.org/p#p1", Named("http://x.org/c#Y")),
    ))
    assert verbalize(expr, {}) == "A that p1 X and Y."


def test_property_repetition_resets_after_named_conjunct():
    expr = Intersection((
        Named("http://x.org/c#A"),
        SomeValuesFrom("http://x.org/p#p1", Named("http://x.org/c#X")),
        Named("http://x.org/c#B"),
        SomeValuesFrom("http://x.org/p#p1", Named("http://x.org/c#Y")),
    ))
    assert verbalize(expr, {}) == "A that p1 X and B and p1 Y."


def test_trailing_period_only_on_intersection_root():
    bare = SomeValuesFrom("http://x.org/p#q", Named("http://x.org/c#Z"))
    assert not verbalize(bare, {}).endswith(".")
    assert verbalize(medicinal_product_axiom(), LABELS).endswith(".")


def test_empty_intersection_rejected():
    with pytest.raises(ItemError):
        verbalize(Intersection(()), {})


def test_single_member_intersection_rejected():
    with pytest.raises(ItemError):
        verbalize(Intersection((Named("http://x.org/c#A"),)), {})


def test_nested_single_member_intersection_rejected():
    expr = Intersection((
        Named("http://x.org/c#A"),
        SomeValuesFrom(
            "http://x.org/p#p", Intersection((Named("http://x.org/c#B"),))
        ),
    ))
    with pytest.raises(ItemError):
        verbalize(expr, {})


def test_an_unsupported_node_type_is_rejected():
    expr = SomeValuesFrom("http://x.org/p#p", "http://x.org/c#NotANode")
    with pytest.raises(ItemError, match="unsupported expression node str"):
        verbalize(expr, {})


def test_depth_limit_rejects_pathological_trees():
    expr = Named("http://x.org/c#Leaf")
    for _ in range(40):
        expr = SomeValuesFrom("http://x.org/p#p", expr)
    with pytest.raises(ItemError):
        verbalize(expr, {})


def test_depth_just_under_limit_accepted():
    expr = Named("http://x.org/c#Leaf")
    for _ in range(30):
        expr = SomeValuesFrom("http://x.org/p#p", expr)
    text = verbalize(expr, {})
    assert text.count("something that") == 30


def test_deterministic_across_calls():
    expr = medicinal_product_axiom()
    outputs = {verbalize(expr, LABELS) for _ in range(20)}
    assert len(outputs) == 1


def _random_expression(rng: random.Random, depth: int):
    kind = rng.random()
    if depth <= 1 or kind < 0.4:
        return Named(f"http://x.org/c#N{rng.randrange(50)}")
    if kind < 0.75:
        return SomeValuesFrom(
            f"http://x.org/p#P{rng.randrange(8)}", _random_expression(rng, depth - 1)
        )
    members = tuple(
        _random_expression(rng, depth - 1) for _ in range(rng.randint(2, 4))
    )
    return Intersection(members)


def _count_existentials(expr) -> int:
    if isinstance(expr, Named):
        return 0
    if isinstance(expr, SomeValuesFrom):
        return 1 + _count_existentials(expr.filler)
    return sum(_count_existentials(m) for m in expr.members)


def test_random_trees_never_render_empty():
    rng = random.Random(20240815)
    for _ in range(200):
        expr = _random_expression(rng, 5)
        text = verbalize(expr, {})
        assert text.strip()


def test_something_that_count_bounded_by_existential_count():
    # head-position conjuncts and repeated-property conjuncts drop the
    # prefix, so the rendered count never exceeds the existential count
    rng = random.Random(99)
    for _ in range(200):
        expr = _random_expression(rng, 5)
        text = verbalize(expr, {})
        assert text.count("something that") <= _count_existentials(expr)


def test_bare_existential_prefix_count_is_exact():
    # prefix suppression only applies at the outermost head junction, so a
    # tree rooted at an existential carries one prefix per existential node
    rng = random.Random(7)
    for _ in range(200):
        expr = SomeValuesFrom("http://x.org/p#root", _random_expression(rng, 4))
        text = verbalize(expr, {})
        assert text.startswith("something that ")
        assert text.count("something that") == _count_existentials(expr)
