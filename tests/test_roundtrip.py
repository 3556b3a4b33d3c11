"""Each artifact format reads back what its writer wrote: ``read(write(x))
== x`` for concept JSONL, ``candidates.tsv``, ``judgements.tsv``,
``mappings.tsv`` and ``exact.tsv``, and the embeddings ``.npz``, under
generated values. A written float is compared at its printed 8 decimals.
An IRI is a scheme and any text without a control character (Unicode
``Cc``), which is what ``check_iri`` accepts."""

import os
import string
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ontomatch.cache import atomic_open
from ontomatch.fusion import PROVENANCES, read_mappings, write_mappings
from ontomatch.judge import read_judgements, write_judgements
from ontomatch.model import (
    Concept,
    Judgement,
    Mapping,
    dedupe_synonyms,
    read_concept_jsonl,
    write_concept_jsonl,
)
from ontomatch.retrieval import load_embeddings, read_candidates, save_embeddings, write_candidates

TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)  # what UTF-8 encodes
SCHEMES = st.builds("{}{}".format, st.sampled_from(string.ascii_letters),
                    st.text(string.ascii_letters + string.digits + "+.-", max_size=5))
IRIS = st.builds("{}:{}".format, SCHEMES,
                 st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=20))
PAIRS = st.tuples(IRIS, IRIS)
COSINES = st.floats(-1.0, 1.0)
SCORES = st.floats(0.0, 1.0)


def printed(value: float) -> float:
    return float(f"{value:.8f}")


def round_trip(write, read):
    """``read`` of the text file ``write`` made, each opened as the pipeline
    opens an artifact."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "artifact")
        with atomic_open(path) as fp:
            write(fp)
        with open(path, "r", encoding="utf-8") as fp:
            return read(fp)


@st.composite
def concepts(draw, iri: str) -> Concept:
    label = draw(st.none() | TEXT)
    synonyms = dedupe_synonyms(label, draw(st.lists(TEXT, max_size=4)))
    return Concept(iri, label, synonyms, draw(st.lists(IRIS, max_size=4)),
                   draw(st.lists(TEXT, max_size=4)), draw(st.none() | TEXT))


@given(st.lists(IRIS, max_size=8, unique=True).flatmap(
    lambda iris: st.tuples(*(concepts(iri) for iri in iris))))
def test_concept_jsonl_round_trips(drawn):
    ontology = {concept.iri: concept for concept in drawn}
    assert round_trip(lambda fp: write_concept_jsonl(ontology, fp),
                      read_concept_jsonl) == ontology


@given(st.dictionaries(IRIS, st.lists(st.tuples(IRIS, COSINES), min_size=1, max_size=4),
                       max_size=8))
def test_candidates_tsv_round_trips(candidates):
    assert round_trip(lambda fp: write_candidates(candidates, fp), read_candidates) == {
        source: [(target, printed(cosine)) for target, cosine in ranked]
        for source, ranked in candidates.items()}


@given(st.dictionaries(PAIRS, st.tuples(COSINES, SCORES), max_size=16), SCORES)
def test_judgements_tsv_round_trips(scores, lambda_prob):
    judgements = [Judgement(*pair, *score) for pair, score in scores.items()]
    assert round_trip(lambda fp: write_judgements(judgements, fp, lambda_prob),
                      read_judgements) == [
        Judgement(source, target, printed(cosine), printed(p_yes))
        for (source, target), (cosine, p_yes) in sorted(scores.items())]


@given(st.dictionaries(PAIRS, st.tuples(SCORES, st.sampled_from(PROVENANCES)), max_size=16),
       st.booleans())
def test_mappings_tsv_and_exact_tsv_round_trip(scores, with_provenance):
    """``mappings.tsv`` is written without provenance unless configured,
    and ``exact.tsv`` with it; a row without it reads as ``llm``."""
    mappings = [Mapping(*pair, *score) for pair, score in scores.items()]
    assert round_trip(lambda fp: write_mappings(mappings, fp, with_provenance),
                      read_mappings) == {
        pair: Mapping(*pair, printed(alpha), provenance if with_provenance else "llm")
        for pair, (alpha, provenance) in scores.items()}


@given(st.lists(IRIS, min_size=1, max_size=8, unique=True).flatmap(lambda iris: st.tuples(
    st.just(iris),
    arrays(np.float64, st.tuples(st.just(len(iris)), st.integers(1, 4)),
           elements=st.floats(allow_nan=False, allow_infinity=False)))))
def test_embeddings_npz_round_trips_sorted_and_bit_exact(drawn):
    iris, matrix = drawn
    order = sorted(range(len(iris)), key=iris.__getitem__)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "embeddings.npz")
        save_embeddings(path, iris, matrix)
        got_iris, got_matrix = load_embeddings(path)
    assert got_iris == sorted(iris)
    assert got_matrix.dtype == np.float64
    assert got_matrix.tobytes() == matrix[order].tobytes()
