"""Layer microbenchmarks (pytest-benchmark); skipped when the plugin is absent.

Run only these, with timing tables: ``pytest tests/test_layer_bench.py``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from ontomatch.cache import ResponseCache
from ontomatch.definitions import enrich_ontology
from ontomatch.fusion import exact_match, filter_and_fuse
from ontomatch.ingest import parse_ontology
from ontomatch.judge import judge_candidates, p_yes, read_judgements, write_judgements
from ontomatch.model import Concept, Judgement, Ontology, read_concept_jsonl, write_concept_jsonl
from ontomatch.pipeline import Pipeline
from ontomatch.providers import MockProvider, SamplingParams
from ontomatch.retrieval import (
    ExactIndex,
    load_embeddings,
    read_candidates,
    save_embeddings,
    write_candidates,
)

from conftest import CountingProvider, toy_config


def _read(path: Path):
    with open(path, "r", encoding="utf-8") as fp:
        return read_concept_jsonl(fp)


def test_warm_judge_candidates_on_toy_pairs(tmp_path, benchmark):
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    pipeline.run()
    out = Path(config.out_dir)
    with open(out / "candidates.tsv", "r", encoding="utf-8") as fp:
        candidates = read_candidates(fp)
    source = _read(out / "source.enriched.jsonl")
    target = _read(out / "target.enriched.jsonl")
    provider = CountingProvider(pipeline.provider)
    cache = ResponseCache(config.cache_dir)

    judgements = benchmark.pedantic(
        judge_candidates,
        args=(candidates, source, target, provider),
        kwargs={
            "shots": config.shots,
            "cache": cache,
        },
        rounds=3,
    )
    assert len(judgements) == sum(len(v) for v in candidates.values())
    assert provider.total_calls == 0


def _judge_sides() -> tuple[Ontology, Ontology, dict[str, list[tuple[str, float]]]]:
    """The benchmark's judge batch: 400 concepts a side, each source with
    k=10 candidates, so 4000 pairs; every target is some source's first."""
    sides = []
    for name in ("src", "tgt"):
        onto = _ontology(name, ((f"concept {i}", [f"synonym {i}"]) for i in range(400)))
        for concept in onto.values():
            concept.definition = f"A concept of the {name} ontology named {concept.label}."
        sides.append(onto)
    s, t = (sorted(onto) for onto in sides)
    candidates = {s[i]: [(t[(i + 37 * j) % 400], 1.0 - j / 16) for j in range(10)]
                  for i in range(400)}
    return *sides, candidates


def test_warm_judge_candidates_over_4k_pairs(tmp_path, benchmark):
    """A judge pass of a retune step: a new cache object over a full log,
    so each round also loads the log."""
    source, target, candidates = _judge_sides()
    judge_candidates(candidates, source, target, MockProvider(),
                     ResponseCache(tmp_path / "cache"), max_workers=2)
    provider = CountingProvider(MockProvider())

    def warm_cache():
        return (candidates, source, target, provider, ResponseCache(tmp_path / "cache")), {}

    judgements = benchmark.pedantic(judge_candidates, setup=warm_cache, rounds=3)
    assert len(judgements) == 4000
    assert provider.total_calls == 0


def _judgement_rows() -> list[Judgement]:
    _, _, candidates = _judge_sides()
    return [Judgement(src, tgt, sim, 1.0 / (2 + rank))
            for src, targets in sorted(candidates.items())
            for rank, (tgt, sim) in enumerate(targets)]


def test_read_judgements_of_4k_rows(tmp_path, benchmark):
    rows = _judgement_rows()
    path = tmp_path / "judgements.tsv"
    with open(path, "w", encoding="utf-8") as fp:
        write_judgements(rows, fp, 0.99)

    def read():
        with open(path, "r", encoding="utf-8") as fp:
            return read_judgements(fp)

    got = benchmark.pedantic(read, rounds=3)
    assert len(got) == 4000
    assert [j[:2] for j in got] == sorted(j[:2] for j in rows)


def test_read_candidates_of_4k_rows(tmp_path, benchmark):
    _, _, candidates = _judge_sides()
    path = tmp_path / "candidates.tsv"
    with open(path, "w", encoding="utf-8") as fp:
        write_candidates(candidates, fp)

    def read():
        with open(path, "r", encoding="utf-8") as fp:
            return read_candidates(fp)

    got = benchmark.pedantic(read, rounds=3)
    assert sum(map(len, got.values())) == 4000
    assert got == candidates  # cosines of a few binary digits print exactly


def test_warm_enrich_ontology_on_toy_concepts(tmp_path, benchmark):
    """Prompt rendering and keying of a fully cached define batch."""
    config = toy_config(tmp_path)
    pipeline = Pipeline(config)
    pipeline.run()
    concepts = Path(config.out_dir) / "source.concepts.jsonl"
    provider = CountingProvider(pipeline.provider)
    cache = ResponseCache(config.cache_dir)
    params = SamplingParams(config.temperature, config.top_p, config.max_tokens)
    names = (config.source_name, config.target_name)

    def fresh_concepts():  # enrich_ontology fills what it is given
        return (_read(concepts), names, provider, cache), {"params": params}

    processed = benchmark.pedantic(enrich_ontology, setup=fresh_concepts, rounds=3)
    assert processed == len(_read(concepts))
    assert provider.total_calls == 0


def test_exact_index_top_k_over_2k_rows(benchmark):
    rng = np.random.default_rng(7)
    iris = [f"http://bench#{j:05d}" for j in range(2000)]
    index = ExactIndex(iris, rng.standard_normal((2000, 64)))
    queries = rng.standard_normal((400, 64))

    results = benchmark.pedantic(
        lambda: [index.top_k(q, 10) for q in queries], rounds=3
    )
    assert len(results) == 400 and all(len(r) == 10 for r in results)


def test_save_and_load_embeddings_of_2k_by_64(tmp_path, benchmark):
    rng = np.random.default_rng(7)
    iris = [f"http://bench#{j:05d}" for j in range(2000)]
    matrix = rng.standard_normal((2000, 64))
    path = tmp_path / "source.embeddings.npz"

    def round_trip():
        save_embeddings(path, iris, matrix)
        return load_embeddings(path)

    got_iris, got_matrix = benchmark.pedantic(round_trip, rounds=3)
    assert got_iris == iris and np.array_equal(got_matrix, matrix)


def test_p_yes_over_4k_two_token_distributions(benchmark):
    """The first-token distributions of a judge batch: one YES and one NO
    variant each, as the mock provider returns them."""
    rng = np.random.default_rng(7)
    distributions = [{"YES": float(yes), "NO": float(no)}
                     for yes, no in rng.uniform(-12.0, 0.0, (4000, 2))]

    results = benchmark.pedantic(lambda: [p_yes(d) for d in distributions], rounds=3)
    assert len(results) == 4000 and all(0.0 < r < 1.0 for r in results)


def _owl_class(i: int) -> str:
    """Class i: a label, a synonym, a parent, and for every tenth class an
    equivalence axiom for the verbalizer."""
    iri = f"http://bench.org/onto#C{i:05d}"
    axiom = ""
    if i % 10 == 0:
        axiom = (
            "<owl:equivalentClass><owl:Class><owl:intersectionOf rdf:parseType=\"Collection\">"
            f"<owl:Class rdf:about=\"http://bench.org/onto#C{i // 2:05d}\"/>"
            "<owl:Restriction><owl:onProperty rdf:resource=\"http://bench.org/onto#partOf\"/>"
            f"<owl:someValuesFrom rdf:resource=\"http://bench.org/onto#C{i // 3:05d}\"/>"
            "</owl:Restriction></owl:intersectionOf></owl:Class></owl:equivalentClass>"
        )
    return (
        f'  <owl:Class rdf:about="{iri}">\n'
        f"    <rdfs:label>Concept {i}</rdfs:label>\n"
        f"    <obo:hasExactSynonym>Synonym {i}</obo:hasExactSynonym>\n"
        f'    <rdfs:subClassOf rdf:resource="http://bench.org/onto#C{i // 2:05d}"/>\n'
        f"    {axiom}\n"
        "  </owl:Class>\n"
    )


def test_parse_ontology_of_2k_owl_classes(tmp_path, benchmark):
    path = tmp_path / "bench.owl"
    path.write_text(
        '<?xml version="1.0"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
        '         xmlns:owl="http://www.w3.org/2002/07/owl#"\n'
        '         xmlns:obo="http://www.geneontology.org/formats/oboInOwl#">\n'
        + "".join(_owl_class(i) for i in range(2000)) + "</rdf:RDF>\n",
        encoding="utf-8")

    onto = benchmark.pedantic(parse_ontology, args=(path,), rounds=3)
    assert len(onto) == 2000
    assert sum(bool(c.equiv_descriptions) for c in onto.values()) == 200


def _ontology(name: str, labels) -> Ontology:
    onto = Ontology()
    for i, (label, synonyms) in enumerate(labels):
        iri = f"http://bench.org/{name}#C{i:05d}"
        onto[iri] = Concept(iri=iri, label=label, synonyms=synonyms)
    return onto


def test_read_concept_jsonl_of_2k_concepts(tmp_path, benchmark):
    path = tmp_path / "source.concepts.jsonl"
    onto = _ontology("src", ((f"Concept {i}", [f"Synonym {i}"]) for i in range(2000)))
    with open(path, "w", encoding="utf-8") as fp:
        write_concept_jsonl(onto, fp)

    got = benchmark.pedantic(_read, args=(path,), rounds=3)
    assert len(got) == 2000 and got == onto


def _digest(i: int) -> str:
    return hashlib.sha256(str(i).encode()).hexdigest()


ENTRY = {"entries": {"YES": -0.001, "NO": -7.0}}


def _fill(cache: ResponseCache) -> list[dict]:
    """4000 judge entries put inside one ``serve``, as a cold judge batch puts them."""
    jobs = ((_digest(i), lambda: ENTRY, lambda payload: payload) for i in range(4000))
    results, served = cache.serve("judge", jobs, max_workers=2)
    assert served == 0
    return results


def test_4k_cache_puts_inside_one_serve(tmp_path, benchmark):
    roots = iter(range(3))

    def fresh_cache():  # a cache that holds no entry yet, for each round
        return (ResponseCache(tmp_path / f"cache{next(roots)}"),), {}

    results = benchmark.pedantic(_fill, setup=fresh_cache, rounds=3)
    assert len(results) == 4000
    assert len(ResponseCache(tmp_path / "cache0").stored("judge")) == 4000


def test_cold_cache_get_of_4k_entries(tmp_path, benchmark):
    _fill(ResponseCache(tmp_path / "cache"))

    def get_all():  # a new cache object, so the log is read again
        cache = ResponseCache(tmp_path / "cache")
        return [cache.get("judge", _digest(i)) for i in range(4000)]

    entries = benchmark.pedantic(get_all, rounds=3)
    assert len(entries) == 4000 and all(entry == ENTRY for entry in entries)


def test_exact_match_and_fusion_over_2k_concepts(benchmark):
    """Every second target shares its source's label and every third its
    synonym; every fifth source's own target is judged YES."""
    n = 2000
    source = _ontology("src", ((f"Concept {i}", [f"synonym {i}"]) for i in range(n)))
    target = _ontology("tgt", ((f"concept {i}" if i % 2 == 0 else f"Other {i}",
                                [f"Synonym {i}"] if i % 3 == 0 else []) for i in range(n)))
    s, t = sorted(source), sorted(target)
    judgements = [Judgement(s[i], t[j], 0.99, 1.0 if i == j and i % 5 == 0 else 0.1)
                  for i in range(n) for j in (i, (i + 1) % n)]

    fused = benchmark.pedantic(
        lambda: filter_and_fuse(judgements, exact_match(source, target)), rounds=3)
    assert len(exact_match(source, target)) == sum(i % 2 == 0 or i % 3 == 0 for i in range(n))
    assert len(fused) == sum(i % 2 == 0 or i % 3 == 0 or i % 5 == 0 for i in range(n))
