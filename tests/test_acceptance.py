"""Release acceptance gate.

One test per must-hold requirement. Every test prints a single
``[acceptance] <name>: PASS|FAIL (<detail>)`` line before asserting, so a
``pytest -v`` log shows both the pytest verdict and the measured numbers.
Tolerances and runtime budgets are part of the requirements and are checked
explicitly rather than assumed.

The published-results arithmetic check is expected to fail on exactly three
encoded rows whose reported F1 cannot be reconciled with the reported P and R
(see ``benchmark_rows.KNOWN_INCONSISTENT``); a companion test pins that
offender set and proves every other row consistent.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import benchmark_rows
import oracles
from conftest import CountingProvider, golden_text, toy_config
from test_definitions import snomed_concept, snomed_context
from test_judge import NERVE_A, NERVE_B
from test_verbalize import LABELS, medicinal_product_axiom

from ontomatch.definitions import (
    build_definition_prompt,
    build_embedding_text,
    truncate_words,
)
from ontomatch.evaluate import RankingCase, f1_score, local_ranking
from ontomatch.fusion import exact_match, filter_and_fuse
from ontomatch.judge import (
    NO_VARIANTS,
    YES_VARIANTS,
    build_judgement_prompt,
    p_yes,
    read_judgements,
)
from ontomatch.model import ContextBlock, concept_context, read_concept_jsonl
from ontomatch.pipeline import Pipeline, make_provider
from ontomatch.retrieval import ExactIndex, HnswIndex
from ontomatch.verbalize import verbalize


def check(name: str, ok: bool, detail: str) -> None:
    """Emit the one-line verdict for a requirement, then enforce it."""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _load_ontology(path: Path, name: str):
    with open(path, "r", encoding="utf-8") as fp:
        return read_concept_jsonl(fp)


@pytest.fixture(scope="module")
def toy_artifacts(tmp_path_factory):
    """One full toy pipeline run shared by the read-only requirements."""
    config = toy_config(tmp_path_factory.mktemp("acceptance_toy"))
    Pipeline(config).run()
    out = Path(config.out_dir)
    with open(out / "judgements.tsv", "r", encoding="utf-8") as fp:
        judgements = read_judgements(fp)
    source = _load_ontology(out / "source.enriched.jsonl", "toy-src")
    target = _load_ontology(out / "target.enriched.jsonl", "toy-tgt")
    return judgements, source, target


# -- published-results arithmetic ---------------------------------------------


def _inconsistent_rows() -> list[tuple[str, str, str, float, float, float]]:
    bad = []
    for table, task, system, p, r, f1 in benchmark_rows.tagged_rows():
        if abs(f1_score(p, r) - f1) > 0.002:
            bad.append((table, task, system, p, r, f1))
    return bad


def test_published_f1_arithmetic():
    """Every encoded (P, R, F1) row satisfies F1 = 2PR/(P+R) within 0.002, < 1s.

    Known to fail: three source rows are arithmetically inconsistent (one has
    F1 below min(P, R), which no harmonic mean can produce). They are encoded
    as published; the companion test below pins the offender set.
    """
    started = time.perf_counter()
    rows = list(benchmark_rows.tagged_rows())
    bad = _inconsistent_rows()
    elapsed = time.perf_counter() - started
    detail = ", ".join(
        f"{table}/{task}/{system}: reported {f1} vs 2PR/(P+R) {f1_score(p, r):.4f}"
        for table, task, system, p, r, f1 in bad
    )
    check(
        "published-f1-arithmetic",
        not bad and elapsed < 1.0,
        f"{len(rows)} rows, {len(bad)} inconsistent, {elapsed:.3f}s"
        + (f" [{detail}]" if detail else ""),
    )


def test_published_f1_arithmetic_excluding_recorded_typos():
    """The inconsistencies are exactly the three recorded rows; all 72 others pass."""
    started = time.perf_counter()
    rows = list(benchmark_rows.tagged_rows())
    offenders = {(table, task, system) for table, task, system, *_ in _inconsistent_rows()}
    elapsed = time.perf_counter() - started
    ok = (
        offenders == benchmark_rows.KNOWN_INCONSISTENT
        and len(rows) == 75
        and elapsed < 1.0
    )
    check(
        "published-f1-arithmetic-excluding-typos",
        ok,
        f"{len(rows) - len(offenders)}/{len(rows)} rows consistent, "
        f"offenders pinned: {sorted(offenders)}, {elapsed:.3f}s",
    )


def test_f1_identity_published_example():
    value = f1_score(0.795, 0.764)
    check(
        "f1-identity-example",
        abs(value - 0.779) <= 0.0005,
        f"f1(0.795, 0.764) = {value:.6f}, expected 0.779 within 0.0005",
    )


# -- retrieval ----------------------------------------------------------------


def test_exact_index_matches_brute_force_oracle():
    """ExactIndex reproduces the brute-force oracle ranking on 200 instances.

    Dimensions 8-128, up to 1000 vectors; duplicated rows force cosine ties,
    which both sides must break by ascending IRI. Budget: 30s.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(1729)
    sizes = random.Random(1729)
    for instance in range(200):
        dim = int(rng.integers(8, 129))
        n = sizes.randint(1, 1000)
        k = min(n, sizes.randint(1, 12))
        matrix = rng.standard_normal((n, dim))
        if n >= 3:
            matrix[1] = matrix[0]
            matrix[2] = matrix[0]
        iris = [f"urn:vec:{instance}:{j:04d}" for j in range(n)]
        query = rng.standard_normal(dim)
        got = ExactIndex(iris, matrix).top_k(query, k)
        want = oracles.brute_force_top_k(
            list(zip(iris, matrix.tolist())), query.tolist(), k
        )
        assert [iri for iri, _ in got] == [iri for iri, _ in want], (
            f"instance {instance} (n={n}, dim={dim}, k={k}): "
            f"{[i for i, _ in got]} != {[i for i, _ in want]}"
        )
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) <= 1e-9
    elapsed = time.perf_counter() - started
    check(
        "exact-retrieval-oracle",
        elapsed < 30.0,
        f"200 instances rank-identical to the oracle, {elapsed:.2f}s (budget 30s)",
    )


def test_hnsw_recall_meets_floor():
    """Default-parameter HNSW reaches mean recall >= 0.95 vs the oracle, < 10s."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n, dim, k, n_queries = 500, 64, 10, 100
    matrix = rng.standard_normal((n, dim))
    iris = [f"urn:hnsw:{j:03d}" for j in range(n)]
    index = HnswIndex(iris, matrix)
    items = list(zip(iris, matrix.tolist()))
    total = 0.0
    for _ in range(n_queries):
        query = rng.standard_normal(dim)
        approx = [iri for iri, _ in index.top_k(query, k)]
        exact = [iri for iri, _ in oracles.brute_force_top_k(items, query.tolist(), k)]
        total += oracles.recall_at_k(approx, exact)
    recall = total / n_queries
    elapsed = time.perf_counter() - started
    check(
        "hnsw-recall",
        recall >= 0.95 and elapsed < 10.0,
        f"mean recall@10 {recall:.4f} over {n_queries} queries "
        f"(floor 0.95), {elapsed:.2f}s (budget 10s)",
    )


# -- YES-probability properties -------------------------------------------------


def _mirrored(entries: dict[str, float]) -> dict[str, float]:
    """Swap each YES variant for its parallel NO variant and vice versa."""
    out = {}
    for token, value in entries.items():
        if token in YES_VARIANTS:
            out[NO_VARIANTS[YES_VARIANTS.index(token)]] = value
        elif token in NO_VARIANTS:
            out[YES_VARIANTS[NO_VARIANTS.index(token)]] = value
        else:
            out[token] = value
    return out


def test_p_yes_probability_properties():
    """Shift invariance, YES-mass monotonicity, two-way normalization, and
    agreement with an arbitrary-precision softmax, on 1,000 random
    first-token distributions."""
    assert tuple(YES_VARIANTS) == tuple(oracles.YES_FORMS)
    assert tuple(NO_VARIANTS) == tuple(oracles.NO_FORMS)
    rng = random.Random(20240)
    distractors = (".", ",", "I", "It", "The", "not", "maybe", "A:")
    extras = tuple(YES_VARIANTS) + tuple(NO_VARIANTS) + distractors
    for i in range(1000):
        entries = {
            rng.choice(YES_VARIANTS): rng.uniform(-12.0, 0.0),
            rng.choice(NO_VARIANTS): rng.uniform(-12.0, 0.0),
        }
        for _ in range(rng.randint(0, 4)):
            entries[rng.choice(extras)] = rng.uniform(-12.0, 0.0)
        p = p_yes(entries)

        shift = rng.uniform(-40.0, 40.0)
        shifted = p_yes({t: v + shift for t, v in entries.items()})
        assert abs(shifted - p) <= 1e-9, f"case {i}: shift by {shift} moved p"

        bumped = dict(entries)
        token = rng.choice([t for t in entries if t in YES_VARIANTS])
        bumped[token] = entries[token] + rng.uniform(0.1, 3.0)
        assert p_yes(bumped) >= p - 1e-12, f"case {i}: more YES mass lowered p"

        assert abs(p + p_yes(_mirrored(entries)) - 1.0) <= 1e-12, (
            f"case {i}: YES/NO role swap does not complement to 1"
        )

        restricted = {
            t: v for t, v in entries.items() if t in YES_VARIANTS or t in NO_VARIANTS
        }
        soft = oracles.reference_softmax(restricted)
        expected = sum(v for t, v in soft.items() if t in YES_VARIANTS)
        assert abs(p - expected) <= 1e-9, f"case {i}: disagrees with softmax oracle"
    check(
        "p-yes-properties",
        True,
        "1000 distributions: shift-invariant (1e-9), monotone in YES mass, "
        "two-way normalized (1e-12), softmax agreement (1e-9)",
    )


# -- golden renderings ----------------------------------------------------------


def test_verbalizer_golden():
    rendered = verbalize(medicinal_product_axiom(), LABELS)
    expected = golden_text("verbalization.txt")
    check(
        "verbalizer-golden",
        rendered == expected,
        f"rendered {len(rendered)} chars == committed golden"
        if rendered == expected
        else f"rendered {rendered!r} != golden {expected!r}",
    )


def test_prompt_renderings_match_goldens():
    """Definition and judgement prompts reproduce the committed goldens
    byte-for-byte, and empty optional fields drop exactly their own lines."""
    definition = build_definition_prompt(snomed_context(), "SNOMED", "NCIT")
    judge = build_judgement_prompt(NERVE_A, NERVE_B)
    goldens_ok = (
        definition[0]["content"] == golden_text("definition_system.txt")
        and definition[1]["content"] == golden_text("definition_user.txt")
        and judge[0]["content"] == golden_text("judge_system.txt")
        and judge[-1]["content"] == golden_text("judge_user.txt")
        and build_embedding_text(snomed_concept()) == golden_text("embedding_text.txt")
    )

    full_user = definition[1]["content"]
    no_synonyms = build_definition_prompt(
        replace(snomed_context(), synonyms=[]), "SNOMED", "NCIT"
    )[1]["content"]
    expected_no_synonyms = "\n".join(
        line for line in full_user.splitlines() if not line.startswith("Synonyms: ")
    )
    bare = ContextBlock(
        iri="http://x.org/c#Heart", label="Heart", synonyms=[], parents=[], descriptions=[]
    )
    bare_user = build_definition_prompt(bare, "SNOMED", "NCIT")[1]["content"]

    judge_user = judge[-1]["content"]
    no_def_a = build_judgement_prompt(replace(NERVE_A, definition=None), NERVE_B)
    expected_no_def_a = judge_user.replace("\nDefinition: " + NERVE_A.definition, "", 1)

    omissions_ok = (
        no_synonyms == expected_no_synonyms
        and bare_user == "Concept: Heart"
        and no_def_a[-1]["content"] == expected_no_def_a
    )
    check(
        "prompt-goldens",
        goldens_ok and omissions_ok,
        f"5 committed renderings byte-identical: {goldens_ok}; "
        f"omission rules drop exactly their lines: {omissions_ok}",
    )


# -- end-to-end toy run ----------------------------------------------------------


def _snapshot(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def test_toy_end_to_end_and_warm_cache(tmp_path):
    """Deterministic mocks reach F1 = 1.0 on the 30x30 toy pair; a warm rerun
    skips every stage, makes zero provider calls, and leaves every artifact
    byte-identical. Budget: 20s for both runs."""
    started = time.perf_counter()
    config = toy_config(tmp_path)
    cold = CountingProvider(make_provider(config))
    Pipeline(config, provider=cold).run()
    out = Path(config.out_dir)
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    first = _snapshot(out)

    warm = CountingProvider(make_provider(config))
    statuses = Pipeline(config, provider=warm).run()
    second = _snapshot(out)
    elapsed = time.perf_counter() - started

    ok = (
        metrics["f1"] == 1.0
        and cold.total_calls > 0
        and second == first
        and warm.total_calls == 0
        and set(statuses.values()) == {"skipped"}
        and elapsed < 20.0
    )
    check(
        "toy-end-to-end",
        ok,
        f"F1 {metrics['f1']}, warm stages {sorted(set(statuses.values()))}, "
        f"warm provider calls {warm.total_calls}, byte-identical {second == first}, "
        f"{elapsed:.2f}s (budget 20s)",
    )


def test_fusion_threshold_monotonicity(toy_artifacts):
    """Raising either threshold never grows the toy mapping set, and the
    exact-route pairs survive every grid point unchanged."""
    judgements, source, target = toy_artifacts
    exact = exact_match(source, target)
    prob_grid = (0.5, 0.9, 0.99)
    cs_grid = (0.5, 0.9, 0.97)
    counts: dict[tuple[float, float], int] = {}
    exact_pair_sets = set()
    for lp in prob_grid:
        for lc in cs_grid:
            fused = filter_and_fuse(judgements, exact, lambda_prob=lp, lambda_cs=lc)
            counts[(lp, lc)] = len(fused)
            exact_pair_sets.add(
                frozenset(
                    (m.source, m.target)
                    for m in fused
                    if m.provenance in ("exact", "both")
                )
            )
    monotone_in_prob = all(
        counts[(prob_grid[i], lc)] >= counts[(prob_grid[i + 1], lc)]
        for i in range(len(prob_grid) - 1)
        for lc in cs_grid
    )
    monotone_in_cs = all(
        counts[(lp, cs_grid[j])] >= counts[(lp, cs_grid[j + 1])]
        for j in range(len(cs_grid) - 1)
        for lp in prob_grid
    )
    ok = monotone_in_prob and monotone_in_cs and len(exact_pair_sets) == 1
    check(
        "fusion-threshold-monotonicity",
        ok,
        f"counts by (lambda_prob, lambda_cs): {sorted(counts.items())}; "
        f"exact-route pair sets across grid: {len(exact_pair_sets)}",
    )


# -- local ranking ----------------------------------------------------------------


def test_local_ranking_metrics_match_oracle():
    """MRR and Hit@K over 500 random cases equal the per-case hand formula to
    1e-12, with the Hit@1 <= MRR <= 1 and Hit@1 <= Hit@5 <= Hit@10 chains."""
    rng = random.Random(9001)
    cases: list[RankingCase] = []
    ranks: list[int] = []
    for i in range(500):
        ids = [f"urn:t:{i}:{j}" for j in range(rng.randint(1, 12))]
        candidates = tuple((iri, round(rng.random() * 4) / 4) for iri in ids)
        gold = rng.choice(ids)
        cases.append(RankingCase(source=f"urn:s:{i}", gold=gold, candidates=candidates))
        ranks.append(oracles.rank_by_score(list(candidates), gold))
    mrr, hits = local_ranking(cases, ks=(1, 5, 10))
    ok = (
        abs(mrr - oracles.reference_mrr(ranks)) <= 1e-12
        and all(
            abs(hits[k] - oracles.reference_hit_at_k(ranks, k)) <= 1e-12
            for k in (1, 5, 10)
        )
        and hits[1] <= mrr <= 1.0
        and hits[1] <= hits[5] <= hits[10]
    )
    check(
        "local-ranking-metrics",
        ok,
        f"500 cases: MRR {mrr:.6f}, Hit@1/5/10 "
        f"{hits[1]:.3f}/{hits[5]:.3f}/{hits[10]:.3f}, oracle agreement 1e-12",
    )


# -- definition ablation plumbing ---------------------------------------------------


def test_no_definitions_removes_exactly_definition_segments(toy_artifacts, tmp_path):
    """Disabling definitions changes embedding texts and judgement prompts by
    removing exactly the Definition segments, nothing else."""
    _, source_def, target_def = toy_artifacts

    config = toy_config(tmp_path, use_definitions=False)
    provider = CountingProvider(make_provider(config))
    Pipeline(config, provider=provider).run()
    out = Path(config.out_dir)
    source_nodef = _load_ontology(out / "source.enriched.jsonl", "toy-src")
    target_nodef = _load_ontology(out / "target.enriched.jsonl", "toy-tgt")
    assert provider.generate_calls == 0, "no-definitions run must not call generate"

    defined = 0
    for with_onto, without_onto in ((source_def, source_nodef), (target_def, target_nodef)):
        for iri, with_c in with_onto.items():
            stripped = build_embedding_text(replace(with_c, definition=None))
            assert build_embedding_text(without_onto[iri]) == stripped
            with_text = build_embedding_text(with_c)
            if with_c.definition:
                defined += 1
                segment = "; Definition: " + truncate_words(with_c.definition) + ";"
                assert with_text == stripped[:-1] + segment
            else:
                assert with_text == stripped

    src_iri = next(i for i, c in source_def.items() if c.definition)
    tgt_iri = next(i for i, c in target_def.items() if c.definition)
    a_def = concept_context(source_def[src_iri], source_def)
    b_def = concept_context(target_def[tgt_iri], target_def)
    with_prompt = build_judgement_prompt(a_def, b_def)[-1]["content"]
    without_prompt = build_judgement_prompt(
        replace(a_def, definition=None), replace(b_def, definition=None)
    )[-1]["content"]
    assert with_prompt != without_prompt
    assert without_prompt == "\n".join(
        line for line in with_prompt.splitlines() if not line.startswith("Definition: ")
    )
    a_nodef = concept_context(source_nodef[src_iri], source_nodef)
    b_nodef = concept_context(target_nodef[tgt_iri], target_nodef)
    assert build_judgement_prompt(a_nodef, b_nodef)[-1]["content"] == without_prompt

    check(
        "no-definitions-ablation",
        defined >= 20,
        f"{defined} concepts with definitions: embedding texts and judgement "
        "prompts differ exactly by their Definition segments",
    )
