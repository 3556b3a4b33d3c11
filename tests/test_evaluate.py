"""Evaluation metrics: global P/R/F1 and local ranking (MRR, Hit@K)."""

import io
import random

import pytest

from ontomatch.errors import OntologyParseError, UndefinedMetricError
from ontomatch.evaluate import (
    MetricsReport,
    RankingCase,
    f1_score,
    global_metrics,
    local_ranking,
    make_ranking_cases,
    read_ranking_cases,
)

import oracles


def test_f1_hand_example():
    assert f1_score(0.795, 0.764) == pytest.approx(0.779, abs=5e-4)


def test_f1_zero_convention_and_symmetry():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(0.0, 1.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.3, 0.7) == f1_score(0.7, 0.3)


def test_f1_agrees_with_oracle():
    rng = random.Random(5)
    for _ in range(200):
        p, r = rng.random(), rng.random()
        assert f1_score(p, r) == pytest.approx(oracles.reference_f1(p, r), abs=1e-15)


def test_global_metrics_hand_example():
    predicted = {("s1", "t1"), ("s2", "t2")}
    reference = {("s1", "t1")}
    p, r, f1 = global_metrics(predicted, reference)
    assert p == 0.5
    assert r == 1.0
    assert f1 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_global_metrics_empty_conventions():
    assert global_metrics([], [("s", "t")]) == (0.0, 0.0, 0.0)
    assert global_metrics([("s", "t")], []) == (0.0, 0.0, 0.0)
    assert global_metrics([], []) == (0.0, 0.0, 0.0)


def test_global_metrics_deduplicates_pairs():
    predicted = [("s1", "t1"), ("s1", "t1")]
    p, r, f1 = global_metrics(predicted, [("s1", "t1")])
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def case(source: str, gold: str, scored: list[tuple[str, float]]) -> RankingCase:
    return RankingCase(source=source, gold=gold, candidates=tuple(scored))


def test_ranking_case_requires_gold_among_candidates():
    with pytest.raises(ValueError):
        case("s", "gone", [("t1", 0.9)])


def test_rank_of_gold_orders_by_score_desc():
    c = case("s", "t2", [("t1", 0.9), ("t2", 0.5), ("t3", 0.1)])
    assert c.rank_of_gold() == 2
    assert case("s", "t1", [("t1", 0.9), ("t2", 0.5)]).rank_of_gold() == 1


def test_rank_of_gold_breaks_ties_by_candidate_iri():
    c = case("s", "t2", [("t1", 0.5), ("t2", 0.5), ("t3", 0.5)])
    assert c.rank_of_gold() == 2
    first = case("s", "t0", [("t0", 0.5), ("t1", 0.5)])
    assert first.rank_of_gold() == 1


def test_local_ranking_hand_example():
    cases = [
        case("s1", "t1", [("t1", 0.9), ("t2", 0.5)]),           # rank 1
        case("s2", "t2", [("t1", 0.9), ("t2", 0.5), ("t3", 0.1)]),  # rank 2
    ]
    mrr, hits = local_ranking(cases, ks=(1, 2, 5))
    assert mrr == pytest.approx(0.75, abs=1e-15)
    assert hits == {1: 0.5, 2: 1.0, 5: 1.0}


def test_local_ranking_agrees_with_oracle_formulas():
    rng = random.Random(77)
    cases = []
    for i in range(60):
        n = rng.randint(1, 12)
        scored = [(f"t{j:02d}", rng.random()) for j in range(n)]
        gold = scored[rng.randrange(n)][0]
        cases.append(case(f"s{i:02d}", gold, scored))
    mrr, hits = local_ranking(cases, ks=(1, 5, 10))
    ranks = [oracles.rank_by_score(list(c.candidates), c.gold) for c in cases]
    assert mrr == pytest.approx(oracles.reference_mrr(ranks), abs=1e-12)
    for k in (1, 5, 10):
        assert hits[k] == pytest.approx(oracles.reference_hit_at_k(ranks, k), abs=1e-15)
    assert hits[1] <= mrr <= 1.0
    assert hits[1] <= hits[5] <= hits[10]


def test_local_ranking_rejects_empty_case_list():
    with pytest.raises(UndefinedMetricError):
        local_ranking([])


def scorer_by_table(table: dict[tuple[str, str], float], calls: list | None = None):
    """Batch scorer over a table (0.0 for a pair it lacks); appends each
    pair list it is called with to ``calls``."""

    def score(pairs):
        if calls is not None:
            calls.append(pairs)
        return {pair: table.get(pair, 0.0) for pair in pairs}

    return score


def test_make_ranking_cases_input_order_invariant():
    rows = [(f"s{i}", f"t{i}", [f"t{(i + j) % 10}" for j in (1, 2, 3)]) for i in range(10)]
    rows.append(("s4", "t2", ["t4"]))  # a second gold of s4 sorts before t4
    scorer = scorer_by_table({("s4", "t6"): 0.7, ("s4", "t4"): 0.2})
    shuffled = list(rows)
    random.Random(1).shuffle(shuffled)
    a = make_ranking_cases(rows, scorer)
    b = make_ranking_cases(shuffled, scorer)
    assert [(c.source, c.gold) for c in a] == sorted((s, g) for s, g, _ in rows)
    assert a == b


def test_make_ranking_cases_with_candidate_mapping():
    rows = [("s1", "t1", ["t9", "t1", "t8", "t9"])]  # gold duplicate is dropped
    cases = make_ranking_cases(rows, scorer_by_table({}))
    assert len(cases) == 1
    assert cases[0].source == "s1"
    assert [iri for iri, _ in cases[0].candidates] == ["t1", "t9", "t8", "t9"]


def test_make_ranking_cases_scorer_receives_source_and_candidate():
    table = {("s1", "t1"): 0.4, ("s1", "t2"): 0.9}
    cases = make_ranking_cases([("s1", "t1", ["t2"])], scorer_by_table(table))
    assert cases[0].candidates == (("t1", 0.4), ("t2", 0.9))
    assert cases[0].rank_of_gold() == 2


def test_make_ranking_cases_keeps_every_row_of_a_repeated_source():
    rows = [("s", "g2", ["x"]), ("s", "g1", ["x", "g2"])]
    cases = make_ranking_cases(rows, scorer_by_table({("s", "g2"): 0.5}))
    assert [(c.source, c.gold) for c in cases] == [("s", "g1"), ("s", "g2")]
    assert [c.rank_of_gold() for c in cases] == [2, 1]


def test_make_ranking_cases_scores_each_distinct_pair_in_one_call():
    rows = [("s2", "t2", ["t1", "t1"]), ("s1", "t1", ["t2"]), ("s1", "t2", ["t1", "t3"])]
    calls = []
    make_ranking_cases(rows, scorer_by_table({}, calls))
    assert calls == [[("s1", "t1"), ("s1", "t2"), ("s1", "t3"), ("s2", "t2"), ("s2", "t1")]]


def test_ranking_case_tsv_round_trip():
    text = (
        "http://s#S2\thttp://t#T2\thttp://t#T9\n"
        "http://s#S1\thttp://t#T1\thttp://t#T8\thttp://t#T7\n"
        "http://s#S2\thttp://t#T3\n"
    )
    assert read_ranking_cases(io.StringIO(text)) == [
        ("http://s#S2", "http://t#T2", ["http://t#T9"]),
        ("http://s#S1", "http://t#T1", ["http://t#T8", "http://t#T7"]),
        ("http://s#S2", "http://t#T3", []),
    ]


def test_read_ranking_cases_rejects_short_rows():
    with pytest.raises(OntologyParseError) as exc:
        read_ranking_cases(io.StringIO("only-source\n"))
    assert exc.value.line == 1


def test_metrics_report_json_format():
    report = MetricsReport(precision=0.5, recall=1.0, f1=2.0 / 3.0,
                           predicted_count=2, reference_count=1)
    out = report.to_json()
    assert out.endswith("\n")
    import json

    payload = json.loads(out)
    assert payload["precision"] == 0.5
    assert payload["hit_at"] == {}
    assert payload["mrr"] is None


def test_metrics_report_text_format():
    report = MetricsReport(precision=0.5, recall=1.0, f1=2.0 / 3.0, mrr=0.75,
                           hit_at={1: 0.5, 10: 1.0},
                           predicted_count=2, reference_count=1)
    text = report.to_text()
    lines = text.splitlines()
    assert "predicted  2" in lines[0]
    assert any(line.startswith("precision") and line.endswith("0.500") for line in lines)
    assert any(line.startswith("hit@1 ") and line.endswith("0.500") for line in lines)
    assert any(line.startswith("hit@10") and line.endswith("1.000") for line in lines)


def test_metrics_report_text_omits_missing_fields():
    text = MetricsReport(mrr=0.5).to_text()
    assert "precision" not in text
    assert "mrr" in text
