"""Independent reference implementations used to check production code.

Everything here is deliberately written without importing the package under
test: brute-force scans in pure Python with compensated summation, and
probability arithmetic in arbitrary-precision floats via mpmath. Slow on
purpose; correctness is the only goal.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Callable, Sequence

import mpmath

YES_FORMS = ("YES", "Yes", "yes", " YES", " Yes", " yes")
NO_FORMS = ("NO", "No", "no", " NO", " No", " no")


def dot(a, b) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def norm(a) -> float:
    return math.sqrt(math.fsum(x * x for x in a))


def cosine(a, b) -> float:
    value = dot(a, b) / (norm(a) * norm(b))
    return max(-1.0, min(1.0, value))


def reference_prompt_digest(kind: str, template: str, model: str, messages, params=None) -> str:
    """The cache key formula, encoded whole: sha256 of the canonical JSON,
    which holds the sampling ``params`` when they are given."""
    key = {"kind": kind, "template": template, "model": model, "messages": list(messages)}
    if params is not None:
        key["params"] = {"temperature": params.temperature, "top_p": params.top_p,
                         "max_tokens": params.max_tokens}
    payload = json.dumps(key, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def exact_pairs(
    source: Sequence[tuple[str, Sequence[str]]], target: Sequence[tuple[str, Sequence[str]]]
) -> set[tuple[str, str]]:
    """Every (source IRI, target IRI) of two ``(iri, strings)`` lists whose
    strings share a non-empty whitespace-collapsed, case-folded form, found by
    checking every pair."""

    def forms(strings: Sequence[str]) -> set[str]:
        return {" ".join(s.split()).casefold() for s in strings} - {""}

    return {
        (s, t)
        for s, s_strings in source
        for t, t_strings in target
        if forms(s_strings) & forms(t_strings)
    }


def brute_force_top_k(items: list[tuple[str, list[float]]], query, k: int) -> list[tuple[str, float]]:
    """Rank every stored (iri, vector) by cosine to the query.

    Ties break by ascending IRI byte order; returns at most k pairs.
    """
    scored = [(iri, cosine(vec, query)) for iri, vec in items]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def recall_at_k(approx: list[str], exact: list[str]) -> float:
    """|approx ∩ exact| / |exact| over two same-length result id lists."""
    if not exact:
        raise ValueError("recall needs a non-empty exact result list")
    return len(set(approx) & set(exact)) / len(exact)


def reference_softmax(logits: dict[str, float], precision: int = 80) -> dict[str, float]:
    """Softmax over a token->logit map in arbitrary-precision arithmetic."""
    with mpmath.workdps(precision):
        exps = {t: mpmath.e ** mpmath.mpf(v) for t, v in logits.items()}
        total = mpmath.fsum(exps.values())
        return {t: float(v / total) for t, v in exps.items()}


def reference_p_yes(entries: dict[str, float], floor: float = -20.0, mode: str = "pair") -> float:
    """Two-way renormalized YES probability, computed in mpmath.

    Mirrors the documented contract: sum the probability mass of present
    YES variants (log-sum-exp), likewise for NO, substituting exp(floor)
    for an absent side, then normalize over the two masses. In ``full``
    mode, the YES mass (0 when no variant is present) over the mass of every
    entry instead.
    """
    with mpmath.workdps(80):
        yes_terms = [mpmath.e ** mpmath.mpf(entries[t]) for t in YES_FORMS if t in entries]
        no_terms = [mpmath.e ** mpmath.mpf(entries[t]) for t in NO_FORMS if t in entries]
        if not yes_terms and not no_terms:
            raise ValueError("no YES or NO variant present")
        if mode == "full":
            total = mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in entries.values())
            return float(mpmath.fsum(yes_terms) / total)
        yes = mpmath.fsum(yes_terms) if yes_terms else mpmath.e ** mpmath.mpf(floor)
        no = mpmath.fsum(no_terms) if no_terms else mpmath.e ** mpmath.mpf(floor)
        return float(yes / (yes + no))


class Unscorable(Exception):
    """``two_pass_p_yes``'s stand-in for the package's ``ItemError``."""


def _two_pass_mass(dist: dict[str, float], variants: Sequence[str]) -> tuple[float, bool]:
    present = [dist[v] for v in variants if v in dist]
    if not present:
        return -20.0, False
    top = max(present)
    if top == -math.inf:
        return top, True
    return top + math.log(sum(math.exp(x - top) for x in present)), True


def two_pass_p_yes(entries: dict[str, float], mode: str = "pair") -> float:
    """``judge.p_yes``'s two-pass formula, copied as a reference: every side
    takes the max pass and the log-sum-exp pass. Production must equal it
    bit for bit, and raise ``ItemError`` with the message it raises
    ``Unscorable`` with."""
    yes_mass, yes_found = _two_pass_mass(entries, YES_FORMS)
    no_mass, no_found = _two_pass_mass(entries, NO_FORMS)
    if not yes_found and not no_found:
        raise Unscorable(f"no YES or NO variant among tokens {sorted(entries)[:8]}")
    if mode == "pair":
        if yes_mass == no_mass == -math.inf:
            raise Unscorable("YES and NO both have log-probability -inf")
        diff = no_mass - yes_mass
        if diff >= 0:
            return math.exp(-math.log1p(math.exp(-diff)) - diff)
        return 1.0 / (1.0 + math.exp(diff))
    values = list(entries.values())
    top = max(values)
    if top == -math.inf:
        raise Unscorable("every token has log-probability -inf")
    total = top + math.log(sum(math.exp(v - top) for v in values))
    if not yes_found:
        return 0.0
    return math.exp(yes_mass - total)


def reference_f1(precision: float, recall: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def reference_mrr(ranks: list[int]) -> float:
    """Mean reciprocal rank from explicit 1-based ranks, via fsum."""
    if not ranks:
        raise ValueError("MRR needs at least one rank")
    return math.fsum(1.0 / r for r in ranks) / len(ranks)


def reference_hit_at_k(ranks: list[int], k: int) -> float:
    if not ranks:
        raise ValueError("Hit@K needs at least one rank")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def rank_by_score(candidates: list[tuple[str, float]], gold: str) -> int:
    """1-based rank of the gold id when candidates sort by (-score, id)."""
    ordered = sorted(candidates, key=lambda t: (-t[1], t[0]))
    for position, (iri, _) in enumerate(ordered, start=1):
        if iri == gold:
            return position
    raise ValueError(f"gold {gold!r} not among candidates")


def alias_rewriter(groups: Sequence[Sequence[str]]) -> Callable[[str], str]:
    """The mock provider's alias rewrite as one regex alternation, longest
    alias first: on whitespace-collapsed, case-folded text, the longest alias
    starting at the leftmost possible position becomes its group's first
    member. Members that collapse to the empty string are left out."""

    def collapse(s: str) -> str:
        return " ".join(s.split()).casefold()

    canon = {collapse(m): collapse(g[0]) for g in groups for m in g if collapse(m)}
    if not canon:
        return collapse
    pattern = re.compile("|".join(re.escape(k) for k in sorted(canon, key=len, reverse=True)))
    return lambda text: pattern.sub(lambda m: canon[m.group(0)], collapse(text))
