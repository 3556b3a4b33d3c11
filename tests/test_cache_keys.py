"""The cache keys and entry bytes of a cold toy run, pinned.

``tests/data/golden/cache_keys.json`` maps each config case to each cache
kind. For the prompt-keyed kinds (``define``, ``judge``) it holds the entry
names (``<digest>.json``, as the files of the layout before the logs were
named) in digest order, and one sha256 over the entries' payload bytes, read
through the store, in that order. For ``embed`` it holds the sorted names of
the entry files and one sha256 over their bytes. A change to the key
formula (``PromptFrame``), to a prompt's text, to what an entry stores or to
an embedding's bytes fails here, and an existing cache would no longer serve
it. A mock vector is integer counts divided by the square root of an
integer sum of squares, exact in float64, so its bytes do not depend on the
BLAS build.

``tests/data/golden/prompts.jsonl`` holds each define and judge prompt the
default case renders, one JSON line each in (kind, key) order: its messages
and the key they are asked under, which must equal the key formula encoded
whole (``oracles.reference_prompt_digest``) and name the pinned entries. So
a prompt's text is pinned apart from the code that renders it.

A change that alters the keys or the prompts on purpose regenerates both
files with ``python tests/test_cache_keys.py`` and declares it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

import ontomatch.definitions as definitions_module
import ontomatch.judge as judge_module
from ontomatch.cache import ResponseCache
from ontomatch.pipeline import Pipeline, make_provider
from ontomatch.providers import SamplingParams

from conftest import GOLDEN_DIR, RecordingCache, toy_config
from oracles import reference_prompt_digest

GOLDEN = GOLDEN_DIR / "cache_keys.json"
PROMPTS = GOLDEN_DIR / "prompts.jsonl"
KINDS = ("define", "judge")
CASES = {
    "default": {},
    "few_shot_2_no_definitions": {"few_shot": 2, "use_definitions": False},
}


def cache_keys(cache_dir: Path) -> dict[str, dict]:
    """Each kind present under ``cache_dir``: its entry names in order and
    the sha256 of their bytes concatenated in that order."""
    keys = {}
    store = ResponseCache(cache_dir)
    for kind in KINDS:
        entries = store._load(kind)
        if entries:
            digests = sorted(entries)
            h = hashlib.sha256()
            for digest in digests:
                h.update(entries[digest])
            keys[kind] = {"entries": [f"{d}.json" for d in digests], "sha256": h.hexdigest()}
    directory = cache_dir / "embed"
    if directory.is_dir():
        names = sorted(p.name for p in directory.iterdir())
        h = hashlib.sha256()
        for name in names:
            h.update((directory / name).read_bytes())
        keys["embed"] = {"entries": names, "sha256": h.hexdigest()}
    return keys


def cold_toy_cache_keys(tmp_path: Path, overrides: dict) -> dict[str, dict]:
    config = toy_config(tmp_path, **overrides)
    Pipeline(config).run()
    return cache_keys(Path(config.cache_dir))


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cold_toy_run_writes_the_pinned_cache_keys_and_bytes(tmp_path, case):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    actual = cold_toy_cache_keys(tmp_path, CASES[case])
    assert sorted(actual) == sorted(expected)
    for kind in expected:
        assert actual[kind]["entries"] == expected[kind]["entries"], kind
        assert actual[kind]["sha256"] == expected[kind]["sha256"], kind


def cold_toy_prompts(tmp_path: Path) -> list[str]:
    """Each distinct define and judge prompt of a cold run of the default
    case, as it reached the provider, in (kind, key) order: one JSON line of
    its kind, key and messages each."""
    config = toy_config(tmp_path, **CASES["default"])
    cache = RecordingCache(config.cache_dir)
    pipeline = Pipeline(config, provider=cache.provider(make_provider(config)))
    pipeline.cache = cache
    pipeline.run()
    return [json.dumps({"kind": kind, "key": key, "messages": cache.prompts[kind, key]},
                       ensure_ascii=False, sort_keys=True) for kind, key in sorted(cache.prompts)]


def test_a_cold_toy_run_renders_the_pinned_prompts_under_their_keys(tmp_path):
    expected = PROMPTS.read_text(encoding="utf-8").splitlines()
    assert cold_toy_prompts(tmp_path) == expected
    config = toy_config(tmp_path, **CASES["default"])
    model = make_provider(config).chat_model_id
    params = SamplingParams(config.temperature, config.top_p, config.max_tokens)
    templates = {"define": definitions_module.TEMPLATE_VERSION,
                 "judge": judge_module.JUDGE_TEMPLATE_VERSION}
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["default"]
    for kind in KINDS:
        prompts = [p for p in map(json.loads, expected) if p["kind"] == kind]
        assert [f"{p['key']}.json" for p in prompts] == pinned[kind]["entries"]
        for p in prompts:
            assert p["key"] == reference_prompt_digest(
                kind, templates[kind], model, p["messages"],
                params if kind == "define" else None)


if __name__ == "__main__":
    golden = {}
    for case, overrides in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = cold_toy_cache_keys(Path(tmp), overrides)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        lines = cold_toy_prompts(Path(tmp))
    PROMPTS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {PROMPTS}", file=sys.stderr)
