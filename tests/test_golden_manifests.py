"""The manifests of a cold toy run, pinned.

``tests/data/golden/manifests.json`` maps each config case to each stage's
``input_digest`` and ``outputs`` (the sha256 of each artifact, as
``manifest.json`` records them). A change to what a stage hashes, to an
artifact's bytes or to the stage table fails here, and an existing ``out/``
would no longer be skipped. The digests cover input files by content and
never by path, so they do not depend on where the run is made.

A change that alters them on purpose regenerates the file with
``python tests/test_golden_manifests.py`` and declares it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from ontomatch.pipeline import STAGES, Pipeline

from conftest import GOLDEN_DIR, CountingProvider, toy_config, toy_ranking_cases
from test_cache_keys import CASES as CACHE_KEY_CASES

GOLDEN = GOLDEN_DIR / "manifests.json"
CASES = {
    **CACHE_KEY_CASES,
    "few_shot_2_bidirectional_pyes": {"few_shot": 2, "bidirectional": True,
                                      "ranking_scorer": "pyes", "ranking_cases": True},
}


def case_config(tmp_path: Path, overrides: dict):
    """The toy config of a case; ``ranking_cases: True`` stands for the toy
    ranking cases, written under ``tmp_path``."""
    overrides = dict(overrides)
    if overrides.get("ranking_cases"):
        overrides["ranking_cases"] = toy_ranking_cases(tmp_path)
    return toy_config(tmp_path, **overrides)


def manifest_digests(out_dir: str) -> dict[str, dict]:
    stages = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))["stages"]
    return {stage: {"input_digest": entry["input_digest"], "outputs": entry["outputs"]}
            for stage, entry in stages.items()}


def cold_toy_manifest(tmp_path: Path, overrides: dict) -> dict[str, dict]:
    config = case_config(tmp_path, overrides)
    Pipeline(config).run()
    return manifest_digests(config.out_dir)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cold_toy_run_records_the_pinned_digests_and_a_warm_run_skips_every_stage(
        tmp_path, case):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert sorted(expected) == sorted(STAGES)
    assert cold_toy_manifest(tmp_path, CASES[case]) == expected

    config = case_config(tmp_path, CASES[case])
    provider = CountingProvider(Pipeline(config).provider)
    assert Pipeline(config, provider=provider).run() == {s: "skipped" for s in STAGES}
    assert provider.total_calls == 0
    assert manifest_digests(config.out_dir) == expected


if __name__ == "__main__":
    golden = {}
    for case, overrides in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = cold_toy_manifest(Path(tmp), overrides)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
