"""The cache keys and entry bytes of a cold toy run, pinned.

``tests/data/golden/cache_keys.json`` maps each config case to each
prompt-keyed cache kind (``define``, ``judge``): the sorted names of its
entry files and one sha256 over their bytes, in that order. A change to
``prompt_digest``, to a prompt's text or to what an entry stores fails here,
and an existing cache tree would no longer serve it. The ``embed`` entries
are keyed by their texts, not by a prompt, and hold floats whose last bits
depend on the BLAS build, so they are not pinned.

A change that alters the keys on purpose regenerates the file with
``python tests/test_cache_keys.py`` and declares it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ontomatch.pipeline import Pipeline

from conftest import GOLDEN_DIR, toy_config

GOLDEN = GOLDEN_DIR / "cache_keys.json"
KINDS = ("define", "judge")
CASES = {
    "default": {},
    "few_shot_2_no_definitions": {"few_shot": 2, "use_definitions": False},
}


def cache_keys(cache_dir: Path) -> dict[str, dict]:
    """Each of ``KINDS`` present under ``cache_dir``: its sorted entry file
    names and the sha256 of their bytes concatenated in that order."""
    keys = {}
    for kind in KINDS:
        directory = cache_dir / kind
        if not directory.is_dir():
            continue
        names = sorted(p.name for p in directory.iterdir())
        h = hashlib.sha256()
        for name in names:
            h.update((directory / name).read_bytes())
        keys[kind] = {"entries": names, "sha256": h.hexdigest()}
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


if __name__ == "__main__":
    golden = {}
    for case, overrides in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = cold_toy_cache_keys(Path(tmp), overrides)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
