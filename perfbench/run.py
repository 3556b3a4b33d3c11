"""Benchmark of the seven-stage ontomatch pipeline on a generated OWL pair.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cold,warm-force,retune,all} --seed N
        --seconds S --trace {0,1}

Each workload runs the unmodified ``Pipeline(config, provider=...).run()``
with every config default except ``with_provenance`` and a ranking-cases
file, on one OWL/RDF-XML pair generated from ``--seed`` (``gen.py``), with
``MockProvider`` behind a fixed per-call wait (``provider.py``):

  cold        empty output and cache directories, one ``run()``
  warm-force  cache filled by an untimed cold run, then ``run(force=True)``
  retune      output restored from a completed default run, then one
              ``run()`` per threshold pair of a four-step sweep ending at
              the defaults

Repetitions run one at a time, each in a fresh process (``rep.py``), at
least three and then until the next would end after ``--seconds``; every
repetition's outputs are checked. Reported values are medians over
repetitions. With ``--trace 1`` one more repetition runs with spans recorded
(``tracer.py``) and the per-layer metrics are reported instead of the
end-to-end ones; both lists, with units, are read from ``BENCHMARK.json``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results and spans go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from provider import DELAY_S
from rep import read_pairs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORK = STATE / "work"
RESULTS = STATE / "results"

# Concepts per side (4,000 judged pairs at k=10). Real Bio-ML tasks have 8k-65k
# classes per side; this size keeps three cold repetitions near 30 s on 2 cores.
CONCEPTS = 400
SETUP_SAMPLES = 11
MIN_REPS = 3
REP_TIMEOUT_S = 120
STAGES = ("ingest", "define", "embed", "match", "judge", "fuse", "eval")
DEFAULTS = (0.99, 0.97)
# (lambda_prob, lambda_cs, expected judge status). Each pair differs from the
# one before (the first from the defaults of the restored run) and changes
# mappings.tsv, so fuse and eval run every time; judge re-runs whenever
# lambda_prob changes.
SWEEP = (
    (0.5, 0.75, "complete"),
    (0.5, 0.97, "skipped"),
    (0.9995, 0.97, "complete"),
    (*DEFAULTS, "complete"),
)


def _step(lambda_prob, lambda_cs, force, expect):
    return {"lambda_prob": lambda_prob, "lambda_cs": lambda_cs, "force": force,
            "expect": expect}


ALL_COMPLETE = {s: "complete" for s in STAGES}
WORKLOADS = {
    "cold": {"prepare": False, "steps": [_step(*DEFAULTS, False, ALL_COMPLETE)]},
    "warm-force": {"prepare": True, "steps": [_step(*DEFAULTS, True, ALL_COMPLETE)]},
    "retune": {
        "prepare": True,
        "steps": [
            _step(p, c, False, {**ALL_COMPLETE, **dict.fromkeys(STAGES[:4], "skipped"),
                                "judge": judge})
            for p, c, judge in SWEEP
        ],
    },
}


def machine_facts(path: Path) -> dict:
    real = os.path.realpath(path)
    fstype, best = "unknown", ""
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fp:
            for line in fp:
                fields = line.split()
                mount = fields[1]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    fstype, best = fields[2], mount
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "work_fs": fstype,
        "machine": platform.machine(),
    }


def _tree_footprint(path: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.data = WORK / "data"
        self.out = WORK / "out"
        self.cache = WORK / "cache"
        self.snapshot = WORK / "snapshot"
        self.planted = gen.generate(self.data, seed, CONCEPTS)
        (self.data / "planted.json").write_text(json.dumps({
            "exact": self.planted.exact, "near_miss": self.planted.near_miss,
        }), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_digests: dict | None = None

    def rep(self, steps, delay_s=None, spans=None, setup_only=False) -> dict | None:
        """Run one repetition in a child process; returns its result or None."""
        spec_path, result_path = WORK / "spec.json", WORK / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {
            "root": str(ROOT), "data": str(self.data), "out": str(self.out),
            "cache": str(self.cache), "steps": steps, "setup_only": setup_only,
            "delay_s": DELAY_S if delay_s is None else delay_s,
            "spans": str(spans) if spans else None, "result": str(result_path),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(spec_path)],
                                  stdout=subprocess.DEVNULL, timeout=REP_TIMEOUT_S)
            failed = proc.returncode != 0
        except subprocess.TimeoutExpired:
            failed = True
        if failed or not result_path.exists():
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def checked_rep(self, label: str, **kwargs) -> dict | None:
        """A full repetition whose outputs are checked; failures are counted."""
        self.attempted += 1
        steps = WORKLOADS["cold"]["steps"] if label == "prepare" else self.spec["steps"]
        result = self.rep(steps, **kwargs)
        problems = []
        if result is None:
            problems.append("run raised or did not finish")
        else:
            problems.extend(result["problems"])
            if result["provider_errors"]:
                problems.append(f"{result['provider_errors']} provider errors")
            if label != "prepare" and self.spec["prepare"] and result["provider_calls"]:
                problems.append(f"{result['provider_calls']} provider calls, expected 0")
            if self.expected_digests is None:
                self.expected_digests = result["digests"]
            elif result["digests"] != self.expected_digests:
                changed = sorted(a for a, d in result["digests"].items()
                                 if self.expected_digests.get(a) != d)
                problems.append(f"artifacts differ from the first run: {changed}")
        self.problems.extend(f"{label}: {p}" for p in problems)
        if problems:
            self.failed += 1
            return None
        return result

    def reset_state(self) -> None:
        """Bring out/ and cache/ to the workload's starting state."""
        if self.workload == "cold":
            shutil.rmtree(self.out, ignore_errors=True)
            shutil.rmtree(self.cache, ignore_errors=True)
        elif self.workload == "retune":
            shutil.rmtree(self.out, ignore_errors=True)
            shutil.copytree(self.snapshot, self.out)

    def measure(self, seconds: float, trace: bool) -> dict:
        if self.spec["prepare"]:
            # The cache contents do not depend on the wait, so fill it without one.
            if self.checked_rep("prepare", delay_s=0.0) is None:
                return {}
            shutil.copytree(self.out, self.snapshot)
        samples: dict[str, list[float]] = {}
        reps = 0
        started = time.perf_counter()
        while True:
            self.reset_state()
            result = self.checked_rep("measure")
            if result is None:
                break
            reps += 1
            files, size = _tree_footprint(self.cache)
            metrics = json.loads((self.out / "metrics.json").read_text(encoding="utf-8"))
            for name, value in (
                ("wall_s", result["wall_s"]), ("setup_s", result["setup_s"]),
                ("peak_rss_mb", result["peak_rss_mb"]), ("cache_files", files),
                ("cache_mb", size / 2**20), ("f1", metrics["f1"]), ("mrr", metrics["mrr"]),
            ):
                samples.setdefault(name, []).append(value)
            # Stop before a repetition that would end past the budget, but
            # not before MIN_REPS, so that the median has a middle.
            elapsed = time.perf_counter() - started
            if reps >= MIN_REPS and elapsed * (reps + 1) / reps > seconds:
                break
        while reps and len(samples["setup_s"]) < SETUP_SAMPLES:
            probe = self.rep(self.spec["steps"], setup_only=True)
            if probe is None:
                self.attempted += 1
                self.failed += 1
                self.problems.append("setup: construction raised")
                break
            samples["setup_s"].append(probe["setup_s"])
        out = {"samples": samples}
        if trace and reps:
            out["layers"] = self.traced(statistics.median(samples["wall_s"]))
        return out

    def traced(self, untraced_wall_s: float) -> dict:
        self.reset_state()
        spans = RESULTS / f"{self.workload}-spans.json"
        result = self.checked_rep("traced", spans=spans)
        if result is None:
            return {}
        layers = dict(result["layers"])
        layers.update({
            "provider_calls": result["provider_calls"],
            "prompt_chars": result["prompt_chars"],
            "providers.embed.texts": result["embed_texts"],
            "providers.errors": result["provider_errors"],
            "retrieval.recall": self._recall(),
            "judge.useful_ratio": self._useful_ratio(),
            "trace.overhead_s": result["wall_s"] - untraced_wall_s,
            "trace.wall_s": result["wall_s"],
            "trace.spans": result["span_count"],
        })
        problems = self._trace_checks(layers, result["span_names"])
        layers["trace.checks_failed"] = len(problems)
        if problems:
            self.failed += 1
            self.problems.extend(f"trace: {p}" for p in problems)
        return layers

    def _rows(self, name: str) -> list[tuple[str, str]]:
        return read_pairs(self.out / name)

    def _recall(self) -> float:
        candidates = set(self._rows("candidates.tsv"))
        reference = self.planted.reference
        return sum(1 for p in reference if tuple(p) in candidates) / len(reference)

    def _useful_ratio(self) -> float:
        judged = self._rows("judgements.tsv")
        mapped = set(self._rows("mappings.tsv"))
        return sum(1 for p in judged if p in mapped) / len(judged)

    def _trace_checks(self, m: dict, span_names: list[str]) -> list[str]:
        """The tracer against independent counts, and the stated predictions."""
        problems = []
        rows = len(self._rows("judgements.tsv"))
        judge_runs = m["judge.candidates.calls"]
        if m["judge.pairs"] != rows * judge_runs:
            problems.append(f"judge.pairs {m['judge.pairs']} != {rows} rows x {judge_runs} runs")
        if self.workload == "cold":
            if m["retrieval.top_k.calls"] != self.planted.source_count:
                problems.append(f"retrieval.top_k.calls {m['retrieval.top_k.calls']} != "
                                f"{self.planted.source_count} source concepts")
            provider_chat = m["providers.generate.calls"] + m["providers.classify.calls"]
            if m["cache.misses"] != provider_chat:
                problems.append(f"cache.misses {m['cache.misses']} != {provider_chat} "
                                "generate + classify calls")
        else:
            for name in ("provider_calls", "cache.put.calls", "providers.generate.calls",
                         "providers.classify.calls", "providers.embed.calls"):
                if m[name]:
                    problems.append(f"{name} is {m[name]}, expected 0")
        if self.workload == "retune":
            bypassed = [n for n in span_names if n.startswith(("ingest.", "retrieval."))]
            if bypassed:
                problems.append(f"spans of bypassed layers: {bypassed}")
        return problems


def _summary(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"  {name} [{unit}]: no samples"
    n = len(values)
    # The highest percentile with ten samples beyond it is 100 * (1 - 10 / n);
    # it lies above the median only from 21 samples on.
    if n > 20:
        pct = int(100.0 * (1 - 10 / n))
        tail = f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    else:
        tail = f"max {max(values):.6g} (no percentile above the median has ten beyond it)"
    return f"  {name} [{unit}]: median {statistics.median(values):.6g}, {tail}, n={n}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Measure one workload and print its report; ``units`` is
    ``{"end_to_end" | "per_layer": {metric name: unit}}`` from BENCHMARK.json."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    facts = machine_facts(WORK)
    runner = Runner(workload, seed)
    measured = runner.measure(seconds, trace)
    samples = measured.get("samples", {})
    layers = measured.get("layers", {})
    failed = runner.failed
    correct = not runner.problems
    if trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units["per_layer"].items() if name in layers}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in units["end_to_end"].items() if name in samples}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "concepts_per_side": CONCEPTS, "facts": facts, "samples": samples,
        "problems": runner.problems, "correct": correct,
        "attempted": runner.attempted, "failed": failed, "metrics": metrics,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {workload}, seed {seed}, {CONCEPTS} concepts per side; "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for name, unit in units["end_to_end"].items():
        print(_summary(name, unit, samples.get(name, [])))
    if trace:
        for name, unit in units["per_layer"].items():
            value = layers.get(name)
            print(f"  {name} [{unit}]: {'missing' if value is None else f'{value:.6g}'}")
    error_rate = failed / runner.attempted if runner.attempted else 1.0
    print(f"  error_rate [share]: {error_rate:.6g} ({failed} of {runner.attempted} runs)")
    print("  output check: " + ("passed" if correct else "FAILED"))
    for problem in runner.problems:
        print(f"    {problem}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ontomatch" / "pipeline.py").is_file():
        print(f"error: {ROOT / 'src' / 'ontomatch'} not found; run from an ontomatch checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), units)
               for w in workloads]
    if len(records) == 1:
        r = records[0]
        line = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                for r in records}
    print(json.dumps(line))
    expected = units["per_layer" if args.trace else "end_to_end"]
    return 0 if all(len(r["metrics"]) == len(expected) for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
