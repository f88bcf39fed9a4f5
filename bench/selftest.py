#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py      (from the root of a checkout)

Runs every workload once at toy sizes, traced and untraced, and checks
that:

- each run ends with a result line holding exactly the keys correct,
  attempted, failed and metrics, with no failed job;
- every metric BENCHMARK.json declares is emitted with its unit and a
  finite value, end-to-end ones untraced and per-layer ones traced;
- a deliberately corrupted output is counted as failed;
- bench/layers.json describes exactly the declared metrics;
- the same seed gives byte-identical inputs and another seed other ones;
- a traced function that no longer exists is reported missing instead
  of crashing the run.

Prints one line per problem and exits 1 if there is any.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import seeded  # noqa: E402
import spans  # noqa: E402


def bench_run(workload, trace, corrupt=False, seed=3):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    if corrupt:
        argv.append("--corrupt")
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(tag, result, declared, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                        f"extra {sorted(set(metrics) - set(declared))}, "
                        f"missing {sorted(set(declared) - set(metrics))}")
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {name} = {got}, want a finite value in {unit}")


def check_metadata(bench, problems):
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        described = {k: (v["unit"], v["better"]) for k, v in layers[section].items()}
        if declared != described:
            problems.append(f"layers.json {section} disagrees with BENCHMARK.json")
    if sorted(layers["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        problems.append("layers.json workloads disagree with BENCHMARK.json")


def check_inputs(problems):
    def inputs(seed):
        w = run.CliBatch(seed, True, None)
        q = run.Quadrature(seed, False, None)
        blobs = [seeded.qsig_bytes(d, w.extent) for d in w.fields.values()]
        blobs.append(w.ppm)
        blobs.append(json.dumps([w.axes, w.mats, w.points, w.lc_point, q.axes, q.mats,
                                 [j.argv for j in q.jobs("d")]]).encode())
        return blobs

    if inputs(5) != inputs(5):
        problems.append("the same seed gave different inputs")
    if any(a == b for a, b in zip(inputs(5), inputs(6))):
        problems.append("two seeds gave an identical input")


def check_missing(problems):
    """Delete a traced function and check it is reported, not fatal."""
    import qharmonics._kernels as kernels

    saved = kernels.chirp_multiply
    del kernels.chirp_multiply
    try:
        rec = spans.Recorder()
        rec.install()
    finally:
        kernels.chirp_multiply = saved
    if "qharmonics._kernels.chirp_multiply" not in rec.missing:
        problems.append(f"deleted function not reported missing: {rec.missing}")
    outcome = run.Outcome("x", 1.0, True, 0.0, "", 1.0)
    metrics, gone = run.per_layer([[outcome]], [[outcome]], [outcome],
                                  {"spans": [], "eval_points": [], "missing": rec.missing})
    if "kernels.chirp_multiply_s" in metrics or "kernels.chirp_multiply_s" not in gone:
        problems.append("a missing function's metric was emitted or not reported")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    check_metadata(bench, problems)
    check_inputs(problems)
    check_missing(problems)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        try:
            check_result(f"{w} untraced", bench_run(w, 0), e2e, problems)
            check_result(f"{w} traced", bench_run(w, 1), layer, problems)
            bad = bench_run(w, 0, corrupt=True)
            if bad["correct"] or bad["failed"] < 1:
                problems.append(f"{w}: a corrupted output was not counted as failed")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(f"{w}: {exc}")
        print(f"selftest: {w} done", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
