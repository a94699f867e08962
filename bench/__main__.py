"""Run one benchmark workload and print its metrics.

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed orders the model's declarations.
Every sample runs in a fresh child process, one at a time.  With
``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced samples, and the
spans go to ``bench/out``.  Every reported time is scaled to the reference
speed of ``reference.py``; the lines above the result also give the raw
wall times.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from bench import families, reference, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 7      # set-up-only children per run, besides the workload's
MIN_SAMPLES = 3        # workload children per run, whatever --seconds says
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = dict(spans.LAYER_UNITS, **{"trace.overhead_s": "s"})
# Exactly 0 on the workloads without derive-ab or a failing check, so they
# are printed but left out of the result line.
UNREPORTED = ("equivalence.cex_s", "composition.derive_ab_s")


def _child(model_path, workload, mode, run) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", repr(spawned), ROOT,
         model_path, workload, mode, str(run)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} sample failed with exit code "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _spread(values) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g} (n={len(values)})"


def _samples(model_path, workload, seconds, trace) -> tuple[list, dict]:
    """Set-up samples, and workload samples by mode, until ``seconds`` is used.

    The reference kernel runs before the first child and after every child,
    and each sample keeps the kernel times from just before and just after
    it.
    """
    start = time.monotonic()
    _child(model_path, workload, "setup", 0)   # warm-up: byte-compile, fill caches
    kernel_times = reference.measure()

    def sample(mode, run):
        nonlocal kernel_times
        result = _child(model_path, workload, mode, run)
        after = reference.measure()
        result["reference_s"] = kernel_times + after
        kernel_times = after
        return result

    setup = [sample("setup", 0) for _ in range(SETUP_SAMPLES)]
    samples = {"plain": [], "traced": []}
    durations = []
    while True:
        run = len(durations)
        elapsed = time.monotonic() - start
        if run >= MIN_SAMPLES and elapsed + statistics.median(durations) > seconds:
            return setup, samples
        mode = "traced" if trace and run % 2 == 1 else "plain"
        t0 = time.monotonic()
        samples[mode].append(sample(mode, run))
        durations.append(time.monotonic() - t0)


def _scaled(sample, key) -> float:
    return sample[key] * reference.scale(sample["reference_s"])


def _layer_metrics(samples) -> dict:
    """Medians over the traced samples, and the tracing overhead."""
    per_sample = []
    for s in samples["traced"]:
        f = reference.scale(s["reference_s"])
        per_sample.append(spans.layer_metrics([
            spans.Span(**dict(d, start=d["start"] * f, end=d["end"] * f))
            for d in s["spans"]]))
    # counts are equal in every sample; median_low keeps them whole
    layer = {name: (statistics.median_low if unit == "count"
                    else statistics.median)([m[name] for m in per_sample])
             for name, unit in spans.LAYER_UNITS.items()}
    layer["trace.overhead_s"] = (
        statistics.median(_scaled(s, "verdict_s") for s in samples["traced"])
        - statistics.median(_scaled(s, "verdict_s") for s in samples["plain"]))
    return layer


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-{os.getpid()}"
    model_path = os.path.join(OUT, tag + ".aptc")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(families.render(list(workloads.WORKLOADS[workload].decls), seed))
    try:
        setup, samples = _samples(model_path, workload, seconds, trace)
    finally:
        os.remove(model_path)

    every = samples["plain"] + samples["traced"]
    checks = [c for s in every for c in s["checks"]]
    failed = [name for name, ok in checks if not ok]
    end_to_end = {
        "verdict_s": [_scaled(s, "verdict_s") for s in samples["plain"]],
        "setup_s": [_scaled(s, "setup_s") for s in setup + every],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples["plain"]],
    }
    for name, values in end_to_end.items():
        print(f"{name}: {_spread(values)} {END_TO_END_UNITS[name]}")
    for name, group in (("verdict_s", samples["plain"]), ("setup_s", setup + every)):
        print(f"{name} wall, not scaled: "
              f"{_spread([s[name] for s in group])} s")
    print("reference kernel: "
          f"{_spread([statistics.median(s['reference_s']) for s in setup + every])} s"
          f" (scaled to {reference.REFERENCE_S} s)")
    print("verdict_s per sample: "
          + " ".join(f"{v:.4f}" for v in end_to_end["verdict_s"]))
    print(f"wrong_answer_rate: {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} answer checks)"
          + (f"; mismatched: {sorted(set(failed))}" if failed else ""))

    if trace:
        layer = _layer_metrics(samples)
        for name, value in layer.items():
            print(f"{name}: {value:.6g} {LAYER_UNITS[name]}")
        with open(os.path.join(OUT, tag + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([{"reference_s": s["reference_s"], "spans": s["spans"]}
                       for s in samples["traced"]], fh)
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layer.items() if name not in UNREPORTED}
    else:
        metrics = {name: {"value": statistics.median(values),
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in end_to_end.items()}
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stepcheck", "__init__.py")):
        print(f"error: no stepcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
