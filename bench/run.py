"""The greenring benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; greenring is imported from ``src/``, so
nothing needs installing.  One run:

1. times ``import greenring`` in five fresh interpreters (``setup_s``);
2. runs passes of the workload (workloads.py), each in a fresh
   interpreter, for about ``--seconds`` seconds and at least two passes,
   and takes every operation at its fastest over the passes;
3. with ``--trace 1``, runs one more pass with tracing on and writes its
   spans to ``bench/out/``.

It prints every metric with its unit, then, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``).  Each pass's address space is capped, so an engine
blow-up ends as failed operations rather than exhausting the machine.
``--smoke`` runs every workload on tiny inputs and checks that output
against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 5
MIN_PASSES = 2  # taking each phase from its fastest pass needs two
MEMORY_CAP = 2 << 30  # bytes of address space per pass; ring_products peaks near 0.8 GB RSS
RUN_LIMIT_S = 170  # a run must end within 180 s

# Workload figures, printed next to the metrics of BENCHMARK.json but not
# in the result line: each exists on one workload only, and the result line
# holds the metrics every workload reports.  name -> (phase, statistic, unit)
FIGURES = {
    "verify_pairs_per_s": ("verify_sweep", "rate", "1/s"),
    "tensor_cold_per_s": ("tensor_cold", "rate", "1/s"),
    "tensor_warm_per_s": ("tensor_warm", "rate", "1/s"),
    "tensor_cold_p50_us": ("tensor_cold", "p50_us", "us"),
    "tensor_cold_p99_us": ("tensor_cold", "p99_us", "us"),
    "products_per_s": ("products", "rate", "1/s"),
    "matrix_s": ("matrix", "total_s", "s"),
    "rank_s": ("rank", "total_s", "s"),
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _fresh_seconds(args: list[str]) -> tuple[float, float]:
    """Wall time of a fresh interpreter running ``args``: raw, and scaled by
    the reference loop timed just before and just after it."""
    before = hostspeed.loop_seconds()
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    elapsed = time.perf_counter() - start
    loop = (before + hostspeed.loop_seconds()) / 2
    return elapsed, hostspeed.scaled(elapsed, loop)


def _median_fresh(args: list[str]) -> tuple[float, float]:
    """Medians of raw and scaled times over SETUP_RUNS fresh interpreters."""
    runs = [_fresh_seconds(args) for _ in range(SETUP_RUNS)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def _run_pass(workload: str, seed: int, size: str, deadline: float, spans: Path | None) -> dict:
    """One pass in a fresh, memory-capped interpreter.  A pass that dies or
    overruns counts as one failed operation."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              preexec_fn=_cap_memory, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return _lost_pass(start, "timed out")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return _lost_pass(start, f"exit {proc.returncode}: {proc.stderr[-300:]}")


def _lost_pass(start: float, why: str) -> dict:
    elapsed = time.perf_counter() - start
    return {"wall_s": elapsed, "peak_rss_mb": 0.0, "rss_growth_mb": 0.0,
            "attempted": 1, "failed": 1, "digests": {}, "phases": {}, "layers": {},
            "errors": [f"pass did not finish: {why}"]}


def _fastest(passes: list[dict], scaled: bool) -> dict[str, dict]:
    """Per phase, the operation times of the pass in which it ran fastest.

    With ``scaled``, each time is first brought to the reference host
    speed by the reference loop timed around that operation (see
    hostspeed.py).  Scaling removes most
    of the host's swings in speed, and taking the fastest pass removes
    what scaling misses.  The choice is made per phase, over the phase's
    total, so the noise of single sub-millisecond calls does not bias it.
    A slowdown in greenring itself shows in every pass and survives both.
    """
    out = {}
    for p in passes:
        for name, phase in p["phases"].items():
            times = phase["times"]
            if scaled:
                times = [hostspeed.scaled(t, loop) for t, loop in zip(times, phase["ref"])]
            if name not in out or sum(times) < sum(out[name]["times"]):
                out[name] = {"times": times, "work": phase["work"]}
    return out


def _figure(phase: dict, statistic: str) -> float:
    times = phase["times"]
    if statistic == "rate":
        return phase["work"] / sum(times)
    if statistic == "total_s":
        return sum(times)
    return tracing.percentile(times, {"p50_us": 50, "p99_us": 99}[statistic]) * 1e6


def measure(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    """Everything one run measures, keyed by metric name, plus outcome counts."""
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    raw_setup_s, setup_s = _median_fresh(["-c", "import greenring"])

    passes: list[dict] = []
    window_start = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, seed, size, deadline, None))
        now = time.perf_counter()
        per_pass = (now - window_start) / len(passes)
        if per_pass * (1 + 2 * traced) > deadline - now:  # leave room for a slower traced pass
            break
        # After MIN_PASSES, go on only while one more pass fits the window;
        # a first pass longer than the whole window is not repeated.
        if (len(passes) >= MIN_PASSES or per_pass > seconds) and now + per_pass - window_start > seconds:
            break

    # Same seed, same inputs: every pass must print the same bytes.
    drift = sorted({k for p in passes[1:] for k, v in p["digests"].items()
                    if passes[0]["digests"].get(k) != v})
    fastest = _fastest(passes, scaled=True)
    metrics = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(sum(ph["times"]) for ph in fastest.values())
        or statistics.median(p["wall_s"] for p in passes),
        "raw_wall_s": sum(sum(ph["times"]) for ph in _fastest(passes, scaled=False).values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for name, (phase, statistic, _) in FIGURES.items():
        if phase in fastest:
            metrics[name] = _figure(fastest[phase], statistic)

    if traced:
        OUT.mkdir(exist_ok=True)
        traced_pass = _run_pass(workload, seed, size, deadline, OUT / f"spans-{workload}-seed{seed}.json")
        metrics.update(traced_pass.get("layers", {}))
        metrics["core_ring.rss_growth_mb"] = statistics.median(p["rss_growth_mb"] for p in passes)
        metrics["cli.startup_s"] = _median_fresh(["-m", "greenring.cli", "trick", "1"])[1]
        metrics["trace.overhead_ratio"] = (
            traced_pass["wall_s"] / statistics.median(p["wall_s"] for p in passes))
        passes.append(traced_pass)

    attempted = sum(p["attempted"] for p in passes) + len(drift)
    failed = sum(p["failed"] for p in passes) + len(drift)
    errors = [e for p in passes for e in p["errors"]] + [f"output differs between passes: {k}" for k in drift]
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors[:20],
        "passes": len(passes) - traced, "digests": passes[0]["digests"],
        "run_s": time.perf_counter() - run_start,
    }


def report(spec: dict, workload: str, seed: int, traced: bool, size: str, run: dict) -> dict:
    """Print every metric with its unit; return the result object."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: unit for name, (_, _, unit) in FIGURES.items()}, raw_wall_s="s", raw_setup_s="s")
    fail_ratio = run["failed"] / run["attempted"]
    print(f"# {workload} seed={seed} size={size} trace={int(traced)} "
          f"passes={run['passes']} run_s={run['run_s']:.1f}")
    for name, value in sorted(run["metrics"].items()):
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(f"{'fail_ratio':40s} {fail_ratio:16.6g} ratio  ({run['failed']}/{run['attempted']})")
    for error in run["errors"]:
        print(f"! {error}")
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    for name in missing:  # only a lost pass leaves a metric unmeasured
        print(f"! {name} not measured")
    result = {
        "correct": run["failed"] == 0 and not missing,
        "attempted": run["attempted"],
        "failed": run["failed"] + len(missing),
        "metrics": {m["name"]: {"value": run["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{workload}-seed{seed}-trace{int(traced)}.json", "w") as handle:
        json.dump({"result": result, "all_metrics": run["metrics"], "errors": run["errors"],
                   "digests": run["digests"]}, handle, indent=1, sort_keys=True)
    return result


def smoke(spec: dict) -> int:
    """Every workload, tiny inputs, both trace settings: the last line must
    match BENCHMARK.json and report no failures."""
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(traced), "--size", "smoke"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
            where = f"{workload} trace={traced}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (json.JSONDecodeError, IndexError):
                problems.append(f"{where}: no result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            declared = spec["per_layer"] if traced else spec["end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = result.get("metrics", {})
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
                problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            for name, entry in got.items():
                value = entry.get("value")
                if entry.get("unit") != want.get(name) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: bad metric {name}: {entry}")
                elif not traced and value <= 0:
                    problems.append(f"{where}: end-to-end metric {name} is {value}")
            print(f"smoke {where}: {time.perf_counter() - start:.1f} s, attempted {result.get('attempted')}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for checking the benchmark itself")
    parser.add_argument("--smoke", action="store_true", help="run the smoke check and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "greenring" / "__init__.py").is_file():
        print(f"error: no greenring sources under {ROOT / 'src'}; run from a greenring checkout",
              file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result = report(spec, args.workload, args.seed, bool(args.trace), args.size, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
