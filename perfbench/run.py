"""Benchmark of the clusterperm package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # all workloads, tiny sizes
    python3 perfbench/run.py --self-check   # a perturbed reference must fail

Run it from the root of a checkout; it imports the package from ./src.
For the seed it writes the workload's inputs under .bench_work/, times
the package's set-up in fresh interpreters, runs the workload in a child
process (child.py) and checks every output.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The run record and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3      # fresh interpreters timed besides the workload's own
CHILD_TIMEOUT = 170   # seconds; a run must end within 180


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _spawn(root: Path, args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start child.py; returns it and the seconds until it was ready."""
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--src", str(src), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError(f"child did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen) -> int:
    try:
        proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out") from None
    return proc.returncode


def _setup_samples(root: Path, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        proc, ready = _spawn(root, ["--probe"])
        if _finish(proc) != 0:
            raise BenchError("set-up probe failed")
        samples.append(ready)
    return samples


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """The highest level up to 0.9 with at least ten samples beyond it;
    the median when there are too few samples for any tail."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


def end_to_end(records: list[dict], setup: list[float], rss: float) -> dict:
    lat = [r["seconds"] for r in records[1:]]  # records[0] is the warm-up
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, tail_level(len(lat))),
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": rss,
    }


def per_layer(plan: dict, records: list[dict], spans: list[list]) -> dict:
    """Per-operation layer self times, counts and rates of the traced
    operations; work counts are computed from the inputs."""
    ops = {op["key"]: op for op in plan["ops"]}
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    work = Counter()
    for r in traced:
        work.update(ops[r["op"]]["work"])
    layer_s, fn_s, calls, errors = Counter(), Counter(), Counter(), Counter()
    for span, own in zip(spans, tracing.self_times(spans)):
        layer, name = span[tracing.LAYER], span[tracing.NAME]
        layer_s[layer] += own
        fn_s[name] += own
        calls[name] += 1
        errors[layer] += span[tracing.ERROR]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    untraced = {r["round"]: r["seconds"] for r in records[1:]
                if not r["traced"]}
    m = {f"{layer}.self_s": layer_s[layer] / n for layer in tracing.LAYERS}
    m.update({
        "estimators.ingest_s": fn_s["ingest_csv"] / n,
        "estimators.ingest_rows_per_s": rate(work["rows"],
                                             fn_s["ingest_csv"]),
        "estimators.fit_s": (layer_s["estimators"] - fn_s["ingest_csv"]) / n,
        "permkit.sample_s": fn_s["sample_assignments"] / n,
        "permkit.assignments_per_s": rate(work["assignments_sampled"],
                                          fn_s["sample_assignments"]),
        "permtest.test_s": fn_s["adjusted_test"] / n,
        "permtest.relabelings": work["relabelings"] / n,
        "permtest.relabelings_per_s": rate(work["relabelings"],
                                           fn_s["adjusted_test"]),
        "calibrate.exhaustive_s": fn_s["calibrate_exhaustive"] / n,
        "calibrate.statistics": work["statistics"] / n,
        "calibrate.gflops": rate(work["flops"] / 1e9,
                                 fn_s["calibrate_exhaustive"]),
        "power.bound_s": fn_s["power_lower_bound"] / n,
        "power.bounds": calls["power_lower_bound"] / n,
        "simharness.normal_s": fn_s["run_normal_location_study"] / n,
        "simharness.normal_reps_per_s": rate(
            work["normal_reps"], fn_s["run_normal_location_study"]),
        "simharness.did_s": fn_s["run_did_study"] / n,
        "simharness.did_cell_reps_per_s": rate(work["did_cell_reps"],
                                               fn_s["run_did_study"]),
    })
    m.update({f"{layer}.errors": errors[layer] for layer in tracing.LAYERS})
    # Each traced run of an operation is paired with its untraced twin,
    # run next to it, so drift in machine speed mostly cancels.
    m["trace.overhead_s"] = statistics.median(
        r["seconds"] - untraced[r["round"]] for r in traced)
    m["bench.self_s"] = layer_s["bench"] / n
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    # The ceiling keeps git from reading any directory above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True).stdout.strip()
    except OSError:
        head = ""
    return head or "unknown"


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int, scale: str = "full", perturb=None,
                 probes: int = SETUP_PROBES) -> dict:
    """Generate inputs, time set-up, run the child and check its outputs.
    perturb, if given, edits the plan's references before the run."""
    variant = workloads.variant_of(seed)
    tag = f"{workload}-{scale}-seed{seed}-trace{trace}"
    workdir = root / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        plan = workloads.prepare(workload, scale, variant, workdir)
        workloads.attach_references(plan)
        if perturb:
            perturb(plan)
        (workdir / "plan.json").write_text(json.dumps(plan))
        setup = _setup_samples(root, probes)
        result_path = workdir / "result.json"
        proc, ready = _spawn(root, [
            "--plan", str(workdir / "plan.json"), "--seconds", str(seconds),
            "--trace", str(trace), "--result", str(result_path)])
        setup.append(ready)
        if _finish(proc) != 0:
            raise BenchError(f"workload process exited {proc.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = sum(1 for r in records if r["errors"])
    if trace:
        metrics = per_layer(plan, records, result["spans"])
    else:
        metrics = end_to_end(records, setup, result["peak_rss_mb"])
    run = {
        "workload": workload, "scale": scale, "seed": seed,
        "input_variant": variant, "trace": trace, "seconds": seconds,
        "git_commit": _git_commit(root), "nproc": result["nproc"],
        "versions": result["versions"], "inputs": plan["inputs"],
        "work_per_op_computed": {op["key"]: op["work"]
                                 for op in plan["ops"]},
        "setup_samples_s": setup, "attempted": len(records),
        "failed": failed, "failed_ratio": failed / len(records),
        "failures": [r for r in records if r["errors"]][:10],
        "latencies_s": [[r["op"], r["traced"], r["seconds"]]
                        for r in records],
        "metrics": metrics,
    }
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(run, indent=1))
    if trace:
        (out / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["op", "span", "parent", "layer", "name", "start",
                        "end", "error"], "spans": result["spans"]}))
    return run


def _metrics_text(run: dict, units: dict, sep: str) -> str:
    return sep.join(f"{name} = {value:.6g} {units.get(name, '')}".rstrip()
                    for name, value in run["metrics"].items())


def _report(run: dict, units: dict) -> None:
    """Human-readable lines before the JSON result line."""
    v = run["versions"]
    print(f"# {run['workload']} seed={run['seed']} "
          f"(input variant {run['input_variant']}) scale={run['scale']} "
          f"trace={run['trace']} commit={run['git_commit']} "
          f"nproc={run['nproc']} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} openblas={v['blas']} "
          f"blas_threads={v['blas_threads']}")
    for info in run["inputs"]:
        print("# input " + " ".join(f"{k}={val}" for k, val in info.items()))
    for key, work in run["work_per_op_computed"].items():
        print(f"# work per operation {key} (computed): "
              + " ".join(f"{k}={val}" for k, val in work.items()))
    timed = run["latencies_s"][1:]
    untraced = [s for _, traced, s in timed if not traced]
    print(f"# operations: attempted={run['attempted']} "
          f"failed={run['failed']} timed={len(timed)} (after 1 warm-up) "
          f"setup_samples={len(run['setup_samples_s'])}")
    print(f"# failed_ratio = {run['failed_ratio']:.6g} "
          f"({run['failed']}/{run['attempted']})")
    if not run["trace"]:
        print(f"# latency_p90_s is the p{100 * tail_level(len(untraced)):.0f}"
              f" of {len(untraced)} samples")
    print("# " + _metrics_text(run, units, "\n# "))
    if run["trace"]:
        m = run["metrics"]
        accounted = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) \
            + m["bench.self_s"]
        print(f"# layer self times + bench.self_s = {accounted:.6g} s per "
              f"traced operation; untraced p50 = {quantile(untraced, 0.5):.6g}"
              f" s; tracing overhead (median traced - untraced twin) = "
              f"{m['trace.overhead_s']:.6g} s")
    for failure in run["failures"]:
        print(f"# FAILED {failure['op']}: {'; '.join(failure['errors'])}")


def _result_line(run: dict, names: list[dict]) -> str:
    metrics = {}
    for spec in names:
        metrics[spec["name"]] = {"value": run["metrics"][spec["name"]],
                                 "unit": spec["unit"]}
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# smoke mode and self-check
# ---------------------------------------------------------------------------

def smoke(root: Path, seed: int, units: dict) -> int:
    bad = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_workload(root, workload, seed, 1.0, trace, "smoke",
                               probes=0)
            print(f"smoke {workload} trace={trace}: "
                  f"attempted={run['attempted']} failed={run['failed']}")
            if not trace:
                print("  " + _metrics_text(run, units, ", "))
            for failure in run["failures"]:
                print(f"  {failure['op']}: {'; '.join(failure['errors'])}")
            bad += run["failed"] > 0 or run["attempted"] < 2
    print("smoke " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def self_check(root: Path, seed: int) -> int:
    """A reference p-value moved by 1/N must fail its operation, and
    nothing else."""
    def perturb(plan):
        op = plan["ops"][0]
        op["ref"]["p_value_right"] += 1.0 / op["n_assignments"]

    run = run_workload(root, "exact-test", seed, 1.0, 0, "smoke", perturb,
                       probes=0)
    failures = run["failures"]
    caught = bool(failures) and all(
        f["op"] == "op0" and any("p_value_right" in e for e in f["errors"])
        for f in failures)
    print(f"self-check: {len(failures)} of {run['attempted']} operations "
          f"failed; perturbed reference "
          + ("caught" if caught else "NOT caught"))
    return 0 if caught else 1


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "clusterperm" / "cli.py").is_file():
        print("perfbench: no src/clusterperm here; run from the root of a "
              "clusterperm checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.smoke:
            return smoke(root, args.seed, units)
        if args.self_check:
            return self_check(root, args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        run = run_workload(root, args.workload, args.seed,
                           args.seconds or spec["run_seconds"], args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(run, units)
    print(_result_line(run, spec["per_layer" if args.trace
                                 else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
