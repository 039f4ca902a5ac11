#!/usr/bin/env python3
"""Runs one workload of the lapis benchmark and prints its result.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload study_cold --seed 1 --seconds 30 --trace 0

It builds perfbench/ (and the src/ libraries it links) into .bench_build/,
sets the workload up several times in fresh processes, measures it in
another process so that peak RSS covers the timed phase alone, and prints
every metric with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1. A traced run also writes a Chrome trace-event file and the full
result, host and build into .bench_out/.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
BINARY = "lapis_perfbench"

WORKLOADS = ("study_cold", "serve_mixed")
SETUP_REPEATS = 3
# Wall-clock allowance for everything after the build.
RUN_BUDGET_S = 170.0
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec(path):
    """Reads BENCHMARK.json and checks the metric lists run.py relies on."""
    spec = json.loads(Path(path).read_text())
    names = set()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            name = metric["name"]
            if not METRIC_NAME.fullmatch(name) or not name[0].isalnum():
                raise ValueError(f"invalid metric name {name!r}")
            if name in names:
                raise ValueError(f"metric {name!r} listed twice")
            names.add(name)
    if "setup_s" not in {m["name"] for m in spec["end_to_end"]}:
        raise ValueError("end_to_end must include setup_s")
    return spec


def select_metrics(spec_metrics, measured, fill_missing):
    """Picks the spec's metrics out of `measured` (name -> (value, unit)).

    A metric the workload does not exercise is an error for end-to-end
    metrics; for per-layer ones (fill_missing) it reads 0: that layer did
    no work in this workload.
    """
    selected = {}
    for metric in spec_metrics:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if not fill_missing:
                raise KeyError(f"workload did not measure {name}")
            selected[name] = {"value": 0.0, "unit": unit}
            continue
        value, got_unit = measured[name]
        if got_unit != unit:
            raise ValueError(
                f"{name}: measured in {got_unit}, spec says {unit}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def child_env():
    env = dict(os.environ)
    # The benchmark measures the defaults: no fault injection, a worker per
    # core, and the cache's default fsync policy.
    for var in ("LAPIS_FAULT_SPEC", "LAPIS_JOBS", "LAPIS_CACHE_DIR"):
        env.pop(var, None)
    env["LAPIS_CACHE_FSYNC"] = "never"
    return env


def build():
    """Configures (once) and builds lapis_perfbench; raises on failure."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / BINARY


def run_phase(binary, args, deadline):
    """Runs one lapis_perfbench process and returns its parsed JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run budget exhausted")
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, env=child_env(), text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{BINARY} {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured_values(result):
    return {name: (m["value"], m["unit"])
            for name, m in result["metrics"].items()}


def run(args):
    spec = load_spec(ROOT / "BENCHMARK.json")
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--dir={work}"]
    try:
        setups = [run_phase(binary, ["setup"] + common, deadline)
                  for _ in range(SETUP_REPEATS)]
        measure_args = ["measure"] + common + [f"--seconds={args.seconds}"]
        untraced = run_phase(binary, measure_args, deadline)
        traced = None
        if args.trace:
            trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            traced = run_phase(
                binary, measure_args + [f"--trace-file={trace_file}"],
                deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = measured_values(untraced)
    setup_times = [s["metrics"]["setup_s"]["value"] for s in setups]
    measured["setup_s"] = (statistics.median(setup_times), "s")
    attempted, failed = untraced["attempted"], untraced["failed"]
    measured["success_rate"] = ((attempted - failed) / attempted, "ratio")

    if traced is not None:
        layer = measured_values(traced)
        untraced_p50 = measured["op_p50_ms"][0]
        layer["trace.overhead_ms"] = (
            layer["op_p50_ms"][0] - untraced_p50, "ms")
        # Timings come from the untraced run; the traced one gives the
        # per-layer split and the tracing overhead.
        layer["op_p50_ms"] = measured["op_p50_ms"]
        if "serve.eval_p50_us" in layer:
            layer["trace.eval_overhead_us"] = (
                layer["serve.eval_p50_us"][0]
                - measured["serve.eval_p50_us"][0], "us")
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = select_metrics(spec["per_layer"], layer, fill_missing=True)
    else:
        metrics = select_metrics(spec["end_to_end"], measured,
                                 fill_missing=False)

    info = dict(untraced["info"])
    info["setup_s_samples"] = setup_times
    info["workload"] = args.workload
    info["seed"] = args.seed
    info["seconds"] = args.seconds
    full = {"info": info, "untraced": untraced, "traced": traced,
            "setups": setups}
    suffix = "trace" if args.trace else "e2e"
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{suffix}.json").write_text(
        json.dumps(full, indent=1) + "\n")

    print("# host: " + json.dumps(
        {k: info[k] for k in ("nproc", "cpu_model", "kernel", "compiler",
                              "build_type")}))
    print("# workload %s seed %d: %s" % (args.workload, args.seed, json.dumps(
        {k: v for k, v in sorted(info.items())
         if k not in ("cpu_model", "kernel", "compiler")})))
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        run(args)
    except (OSError, ValueError, KeyError, RuntimeError, TimeoutError,
            subprocess.SubprocessError, json.JSONDecodeError) as error:
        log(f"run.py: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
