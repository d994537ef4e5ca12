#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Builds the driver from source (CMake, Release) on first use, writes the
workload's inputs from the seed, runs the driver, checks its outputs and
prints a readable report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes a
Chrome trace-event file (open it in https://ui.perfetto.dev).

See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def driver_timeout(seconds):
    """Seconds the driver may take: its measuring time plus set-ups, serve
    passes and checks around it (170 s at --seconds 10)."""
    return 120 + 5 * seconds


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir / "perfbench_driver"


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return f"{int(value)}" if float(value).is_integer() else str(value)


def print_table(title, rows):
    print(title)
    for name, unit, value in rows:
        print(f"  {name:<30} {fmt(value):>14} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="input size (tiny: smoke tests only)")
    args = parser.parse_args(argv)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2

    run_dir = (ROOT / ".bench_out" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario = run_dir / "scenario.yaml"
    requests = run_dir / "requests.txt"
    scenario.write_text(
        workloads.scenario_yaml(args.workload, args.seed, args.size))
    requests.write_text(workloads.request_stream_text(args.seed, args.size))
    raw_path = run_dir / "raw.json"
    trace_path = run_dir / "trace.json"
    command = [str(driver), "--workload", args.workload,
               "--scenario", str(scenario), "--requests", str(requests),
               "--work-dir", str(run_dir / "work"), "--out", str(raw_path),
               "--seconds", str(args.seconds),
               "--setups", str(workloads.SIZES[args.size]["setups"]),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(trace_path)]
    try:
        subprocess.run(command, check=True, stdout=sys.stderr,
                       timeout=driver_timeout(args.seconds), cwd=ROOT)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: driver failed: {error}")
        return 3
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)
    raw = json.loads(raw_path.read_text())

    e2e, notes = ledger.end_to_end(raw)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
          f"hardware_threads={fmt(raw['values'].get('hardware_threads'))} "
          f"build_type={raw['facts'].get('build_type')}")
    print_table("end-to-end", [(n, u, e2e.get(n))
                               for n, u in ledger.END_TO_END])
    print(f"  serve latency over {notes['serve_samples']} requests in "
          f"{notes['serve_passes']} passes: p{fmt(notes['serve_p50_ms'])} of "
          f"them all (serve_p50_ms), median over passes of each pass's "
          f"p{fmt(notes['serve_p99_ms'])} (serve_p99_ms)")
    if args.trace:
        layer = ledger.per_layer(raw, ledger.load_spans(trace_path))
        extra = ledger.WORKLOAD_LAYER.get(args.workload, ())
        print_table("per-layer", [(n, u, layer.get(n))
                                  for n, u in ledger.PER_LAYER + extra])
        attributed = sum(layer[f"{x}.self_s"] for x in ledger.LAYERS)
        print(f"  self times {attributed:.6f} s + unattributed "
              f"{layer['unattributed_s']:.6f} s = traced wall "
              f"{layer['trace.wall_s']:.6f} s")
        print(f"  trace: {trace_path.relative_to(ROOT)}")
        wanted = ledger.PER_LAYER
        measured = layer
    else:
        wanted = ledger.END_TO_END
        measured = e2e
    if "ops" in raw["values"]:
        print(f"  measured loop ran {fmt(raw['values']['ops'])} times")
    for fact, value in sorted(raw["facts"].items()):
        if fact != "build_type":
            print(f"  {fact}: {value}")
    checks = raw["checks"]
    for check in checks:
        print(f"check {'PASS' if check['ok'] else 'FAIL'} "
              f"{check['name']}: {check['detail']}")

    missing = [n for n, _ in wanted if measured.get(n) is None]
    if missing:
        print(f"missing metrics: {', '.join(missing)}")
    correct = bool(checks) and all(c["ok"] for c in checks) and not missing
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": measured[n], "unit": u}
                    for n, u in wanted if measured.get(n) is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
