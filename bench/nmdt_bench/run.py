#!/usr/bin/env python3
"""Build nmdt_bench from source, run one workload, print its result.

    python3 bench/nmdt_bench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

Run from the repository root.  The benchmark package (this directory's
CMakeLists.txt, which compiles the library from ../../src) is built into
$CARGO_TARGET_DIR/nmdt_bench, default .bench_build/nmdt_bench.  Each
workload runs in a fresh nmdt_bench process.  Its metrics are checked
against BENCHMARK.json: the end-to-end set with --trace 0, the per-layer
set with --trace 1; a missing or undeclared metric or workload is an
error.  The full run record (host fingerprint, nproc, sim_digest, both
metric sets with sample counts) is kept under <build>/runs/ or --out.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.

Without --workload every declared workload runs in turn and a table of
its metrics is printed instead.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the nmdt_bench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no library sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "nmdt_bench"


def run_workload(binary, work_dir, workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (exit code, record or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else None
    return proc.returncode, record


def check_schema(schema, record, trace):
    """The emitted metric set must equal the declared one, units included."""
    declared = {m["name"]: m["unit"] for m in schema["per_layer" if trace else "end_to_end"]}
    emitted = record["layers" if trace else "e2e"]
    errors = [f"undeclared metric {n}" for n in sorted(set(emitted) - set(declared))]
    errors += [f"missing metric {n}" for n in sorted(set(declared) - set(emitted))]
    for name in sorted(set(declared) & set(emitted)):
        if emitted[name]["unit"] != declared[name]:
            errors.append(f"{name}: unit {emitted[name]['unit']} != declared {declared[name]}")
        if not trace and not emitted[name]["value"] > 0:
            errors.append(f"{name}: end-to-end value {emitted[name]['value']} is not positive")
    if errors:
        raise SystemExit("run.py: result does not match BENCHMARK.json: " + "; ".join(errors))
    return {n: {"value": emitted[n]["value"], "unit": emitted[n]["unit"]} for n in declared}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one declared workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for run records (default: <build>/runs)")
    args = ap.parse_args()

    schema_path = ROOT / "BENCHMARK.json"
    if not schema_path.is_file():
        raise SystemExit(f"run.py: {schema_path} not found")
    schema = json.loads(schema_path.read_text())
    names = [w["name"] for w in schema["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"run.py: workload {args.workload!r} is not declared in BENCHMARK.json")
    seconds = args.seconds or schema["run_seconds"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "nmdt_bench"
    binary = build(build_dir)
    work_dir = build_dir / "work"
    out_dir = Path(args.out) if args.out else build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    for workload in [args.workload] if args.workload else names:
        rc, record = run_workload(binary, work_dir, workload, args.seed, seconds, args.trace)
        if record is None:
            raise SystemExit(f"run.py: nmdt_bench {workload} exited {rc} without a result")
        metrics = check_schema(schema, record, args.trace)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        ok = ok and rc == 0 and record["correct"]
        if args.workload:
            print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                              "failed": record["failed"], "metrics": metrics}))
        else:
            samples = record["layers" if args.trace else "e2e"]
            print(f"{workload}  correct={record['correct']} attempted={record['attempted']} "
                  f"failed={record['failed']}")
            for name, m in metrics.items():
                print(f"  {name:40s} {m['value']:16.4f} {m['unit']:9s} "
                      f"n={samples[name]['samples']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
