#!/usr/bin/env python3
"""Serial-perf regression gate for the kernel-simulation bench.

Compares a fresh micro_kernels report against the committed
BENCH_kernels.json baseline and fails (exit 1) when any kernel's gated
timing slowed down by more than --max-slowdown (default 10%) AND more
than --abs-slack-ms (default 1 ms — few-ms counting timings wobble more
than 10% from scheduler noise alone; a real regression clears both
bars).  Only the serial arms are gated (serial_best_ms, and
counting_best_ms where both reports carry it): they are
simulation-dominated and deterministic in work, so their wall-clock is
stable enough to gate on, unlike the parallel arm whose timing depends
on host load.

Schema growth is tolerated in both directions: a metric (or kernel)
absent from the baseline is skipped with a note, never failed — an old
baseline generated before counting_best_ms existed still gates the
fields it has.  Likewise a baseline recorded for a different
mode/precision combination skips the per-kernel gate (exit 0) instead
of failing: the workload (matrix, k) must match, the schema vintage
need not.

--min-improvement FRAC additionally requires the current report's
serial geomean (counting_best_ms preferred, serial_best_ms fallback,
per report) to be at least FRAC below the baseline's — the gate used to
pin a claimed optimization win.  This check intentionally runs across
mode vintages so a counting-mode run can be held against an older
cachesim baseline.

--update-baseline rewrites the baseline file with the current report
after printing the comparison (never combined with a failing exit: if
the gate fails, the baseline is left untouched).

Host provenance: reports written by the current bench carry a "host"
object (CPU model, cores, SIMD tier, compiler, build type).  When both
reports carry one and the fingerprints differ, the timings are not
comparable — the gate prints exactly why and exits 0 (skip, not
failure).  A baseline predating the field gates as before, with a note.

History mode (--history PATH, single positional report): instead of a
frozen two-point comparison, gate the current report against the
rolling per-kernel best of every comparable entry in the bench
trajectory JSONL that micro_kernels appends to
(results/bench_history.jsonl).  Comparable = same matrix, k, mode,
precision, and host fingerprint; the current run's own entry (the one
whose per-kernel timings equal the report's) is excluded.  The same fractional + absolute slack
rules apply, and the geomean trajectory is rendered as a sparkline so a
slow drift across many runs is visible even when every individual step
stayed inside the slack.

Usage: check_serial_perf.py BASELINE.json CURRENT.json
         [--max-slowdown 0.10] [--min-improvement FRAC] [--update-baseline]
       check_serial_perf.py CURRENT.json --history results/bench_history.jsonl
         [--max-slowdown 0.10]
"""
import argparse
import json
import math
import shutil
import sys

SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_serial_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def geomean(values):
    vals = [v for v in values if v and v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def serial_times(report):
    """Per-kernel gated timing: counting_best_ms when the report has it,
    serial_best_ms otherwise (pre-fast-path schema vintage)."""
    out = {}
    for k in report.get("kernels", []):
        out[k["name"]] = k.get("counting_best_ms", k.get("serial_best_ms"))
    return out


HOST_FIELDS = ("cpu_model", "host_cores", "simd_tier", "compiler",
               "build_type", "os")


def host_fingerprint(report):
    """Comparable-host identity, or None for reports predating the field."""
    host = report.get("host")
    if not isinstance(host, dict):
        return None
    return "|".join(str(host.get(f, "?")) for f in HOST_FIELDS)


def host_field_diff(a_fp, b_fp):
    """Per-field lines for the fields where two fingerprints disagree —
    'cpu_model: Xeon X -> EPYC Y', so the operator sees *what* changed
    (new toolchain? different box? debug build?) without eyeballing two
    opaque pipe-joined strings."""
    a_parts, b_parts = a_fp.split("|"), b_fp.split("|")
    lines = []
    for field, a_val, b_val in zip(HOST_FIELDS, a_parts, b_parts):
        if a_val != b_val:
            lines.append(f"    {field}: {a_val} -> {b_val}")
    if not lines:  # differing fingerprints must differ somewhere visible
        lines.append(f"    (fingerprint shape differs: {a_fp!r} vs {b_fp!r})")
    return lines


def check_hosts_comparable(base, curr, base_label="baseline"):
    """True when gating may proceed.  False means the hosts provably
    differ — the caller should skip (exit 0), never fail."""
    bfp, cfp = host_fingerprint(base), host_fingerprint(curr)
    if bfp is None:
        print(f"check_serial_perf: {base_label} has no host provenance "
              "(pre-provenance vintage) — gating anyway")
        return True
    if cfp is None:
        print("check_serial_perf: current report has no host provenance — "
              "gating anyway")
        return True
    if bfp != cfp:
        print("check_serial_perf: HOST MISMATCH — timings are not comparable, "
              "gate skipped:\n"
              f"  {base_label}: {bfp}\n"
              f"  current:  {cfp}\n"
              "  fields that differ:\n" +
              "\n".join(host_field_diff(bfp, cfp)) + "\n"
              "  (regenerate the baseline on this host to re-arm the gate)")
        return False
    return True


def sparkline(values, width=32):
    vals = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    if not vals:
        return ""
    if len(vals) > width:  # keep the per-bucket max so spikes survive
        out, n = [], len(vals)
        for b in range(width):
            lo, hi = b * n // width, max(b * n // width + 1, (b + 1) * n // width)
            out.append(max(vals[lo:hi]))
        vals = out
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_LEVELS[3] * len(vals)
    return "".join(SPARK_LEVELS[
        min(7, int((v - lo) / (hi - lo) * 7.999))] for v in vals)


def load_history(path):
    """Parse the JSONL trajectory; malformed lines are counted, not fatal
    (a crash mid-append must never wedge the gate)."""
    entries, bad = [], 0
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    bad += 1
    except OSError as e:
        print(f"check_serial_perf: cannot read history {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if bad:
        print(f"check_serial_perf: history: skipped {bad} malformed line(s)")
    return entries


def run_history_mode(args):
    curr = load(args.reports[0])
    entries = load_history(args.history)
    cfp = host_fingerprint(curr)

    mismatched_hosts = {}  # fingerprint -> entry count, same workload only

    def comparable(e):
        if any(e.get(k) != curr.get(k) for k in ("matrix", "k")):
            return False
        if e.get("mode") != curr.get("mode"):
            return False
        if e.get("precision", "f32") != curr.get("precision", "f32"):
            return False
        efp = host_fingerprint(e)
        if efp is not None and cfp is not None and efp != cfp:
            mismatched_hosts[efp] = mismatched_hosts.get(efp, 0) + 1
            return False
        return True

    def timings(report):
        return {k["name"]: (k.get("serial_best_ms"), k.get("counting_best_ms"))
                for k in report.get("kernels", [])}

    # micro_kernels appends the current run to the history before this
    # gate reads it; that entry carries the report's own timings, and a
    # run held against itself always passes.
    own = timings(curr)
    matched = [e for e in entries if comparable(e)]
    own_entries = sum(1 for e in matched if timings(e) == own)
    matched = [e for e in matched if timings(e) != own]
    skipped = len(entries) - len(matched) - own_entries
    print(f"check_serial_perf: history {args.history}: {len(entries)} entries, "
          f"{len(matched)} comparable ({skipped} other workload/host, "
          f"{own_entries} from this run)")
    for efp, count in mismatched_hosts.items():
        # Same workload, different host: say exactly which provenance
        # fields diverged so a toolchain/box change is diagnosable from
        # the gate log alone.
        print(f"check_serial_perf: HOST MISMATCH — {count} same-workload "
              "history entries excluded; fields that differ:\n" +
              "\n".join(host_field_diff(efp, cfp)))
    if not matched:
        print("check_serial_perf: no comparable history — nothing to gate "
              "against (first run on this host/workload)")
        return

    # Rolling best per kernel: the tightest bar any comparable run set.
    best = {}
    for e in matched:
        for name, t in serial_times(e).items():
            if t and t > 0 and (name not in best or t < best[name]):
                best[name] = t

    failures = []
    for name, now in sorted(serial_times(curr).items()):
        if name not in best or not now:
            print(f"  {name}: no history entry, skipped")
            continue
        was = best[name]
        ratio = now / was if was > 0 else float("inf")
        slack = max(was * args.max_slowdown, args.abs_slack_ms)
        verdict = "ok"
        if now - was > slack:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {name}: rolling best {was:.4f} ms -> {now:.4f} ms "
              f"(x{ratio:.3f}) {verdict}")

    # Trajectory: geomean of the gated metric per entry, current last.
    series = [geomean(serial_times(e).values()) for e in matched]
    series.append(geomean(serial_times(curr).values()))
    print(f"  trajectory (geomean ms, {len(series)} runs, current last): "
          f"{sparkline(series)}  [{min(series):.4f} .. {max(series):.4f}]")

    if failures:
        print(f"check_serial_perf: slower than rolling best by > "
              f"{args.max_slowdown:.0%} + slack for: {', '.join(failures)}",
              file=sys.stderr)
        sys.exit(1)
    print(f"check_serial_perf: all kernels within {args.max_slowdown:.0%} "
          "of the rolling best")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reports", nargs="+",
                    help="BASELINE.json CURRENT.json, or just CURRENT.json "
                         "with --history")
    ap.add_argument("--history", default=None,
                    help="bench trajectory JSONL (micro_kernels --history); "
                         "gates the single positional report against the "
                         "rolling best of comparable entries")
    ap.add_argument("--max-slowdown", type=float, default=0.10,
                    help="allowed fractional increase per gated metric (default 0.10)")
    ap.add_argument("--abs-slack-ms", type=float, default=1.0,
                    help="absolute slack floor in ms: a metric only regresses when "
                         "it exceeds BOTH the fractional and the absolute allowance "
                         "(keeps scheduler noise on few-ms timings from tripping a "
                         "purely relative gate; default 1.0)")
    ap.add_argument("--min-improvement", type=float, default=None,
                    help="require the serial geomean to drop by at least this "
                         "fraction vs the baseline (e.g. 0.20 for 20%%)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current report when the "
                         "gate passes")
    args = ap.parse_args()

    if args.history is not None:
        if len(args.reports) != 1:
            ap.error("--history takes exactly one positional report")
        run_history_mode(args)
        return
    if len(args.reports) != 2:
        ap.error("expected BASELINE.json CURRENT.json (or --history)")
    args.baseline, args.current = args.reports

    base = load(args.baseline)
    curr = load(args.current)

    # Different hosts produce incomparable wall-clock: skip, explain,
    # exit 0 — a laptop rebuild must not "regress" a CI baseline.
    if not check_hosts_comparable(base, curr):
        return

    # Same workload, or the comparison is meaningless.
    for key in ("matrix", "k"):
        if base.get(key) != curr.get(key):
            print(f"check_serial_perf: {key} differs: baseline "
                  f"{base.get(key)!r} vs current {curr.get(key)!r}", file=sys.stderr)
            sys.exit(2)

    # Mode/precision are schema axes, not workload identity: a baseline
    # recorded for a combination the current run does not reproduce
    # skips the per-kernel gate rather than failing it.
    same_mode = base.get("mode") == curr.get("mode")
    same_precision = base.get("precision", "f32") == curr.get("precision", "f32")
    failures = []
    if not (same_mode and same_precision):
        print(f"check_serial_perf: baseline is mode={base.get('mode')!r} "
              f"precision={base.get('precision', 'f32')!r}, current is "
              f"mode={curr.get('mode')!r} precision={curr.get('precision', 'f32')!r}"
              " — per-kernel gate skipped (no comparable baseline entries)")
    else:
        base_by_name = {k["name"]: k for k in base.get("kernels", [])}
        for k in curr.get("kernels", []):
            name = k["name"]
            if name not in base_by_name:
                print(f"  {name}: no baseline entry, skipped")
                continue
            bk = base_by_name[name]
            for metric in ("serial_best_ms", "counting_best_ms"):
                if metric not in k:
                    continue
                if metric not in bk:
                    print(f"  {name}.{metric}: absent from baseline, skipped")
                    continue
                was, now = bk[metric], k[metric]
                ratio = now / was if was > 0 else float("inf")
                slack = max(was * args.max_slowdown, args.abs_slack_ms)
                verdict = "ok"
                if now - was > slack:
                    verdict = "REGRESSION"
                    failures.append(f"{name}.{metric}")
                print(f"  {name}.{metric}: {was:.4f} ms -> {now:.4f} ms "
                      f"(x{ratio:.3f}) {verdict}")
        if failures:
            print(f"check_serial_perf: serial slowdown > "
                  f"{args.max_slowdown:.0%} for: {', '.join(failures)}",
                  file=sys.stderr)
            sys.exit(1)
        print(f"check_serial_perf: all gated metrics within "
              f"{args.max_slowdown:.0%} of baseline")

    if args.min_improvement is not None:
        base_gm = geomean(serial_times(base).values())
        curr_gm = geomean(serial_times(curr).values())
        if base_gm <= 0 or curr_gm <= 0:
            print("check_serial_perf: cannot compute geomean improvement "
                  "(missing timings)", file=sys.stderr)
            sys.exit(2)
        drop = 1.0 - curr_gm / base_gm
        print(f"check_serial_perf: serial geomean {base_gm:.4f} ms -> "
              f"{curr_gm:.4f} ms (drop {drop:.1%}, required "
              f">= {args.min_improvement:.0%})")
        if drop < args.min_improvement:
            print(f"check_serial_perf: geomean improvement {drop:.1%} below "
                  f"required {args.min_improvement:.0%}", file=sys.stderr)
            sys.exit(1)

    if args.update_baseline:
        shutil.copyfile(args.current, args.baseline)
        print(f"check_serial_perf: baseline {args.baseline} updated")


if __name__ == "__main__":
    main()
