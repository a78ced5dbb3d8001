#!/usr/bin/env python3
"""Compare two sets of nmdt_bench run records (a parent and a change).

    python3 bench/nmdt_bench/compare.py BASE_DIR CUR_DIR

Each directory holds the JSON run records run.py writes (one per run;
make them by running parent and change in alternation, ten pairs or
more, each pair on one seed).  Only untraced records are compared.  For
every end-to-end metric x workload it prints both sides' median and
quartiles and a verdict:

  gain        at least ten seed-matched pairs, the change wins >= 9/10 of
              them, the medians differ by more than the parent's quartile
              spread, and no larger share of operations failed than at
              the parent
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread exceeds the bound, unless every
              change run beats every parent run
  same        none of the above

Exit status: 0 no regression, 1 at least one regression or unresolved
metric, 3 refused (runs from hosts or core counts that differ, or the
same workload and seed with different sim_digest: the simulated
statistics moved, so the two sides did not do the same work).
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.append(rec)
    if not runs:
        raise SystemExit(f"compare.py: no untraced run records in {directory}")
    return runs


def refuse(msg):
    print("REFUSED: " + msg)
    sys.exit(3)


def check_comparable(base, cur):
    hosts = {(r["host"], r["nproc"]) for r in base + cur}
    if len(hosts) > 1:
        refuse("runs come from different hosts or core counts: " +
               "; ".join(f"{h} nproc={n}" for h, n in sorted(hosts)))
    digests = {}
    for r in base + cur:
        key = (r["workload"], r["seed"])
        if digests.setdefault(key, r["sim_digest"]) != r["sim_digest"]:
            refuse(f"sim_digest differs for {key[0]} seed {key[1]}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(metric, base_runs, cur_runs, base_failed, cur_failed):
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    b = [r["e2e"][name]["value"] for r in base_runs]
    c = [r["e2e"][name]["value"] for r in cur_runs]
    bm, cm = statistics.median(b), statistics.median(c)
    bq1, bq3 = quartiles(b)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    cur_by_seed = {}
    for r in cur_runs:
        cur_by_seed.setdefault(r["seed"], []).append(r["e2e"][name]["value"])
    pairs = wins = 0
    for r in base_runs:
        if cur_by_seed.get(r["seed"]):
            pairs += 1
            wins += better(cur_by_seed[r["seed"]].pop(0), r["e2e"][name]["value"])
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    all_better = all(better(x, y) for x in c for y in b)
    if (pairs >= MIN_PAIRS and wins >= 0.9 * pairs and abs(cm - bm) > bq3 - bq1
            and cur_failed <= base_failed):
        v = "gain"
    elif (bq3 - bq1) / bm > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "same"
    return bm, bq1, bq3, cm, quartiles(c), (cm - bm) / bm, wins, pairs, v


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, cur = load(sys.argv[1]), load(sys.argv[2])
    check_comparable(base, cur)
    bad = False
    print(f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'delta':>8s} {'wins':>7s}  verdict")
    for w in [w["name"] for w in schema["workloads"]]:
        bw = [r for r in base if r["workload"] == w]
        cw = [r for r in cur if r["workload"] == w]
        if not bw or not cw:
            print(f"{w:14s} (no runs on {'both sides' if not bw and not cw else 'one side'})")
            continue
        bf, cf = failed_share(bw), failed_share(cw)
        for metric in schema["end_to_end"]:
            bm, bq1, bq3, cm, (cq1, cq3), delta, wins, pairs, v = verdict(metric, bw, cw, bf, cf)
            bad = bad or v in ("regression", "unresolved")
            print(f"{w:14s} {metric['name']:16s} {bm:12.4f} [{bq1:8.4f}, {bq3:8.4f}] "
                  f"{cm:12.4f} [{cq1:8.4f}, {cq3:8.4f}] {delta:+8.2%} {wins:3d}/{pairs:<3d}  {v}")
        if cf > bf:
            print(f"{w:14s} failed share rose: {bf:.4%} -> {cf:.4%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
