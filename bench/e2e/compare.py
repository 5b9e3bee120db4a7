#!/usr/bin/env python3
"""Repeated runs of the end-to-end benchmark and the rules applied to them.

    compare.py spread [--checkout DIR] [--runs 10] [--workloads W ...]
        One set of runs with distinct seeds: per end-to-end metric the
        median, quartiles and the spread (quartile distance over median)
        against the metric's BENCHMARK.json bound.

    compare.py self [--checkout DIR] [--runs 5] [--traced N]
        Two sets of runs of one checkout (distinct seeds): the spread of
        each set and whether the second set's median stays within the bound
        of the first. With --traced N, N traced runs more per workload and
        the tracing overhead: traced trace.e2e_p50_ms minus untraced p50_ms.

    compare.py pairs PARENT CHANGE [--pairs 10] [--workloads W ...]
        Alternating parent/change runs, the same seed within a pair and the
        side that runs first alternating. A metric is a gain only if the
        change wins at least 9 of 10 pairs (ties count for neither side) and
        the medians differ by more than the parent's quartile distance; it
        is a regression if the change's median is worse than the parent's by
        more than the bound; unresolved when the parent's spread exceeds the
        bound, unless every change run beats every parent run. No gain
        counts when the change failed more operations than the parent.

Each run is `python3 bench/e2e/run.py` inside the checkout (which builds it
on first use); `--seconds` defaults to BENCHMARK.json's run_seconds.
`--out FILE` keeps every run's result as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


OUT = None  # file object for --out


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        report = "\n".join(proc.stderr.strip().splitlines()[-15:])
        sys.exit(f"{checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})\n{report}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if OUT:
        OUT.write(json.dumps({"checkout": str(checkout), "workload": workload,
                              "seed": seed, "trace": trace, **result}) + "\n")
        OUT.flush()
    return {"values": values, "failed": result["failed"],
            "attempted": result["attempted"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def run_set(checkout: Path, spec: dict, workloads: list, seeds: list,
            seconds: float, trace: int) -> dict:
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            runs[w].append(run_once(checkout, w, seed, seconds, trace))
            print(f"  {w} seed {seed} done", file=sys.stderr)
    return runs


def print_spread(spec: dict, runs: dict, label: str) -> None:
    print(f"\n{label}")
    print(f"  {'workload':<14}{'metric':<10}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>9}{'bound':>7}")
    for w, rs in runs.items():
        for m in spec["end_to_end"]:
            vals = [r["values"][m["name"]] for r in rs]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s <= m["bound"] / 3 else (
                "  > bound/3" if s <= m["bound"] else "  > BOUND")
            print(f"  {w:<14}{m['name']:<10}{med:>12.5g}{q1:>12.5g}"
                  f"{q3:>12.5g}{s:>9.3f}{m['bound']:>7.2f}{flag}")


def cmd_spread(args, spec) -> int:
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = run_set(args.checkout, spec, args.workloads, seeds, args.seconds, 0)
    print_spread(spec, runs, f"{args.runs} runs per workload")
    return 0


def cmd_self(args, spec) -> int:
    n = args.runs
    a = run_set(args.checkout, spec, args.workloads, list(range(1, n + 1)),
                args.seconds, 0)
    b = run_set(args.checkout, spec, args.workloads,
                list(range(n + 1, 2 * n + 1)), args.seconds, 0)
    print_spread(spec, a, "set 1")
    print_spread(spec, b, "set 2")
    ok = True
    print("\nset 2 median against set 1")
    for w in args.workloads:
        for m in spec["end_to_end"]:
            m1 = statistics.median(r["values"][m["name"]] for r in a[w])
            m2 = statistics.median(r["values"][m["name"]] for r in b[w])
            worse = worse_by(m1, m2, m["better"])
            agree = worse <= m["bound"]
            ok = ok and agree
            print(f"  {w:<14}{m['name']:<10}{m1:>12.5g}{m2:>12.5g}"
                  f"{worse:>+9.3f}  {'agree' if agree else 'DISAGREE'}")
    if args.traced:
        print("\ntracing overhead (traced trace.e2e_p50_ms - untraced p50_ms)")
        t = run_set(args.checkout, spec, args.workloads,
                    list(range(1, args.traced + 1)), args.seconds, 1)
        for w in args.workloads:
            untraced = statistics.median(r["values"]["p50_ms"] for r in a[w])
            traced = statistics.median(
                r["values"]["trace.e2e_p50_ms"] for r in t[w])
            print(f"  {w:<14}{traced - untraced:>+12.5g} ms "
                  f"({(traced - untraced) / untraced:+.1%})")
    return 0 if ok else 1


def cmd_pairs(args, spec) -> int:
    parent, change = args.parent.resolve(), args.change.resolve()
    rows = []
    for w in args.workloads:
        p_runs, c_runs = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [(parent, p_runs), (change, c_runs)]
            for checkout, sink in (order if i % 2 == 0 else order[::-1]):
                sink.append(run_once(checkout, w, seed, args.seconds, 0))
            print(f"  {w} pair {i + 1} done", file=sys.stderr)
        more_failures = (sum(r["failed"] for r in c_runs) >
                         sum(r["failed"] for r in p_runs))
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            pv = [r["values"][name] for r in p_runs]
            cv = [r["values"][name] for r in c_runs]
            sign = 1 if better == "lower" else -1
            wins = sum(1 for p, c in zip(pv, cv) if sign * (p - c) > 0)
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            improvement = sign * (pmed - cmed)
            dominates = all(sign * (p - c) > 0 for p in pv for c in cv)
            if (wins >= 0.9 * len(pv) and improvement > pq3 - pq1
                    and not more_failures):
                verdict = "gain"
            elif spread(pv) > m["bound"] and not dominates:
                verdict = "unresolved"
            elif worse_by(pmed, cmed, better) > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "no regression"
            rows.append((w, name, pmed, pq1, pq3, cmed, cq1, cq3, wins,
                         len(pv), verdict))
    print(f"\n  {'workload':<14}{'metric':<10}{'parent med [q1,q3]':>32}"
          f"{'change med [q1,q3]':>32}{'wins':>7}  verdict")
    for (w, name, pm, p1, p3, cm, c1, c3, wins, n, verdict) in rows:
        print(f"  {w:<14}{name:<10}{pm:>12.5g} [{p1:.5g}, {p3:.5g}]"
              f"{cm:>12.5g} [{c1:.5g}, {c3:.5g}]{wins:>4}/{n}  {verdict}")
    return 1 if any(r[-1] == "REGRESSION" for r in rows) else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workloads", nargs="+")
    common.add_argument("--seconds", type=float)
    common.add_argument("--first-seed", type=int, default=1)
    common.add_argument("--out", type=Path)
    p = sub.add_parser("spread", parents=[common])
    p.add_argument("--checkout", type=Path, default=HERE.parents[1])
    p.add_argument("--runs", type=int, default=10)
    p = sub.add_parser("self", parents=[common])
    p.add_argument("--checkout", type=Path, default=HERE.parents[1])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--traced", type=int, default=0)
    p = sub.add_parser("pairs", parents=[common])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    global OUT
    if args.out:
        OUT = args.out.open("a")
    checkout = getattr(args, "checkout", None) or args.change
    spec = load_spec(checkout)
    args.workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    args.seconds = args.seconds or spec["run_seconds"]
    if hasattr(args, "checkout"):
        args.checkout = args.checkout.resolve()
    return {"spread": cmd_spread, "self": cmd_self,
            "pairs": cmd_pairs}[args.mode](args, spec)


if __name__ == "__main__":
    sys.exit(main())
