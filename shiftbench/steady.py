"""Steadiness check: two sets of runs of the same code must agree.

    python3 shiftbench/steady.py [--runs 5]

Run it from the root of a checkout.  It makes two sets (A and B) of
``--runs`` untraced runs of every workload in ``BENCHMARK.json``,
interleaved across workloads and alternating which set goes first, each
run with its own seed.  For
every end-to-end metric in ``BENCHMARK.json`` it prints each set's median
and quartiles, the spread of all runs together (quartile distance over
median) and the change of B's median against A's.  It exits with 1 when
two medians differ by more than the metric's bound, when the sets' shares
of failed operations differ, or when a run reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {(s, w): [] for s in "AB" for w in names}
    for i in range(args.runs):
        for which in ("AB" if i % 2 == 0 else "BA"):
            for w in names:
                seed = 1 + i + (0 if which == "A" else args.runs)
                res = one_run(w, seed, bench["run_seconds"])
                runs[(which, w)].append(res)
                print(f"# set {which} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                    + f", failed {res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    ok = True
    notes = []
    print("| workload | metric | bound | A median [q1, q3] | B median [q1, q3] "
          "| spread of all runs | B vs A |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in names:
        for m in metrics:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[(s, w)]] for s in "AB"}
            qa = statistics.quantiles(vals["A"], n=4)
            qb = statistics.quantiles(vals["B"], n=4)
            q1, med, q3 = statistics.quantiles(vals["A"] + vals["B"], n=4)
            change = qb[1] / qa[1] - 1.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if abs(change) > m["bound"]:
                ok, flag = False, " FAIL"
            print(f"| {w} | {m['name']} ({m['unit']}) | {m['bound']:.2f} "
                  f"| {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"| {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] "
                  f"| {(q3 - q1) / med:.3f} | {worse:+.3f}{flag} |")
        shares = {s: Fraction(sum(r["failed"] for r in runs[(s, w)]),
                              sum(r["attempted"] for r in runs[(s, w)])) for s in "AB"}
        correct = all(r["correct"] for s in "AB" for r in runs[(s, w)])
        if shares["A"] != shares["B"] or not correct:
            ok = False
        notes.append(f"{w}: failed share A {shares['A']}, B {shares['B']}; "
                     f"all outputs correct: {correct}")
    print()
    print("\n".join(notes))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({f"{s}:{w}": r for (s, w), r in runs.items()}, fh)
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
