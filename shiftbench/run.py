"""Run one benchmark workload and print its metrics as one JSON line.

    python3 shiftbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each round is one full call of the
workload in a fresh interpreter (``round.py``) with one BLAS thread; this
process times the round from outside and checks its outputs.  Rounds
repeat until S seconds of rounds have passed.

With ``--trace 0`` the metrics are the end-to-end ones, both times at
the reference machine's typical speed (see ``reference.py``):

* ``run_s``: the rounds' total wall time over their total slowdown; a
  round's slowdown is the mean time of the reference kernel timed just
  before and just after it, over the kernel's typical time;
* ``peak_rss_mb``: the largest peak RSS of any round's interpreter;
* ``setup_s``: the median time from starting an interpreter to having
  ``eigenshift`` imported and the inputs built, over the whole run's
  slowdown (the mean of all its kernel times over the typical time).
  Setup is sampled by the rounds and by setup-only interpreters started
  before every round and after the last one.

The unscaled round times and the kernel times go to standard error, and
the unscaled times and the slowdowns to the run record.

With ``--trace 1`` the rounds run with spans and ``tracemalloc``; the
metrics are the per-layer ones (medians over rounds) and ``trace.run_s``.
Spans go to ``shiftbench/out/spans-*.jsonl`` and every run appends its
record to ``shiftbench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("calibrate", "analytic")  # as in workloads.WORKLOADS
PROBES_PER_GAP = 1        # setup-only interpreters before each round and after the last
RUN_LIMIT_S = 170.0       # a round still running then is killed and counts as crashed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Round:
    """One child interpreter; fields are filled in as it reports."""

    def __init__(self, workload: str, seed: int, mode: str, round_id: str, deadline: float):
        self.setup_s = self.run_s = None
        self.slowdown = None      # reference time around the round over its typical time
        self.operations: list = []
        self.result: dict = {}
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), mode, round_id],
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
        )
        killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        killer.start()
        t_ready = None
        try:
            for line in proc.stdout:
                now = time.perf_counter()
                if line.startswith("@@ready "):
                    t_ready = now
                    self.setup_s = now - t0
                    self.operations = json.loads(line[len("@@ready "):])
                elif line.startswith("@@done") and t_ready is not None:
                    self.run_s = now - t_ready
                elif line.startswith("@@result "):
                    self.result = json.loads(line[len("@@result "):])
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.returncode = proc.returncode

    @property
    def crashed(self) -> bool:
        """The round did not report: the interpreter died or the workload raised."""
        return self.returncode != 0 or not self.result or self.result.get("error") is not None

    @property
    def failed_ops(self) -> list:
        if self.crashed:
            return list(self.operations)
        return [op for op, msgs in self.result["failures"].items() if msgs]

    def is_known(self, op: str, msg: str) -> bool:
        return msg in self.result.get("known_faults", {}).get(op, ())

    @property
    def wrong(self) -> list:
        """Failed checks other than the known faults' exact messages."""
        return [f"{op}: {msg}" for op, msgs in self.result.get("failures", {}).items()
                for msg in msgs if not self.is_known(op, msg)]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_rounds(args, mode: str):
    """Rounds until args.seconds of rounds passed; untraced, also setup probes
    and reference timings (one before the first round and one after each)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    rounds, setups, refs = [], [], []
    spent = 0.0
    reference = None
    if mode == "plain":
        from reference import Reference

        reference = Reference(args.workload)
        reference.unit()  # warm-up

    def probes():
        for _ in range(PROBES_PER_GAP if mode == "plain" else 0):
            probe = Round(args.workload, args.seed, "setup", "probe", deadline)
            if probe.setup_s is None:
                raise SystemExit(f"setup failed for {args.workload} (exit {probe.returncode})")
            setups.append(probe.setup_s)

    while spent < args.seconds and time.perf_counter() < deadline:
        probes()
        if reference is not None and not refs:
            refs.append(reference.sample())
        t0 = time.perf_counter()
        rnd = Round(args.workload, args.seed, mode,
                    f"{args.workload}-s{args.seed}-r{len(rounds)}", deadline)
        spent += time.perf_counter() - t0
        if reference is not None:
            refs.append(reference.sample())
        if rnd.setup_s is None:
            raise SystemExit(f"setup failed for {args.workload} (exit {rnd.returncode})")
        setups.append(rnd.setup_s)
        rounds.append(rnd)
        state = "crashed" if rnd.crashed else ("WRONG" if rnd.wrong else "ok")
        ref = f", reference {refs[-2]:.3f} / {refs[-1]:.3f} s" if refs else ""
        log(f"{args.workload} round {len(rounds)}: {state}, run {rnd.run_s}{ref}, "
            f"setup {rnd.setup_s:.3f} s, peak {rnd.peak_rss_mb:.0f} MB, "
            f"failed operations {rnd.failed_ops}")
        for op, msgs in rnd.result.get("failures", {}).items():
            for msg in msgs:
                log(f"  check failed ({op}"
                    f"{', known fault' if rnd.is_known(op, msg) else ''}): {msg}")
        if rnd.crashed and rnd.result.get("error"):
            log(rnd.result["error"])
    probes()
    if reference is None or not rounds:
        return rounds, setups, None
    nominal_s = reference.mix.nominal_s
    for i, rnd in enumerate(rounds):
        rnd.slowdown = (refs[i] + refs[i + 1]) / (2.0 * nominal_s)
    return rounds, setups, statistics.mean(refs) / nominal_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind through Round, which kills and reaps its interpreter
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "eigenshift", "__init__.py")):
        sys.exit(f"no eigenshift sources under {ROOT}/src; run from a checkout of the repository")
    # byte-compile once, so no round pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
                   check=True, stdout=subprocess.DEVNULL)

    mode = "trace" if args.trace else "plain"
    rounds, setups, slowdown = run_rounds(args, mode)
    clean = [r for r in rounds if not r.crashed]
    if not clean:
        sys.exit(f"no round of {args.workload} finished")
    timed = [r.run_s for r in clean]

    if args.trace:
        import tracing

        metrics = {
            name: {"value": statistics.median(r.result["layers"][name] for r in clean),
                   "unit": unit}
            for name, unit, *_ in tracing.PER_LAYER + (tracing.SMALLEST_EPS_POINT,)
        }
        metrics[tracing.TRACE_RUN[0]] = {"value": statistics.median(timed),
                                         "unit": tracing.TRACE_RUN[1]}
    else:
        metrics = {
            # total over total, so every second of every round counts
            "run_s": {"value": sum(timed) / sum(r.slowdown for r in clean),
                      "unit": "s"},
            "peak_rss_mb": {"value": max(r.peak_rss_mb for r in rounds), "unit": "MB"},
            # setup samples lie between all the rounds: scale by the whole run's slowdown
            "setup_s": {"value": statistics.median(setups) / slowdown, "unit": "s"},
        }
    summary = {
        # a crashed round's outputs went unchecked, so the run is not correct
        "correct": not any(r.crashed or r.wrong for r in rounds),
        "attempted": sum(len(r.operations) for r in rounds),
        "failed": sum(len(r.failed_ops) for r in rounds),
        "metrics": metrics,
    }
    write_records(args, rounds, setups, slowdown, summary)
    print(json.dumps(summary))


def write_records(args, rounds, setups, slowdown, summary) -> None:
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "time": stamp, "round_s": [r.run_s for r in rounds],
              "slowdown": [r.slowdown for r in rounds], "setup_s": setups,
              "run_slowdown": slowdown,
              **summary}
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-s{args.seed}-{stamp}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for r in rounds:
                for span in r.result.get("spans", []):
                    fh.write(json.dumps(span) + "\n")
        record["spans"] = os.path.relpath(path, ROOT)
        untraced = last_untraced_run_s(args.workload)
        traced = summary["metrics"]["trace.run_s"]["value"]
        if untraced is not None:
            log(f"trace.run_s {traced:.3f} s beside {untraced:.3f} s untraced "
                f"(tracing overhead {traced / untraced - 1.0:+.1%})")
        else:
            log(f"trace.run_s {traced:.3f} s; no untraced run of {args.workload} recorded yet")
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def last_untraced_run_s(workload: str):
    try:
        with open(os.path.join(OUT, "runs.jsonl"), encoding="utf-8") as fh:
            runs = [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return None
    plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
    times = [s for s in plain[-1]["round_s"] if s is not None] if plain else []
    return statistics.median(times) if times else None


if __name__ == "__main__":
    main()
