"""freerep benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  A pass runs each call of the workload, in
an order drawn from --seed, as `freerep.cli.main(["--json", *argv])` in a
fresh interpreter of its own (child.py), so module-level caches start cold
as they do for every CLI invocation.  Calls and passes run one at a time.
Times are reference seconds: wall time with the host's speed divided out
(speed.py).

--trace 0 prints the end-to-end metrics of untraced passes:
  wall_s        the pass's calls, set-up and output checks excluded;
                median over passes
  setup_s       interpreter start through `import freerep.cli`; median over
                every interpreter the run started
  peak_rss_mib  the largest peak resident memory of a call in the pass;
                median over passes
--trace 1 runs an untraced and a traced pass in turn and prints the
per-layer metrics of tracer.py, summed over each traced pass, with
trace.overhead = traced / untraced wall time.

The last line of stdout is the result object; the line before it holds
per-command sums, raw wall time and host speed, with quartiles and sample
counts.  Exits non-zero, with no result, when the program cannot be found
or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s
TRACE_DIR = os.path.join(HERE, "out")


class SetupFailed(Exception):
    """The program could not be imported: nothing can be measured."""


def spawn(request: dict, timeout: float) -> tuple:
    """Run child.py once; return (set-up seconds, parsed result or None)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "child.py"), json.dumps(request)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if ready.strip() != "ready":
            proc.wait(timeout=timeout)
            raise SetupFailed(f"child exited with code {proc.returncode} before import")
        out, _ = proc.communicate(timeout=max(1.0, timeout - setup))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return setup, None
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not out.strip():
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def wall(calls: list) -> float:
    """A pass's time in reference seconds (see speed.py)."""
    return sum(c["seconds"] * c["speed"] for c in calls)


class Run:
    """The passes of one run, their checks, and the metrics drawn from them."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.calls = WORKLOADS[workload]
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.rng = random.Random(seed)
        self.started = perf_counter()
        self.setups = []  # reference seconds, one per child
        self.passes = {"plain": [], "traced": []}  # per pass, its call results
        self.attempted = self.failed = 0
        self.problems = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def one_pass(self, traced: bool) -> None:
        """Each call of the workload, in an order drawn from the seed."""
        results = []
        for call in self.rng.sample(self.calls, len(self.calls)):
            trace_path = None
            if traced:
                os.makedirs(TRACE_DIR, exist_ok=True)
                trace_path = os.path.join(TRACE_DIR, "{}-seed{}-pass{}-call{}.json".format(
                    self.name, self.seed, len(self.passes["traced"]), len(results)))
            setup, result = spawn({"call": call, "trace_path": trace_path},
                                  self.remaining())
            self.attempted += 1
            if result is None:
                self.failed += 1
                self.problems.append(f"{' '.join(call[0])}: child did not finish")
                continue
            self.setups.append((setup - result["setup_sampled"]) * result["setup_speed"])
            if result["problem"]:
                self.failed += 1
                self.problems.append(f"{' '.join(call[0])}: {result['problem']}")
            results.append(result)
        if results:
            self.passes["traced" if traced else "plain"].append(results)

    def measure(self, traced: bool) -> None:
        """Untraced passes, or untraced/traced pairs, for about --seconds.

        One round always runs; another starts only while it is expected to
        end within --seconds.
        """
        begin = perf_counter()
        rounds = 0
        while True:
            self.one_pass(False)
            if traced:
                self.one_pass(True)
            rounds += 1
            elapsed = perf_counter() - begin
            if elapsed / rounds > min(self.seconds - elapsed, self.remaining()):
                break

    def end_to_end(self) -> dict:
        plain = self.passes["plain"]
        return {
            "wall_s": {"value": statistics.median(map(wall, plain)), "unit": "s"},
            "setup_s": {"value": statistics.median(self.setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(
                max(c["peak_rss_mib"] for c in calls) for calls in plain), "unit": "MiB"},
        }

    def per_layer(self) -> dict:
        """Per-layer sums over each traced pass (times in reference seconds);
        the median over traced passes."""
        sums = []
        for calls in self.passes["traced"]:
            total = {}
            for c in calls:
                for name, value in c["layers"].items():
                    if name.endswith("_s"):
                        value *= c["speed"]
                    elif name == "trace.coverage":
                        value *= c["seconds"] / sum(d["seconds"] for d in calls)
                    total[name] = total.get(name, 0) + value
            sums.append(total)
        layers = {name: statistics.median(t[name] for t in sums) for name in sums[0]}
        layers["trace.overhead"] = (statistics.median(map(wall, self.passes["traced"]))
                                    / statistics.median(map(wall, self.passes["plain"])))
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in layers.items()}

    def detail(self) -> dict:
        """Per-command sums of untraced passes, and raw wall time and host
        speed, each with quartiles and sample count."""
        sums = {}
        for calls in self.passes["plain"]:
            per_kind = {}
            for c in calls:
                name = c["kind"] + "_s"
                per_kind[name] = per_kind.get(name, 0.0) + c["seconds"] * c["speed"]
            per_kind["raw_wall_s"] = sum(c["seconds"] for c in calls)
            for name, value in per_kind.items():
                sums.setdefault(name, []).append(value)
        out = {name: quartiles(values) for name, values in sums.items()}
        out["speed"] = quartiles([c["speed"] for calls in self.passes["plain"] for c in calls])
        out["setup_s"] = quartiles(self.setups)
        if self.problems:
            out["problems"] = self.problems
        return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("trace."):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "freerep", "cli.py")):
        print(f"no freerep sources under {ROOT}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.measure(bool(args.trace))
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    complete = run.passes["plain"] and (run.passes["traced"] or not args.trace)
    if not complete:
        print("no pass finished", file=sys.stderr)
        return 1
    print(json.dumps({"detail": run.detail()}))
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
