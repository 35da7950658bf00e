"""Run one workload of gadel's benchmark and print its metrics.

    python3 perfbench/run.py --workload ga-breeding --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; gadel is imported from its src/ directory
(no install).  One process, one thread, one caller in a closed loop: each
gadel call starts when the previous one returns.  Set-up is timed first,
on its own.  Then the workload's round, a fixed list of operations, runs
again and again until the operations have been busy for --seconds; every
output is checked apart from gadel, and every round must repeat the first
one's trajectory digest.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 the run first plays one untraced round as a reference, then
wraps gadel's layer boundaries (tracing.py), does one traced set-up and
traced rounds, and the last line carries the per-layer metrics and the
tracing overhead.  Spans are written to .perfbench/ under the checkout.
Lines before the last are for people: the same figures under the names
each workload gives them, sample counts, ratio bases and digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


def use_checkout_sources() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "gadel" / "__init__.py").is_file():
        raise SystemExit("perfbench: no gadel sources under %s" % src)
    sys.path.insert(0, str(src))


@dataclass
class Played:
    rounds: int = 0
    busy_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    per_op: dict[str, list[float]] = field(default_factory=dict)  # op label -> latencies
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    records: list[dict] = field(default_factory=list)  # the first round's


def digest_of(records: list[dict]) -> str:
    text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def play(ops, seconds: float) -> Played:
    """Whole rounds of ops until they have been busy for `seconds` (at least one)."""
    out = Played()
    while out.rounds == 0 or out.busy_s < seconds:
        records = []
        for op in ops:
            out.attempted += 1
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception:  # an operation that raises counts as failed
                out.busy_s += perf_counter() - t0
                traceback.print_exc()
                out.failed += 1
                records.append({"op": op.label, "error": True})
                continue
            dt = perf_counter() - t0
            out.busy_s += dt
            out.latencies.append(dt)
            out.per_op.setdefault(op.label, []).append(dt)
            judged = op.judge(result)
            out.failed += judged.failed
            out.steps += judged.steps
            if judged.problem is not None and judged.problem not in out.problems:
                out.problems.append(judged.problem)
            records.append(judged.record)
        digest = digest_of(records)
        if out.rounds == 0:
            out.digest, out.records = digest, records
        elif digest != out.digest:
            out.problems.append("round %d trajectory digest %s differs from %s"
                                % (out.rounds + 1, digest, out.digest))
        out.rounds += 1
    return out


def typical_round(played: Played, ops) -> tuple[list[float], float]:
    """The round's operations, each at its median latency over the run, and their sum.

    An operation that occurs more than once (in a round, or in several
    rounds) is timed by the median of all its occurrences, which keeps a
    slowdown of the machine that hits a minority of them out of the figures.
    """
    medians = {label: statistics.median(v) for label, v in played.per_op.items()}
    times = [medians[op.label] for op in ops if op.label in medians]
    return times, sum(times)


def percentile_line(latencies: list[float]) -> str:
    """The highest of p90 and p75 with ten samples beyond it, if any."""
    n = len(latencies)
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10 and n >= 40:
            value = statistics.quantiles(latencies, n=100)[q - 1]
            return "solve_s_p%d %.6f s (n=%d)" % (q, value, n)
    return "no tail percentile: %d samples" % n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ga-breeding", "people-polish", "verify-families"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = perf_counter()
    use_checkout_sources()
    import tracing
    import workloads
    import_s = perf_counter() - t0

    setup = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPS):
        problems: list[str] = []
        t0 = perf_counter()
        ops = setup(args.seed, problems)
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    ga = args.workload != "verify-families"
    step_name = "generations_per_s" if ga else "verdicts_per_s"

    if not args.trace:
        played = play(ops, args.seconds)
        problems += played.problems
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians, round_s = typical_round(played, ops)
        steps_per_s = played.steps / played.rounds / round_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s_p50": (statistics.median(medians), "s"),
            "solves_per_s": (len(medians) / round_s, "1/s"),
            "steps_per_s": (steps_per_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        notes = [
            "set-up: imports %.4f s + median of %d set-ups %.4f s"
            % (import_s, SETUP_REPS, statistics.median(setup_times)),
            "typical round %.4f s from per-operation medians over %d round(s)"
            % (round_s, played.rounds),
            "%s %.4f 1/s (steps_per_s)" % (step_name, steps_per_s),
            percentile_line(played.latencies),
        ]
    else:
        reference = play(ops, 0.0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            ops = setup(args.seed, problems)
            tracer.mark()
            played = play(ops, args.seconds)
        finally:
            tracer.restore()
        if ga:
            tracer.counts["engine.generations"] += played.steps
        tracer.write(ROOT / ".perfbench" / ("trace-%s-seed%d" % (args.workload, args.seed)))
        problems += reference.problems + played.problems
        if played.digest != reference.digest:
            problems.append("traced digest %s differs from untraced %s"
                            % (played.digest, reference.digest))
        layers, bases = tracing.layer_metrics(tracer, played.rounds)
        overhead = played.busy_s / played.rounds / reference.busy_s - 1.0
        metrics = {name: (value, tracing.PER_LAYER[name][0]) for name, value in layers.items()}
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        notes = ["untraced round %.4f s, traced rounds %.4f s each (%d)"
                 % (reference.busy_s, played.busy_s / played.rounds, played.rounds)]
        notes += ["%s = %s" % item for item in bases.items()]
        played.attempted += reference.attempted
        played.failed += reference.failed

    print("perfbench %s seed %d trace %d: %d round(s), %d operations, busy %.3f s"
          % (args.workload, args.seed, args.trace, played.rounds, played.attempted,
             played.busy_s))
    for name, (value, unit) in metrics.items():
        print("  %-40s %.6g %s" % (name, value, unit))
    for note in notes:
        print("  " + note)
    if ga:
        print("  generations_total %d count (per round)" % (played.steps // played.rounds))
    else:
        print("  candidate sets decided per round: %d" % (played.steps // played.rounds))
    print("  digest %s %s" % (args.workload, played.digest))
    for problem in problems:
        print("  PROBLEM " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": played.attempted,
        "failed": played.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
