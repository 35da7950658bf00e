"""Print the trajectory digests of the benchmark's workloads, untimed.

    python3 perfbench/digests.py                       # every workload, seed 0
    python3 perfbench/digests.py --workload people-polish --seed 0 3

Plays one round of each workload per seed, checks it as run.py does, and
prints one line per operation (outcome, generations, restarts or the
number of extensions) and the digest run.py prints for the same workload
and seed.  Two commits with the same digests ran the same trajectories.
"""

from __future__ import annotations

import argparse
import sys

from run import play, use_checkout_sources


def main(argv=None) -> int:
    use_checkout_sources()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", nargs="*", type=int, default=[0])
    args = parser.parse_args(argv)
    ok = True
    for name in args.workload:
        for seed in args.seed:
            problems: list[str] = []
            ops = workloads.WORKLOADS[name](seed, problems)
            played = play(ops, 0.0)
            for record in played.records:
                if "extensions" in record:
                    print("  %s: %d extensions" % (record["op"], len(record["extensions"])))
                else:
                    print("  %s seed %s: %s after %s generations, %s restarts"
                          % (record["op"], record.get("seed"), record.get("outcome", "error"),
                             record.get("generations"), record.get("restarts")))
            for problem in problems + played.problems:
                print("  PROBLEM " + problem)
            ok = ok and not problems and not played.problems and not played.failed
            print("digest %s seed %d %s" % (name, seed, played.digest))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
