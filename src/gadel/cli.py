"""Command line front end: solve, check, gen, bench."""

import argparse
import json
import sys
from pathlib import Path

from .bench import PEOPLE_FACTS, batch_stats, build_hamiltonian, build_people, run_batch
from .engine import GaParams, PenaltyTable, UNIT_PENALTIES
from .formulas import ParseError, format_theory, parse_theory
from .verifier import ExtensionCertificate, certificate_json, verify


def _load_theory(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_theory(text)


def _parse_penalties(text: str) -> PenaltyTable:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--penalties wants six values: p2,p3,p4,p5,p9,p13")
    return PenaltyTable(*[float(p) for p in parts])


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")] if text.strip() else []
    except ValueError:
        raise ValueError("--applied wants comma-separated rule indices, got %r" % text) from None


def _params_from_args(args) -> GaParams:
    return GaParams(**{field: getattr(args, field) for field in GaParams._fields})


def _add_ga_arguments(ap) -> None:
    def ga_flag(flag, field, kind, text):  # the GaParams field is the flag's dest
        ap.add_argument(flag, dest=field, type=kind, default=GaParams._field_defaults[field],
                        metavar=flag[2:].replace("-", "_").upper(), help=text)

    ga_flag("--pop-size", "population_size", int, "population size")
    ga_flag("--pc", "crossover_rate", float, "crossover rate")
    ga_flag("--pm", "mutation_rate", float, "mutation rate")
    ga_flag("--max-gens", "max_generations", int, "generation limit")
    ga_flag("--restart", "restart_after", int,
            "restart after this many generations without a certified answer")
    ga_flag("--select-frac", "selection_fraction", float,
            "fraction of the population kept as parents")
    ap.add_argument("--penalties", default=None, metavar="p2,p3,p4,p5,p9,p13",
                    help="six positive finite penalty weights (default: all 1)")
    ga_flag("--seed", "rng_seed", int, "RNG seed")


def _csv_row(record: dict) -> str:
    return "%s,%d,%s,%d,%d,%.3f" % (record["problem"], record["seed"], record["outcome"],
                                    record["generations"], record["restarts"],
                                    record["wall_ms"])


CSV_HEADER = "problem,seed,outcome,generations,restarts,wall_ms"


def cmd_solve(args) -> int:
    theory = _load_theory(args.theory)
    params = _params_from_args(args)
    table = _parse_penalties(args.penalties) if args.penalties else UNIT_PENALTIES
    name = Path(args.theory).stem
    trace = None
    if args.trace:
        def trace(gen, best, mean, size, restarts):
            print("gen %d best=%.3f mean=%.3f size=%d restarts=%d"
                  % (gen, best, mean, size, restarts), file=sys.stderr)
    records = run_batch(theory, params, 1, name=name, table=table, on_generation=trace)
    record = records[0]
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    elif args.csv:
        print(CSV_HEADER)
        print(_csv_row(record))
    elif record["outcome"] == "found":
        cert = record["certificate"]
        print("extension found in %d generations (%d restarts, %.0f ms)"
              % (record["generations"], record["restarts"], record["wall_ms"]))
        print("applied defaults: %s" % (cert["applied"] or "(none)"))
        if not cert["consistent"]:
            print("the extension is inconsistent: it entails every formula")
        if "extension_atoms" in cert:
            print("extension atoms: %s" % (cert["extension_atoms"] or "(none)"))
        if record["zero_fitness_rejected"]:
            print("zero-fitness candidates rejected on the way: %d %s"
                  % (record["zero_fitness_rejected"], dict(record["rejection_reasons"])))
    else:
        print("no certified extension within %d generations (%d restarts)"
              % (record["generations"], record["restarts"]))
        if record["zero_fitness_rejected"]:
            print("zero-fitness candidates rejected: %d %s"
                  % (record["zero_fitness_rejected"], dict(record["rejection_reasons"])))
    return 0 if record["outcome"] == "found" else 1


def cmd_check(args) -> int:
    theory = _load_theory(args.theory)
    outcome = verify(theory, _parse_indices(args.applied))
    if isinstance(outcome, ExtensionCertificate):
        print(json.dumps(certificate_json(outcome), indent=2, sort_keys=True))
        return 0
    print("rejected (%s): %s" % (outcome.reason, outcome.detail))
    return 1


def _read_arcs(path: str) -> list[tuple[int, int]]:
    arcs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            u, v = map(int, body.split())
        except ValueError:
            raise ValueError("edges file line %d: expected two integer vertices 'u v', got %r"
                             % (lineno, line)) from None
        arcs.append((u, v))
    return arcs


def cmd_gen(args) -> int:
    if args.kind == "people":
        facts = [f.strip() for f in args.facts.split(",") if f.strip()] if args.facts else []
        theory = build_people(facts)
    else:
        theory = build_hamiltonian(args.vertices, _read_arcs(args.edges))
    text = format_theory(theory)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print("wrote %s (%d world formulas, %d defaults)"
              % (args.out, len(theory.world), len(theory.defaults)))
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    theory = _load_theory(args.theory)
    params = _params_from_args(args)
    table = _parse_penalties(args.penalties) if args.penalties else UNIT_PENALTIES
    name = Path(args.theory).stem
    records = run_batch(theory, params, args.reps, name=name, table=table)
    stats = batch_stats(records)
    if args.json:
        doc = {"problem": name, "records": records, "stats": stats}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(CSV_HEADER)
        for record in records:
            print(_csv_row(record))
        print("found %d/%d (%.0f%%), mean generations %s, median %s"
              % (stats["found"], stats["runs"], 100.0 * stats["success_rate"],
                 stats["mean_generations"], stats["median_generations"]))
    return 0 if stats["found"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gadel",
        description="Genetic search for extensions of propositional default theories.")
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="search one theory for a certified extension")
    solve.add_argument("theory", help="theory file (.dt)")
    _add_ga_arguments(solve)
    out = solve.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="emit the run record as JSON")
    out.add_argument("--csv", action="store_true", help="emit the run record as CSV")
    solve.add_argument("--trace", action="store_true",
                       help="per-generation statistics on stderr")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="verify a hand-picked set of applied defaults")
    check.add_argument("theory", help="theory file (.dt)")
    check.add_argument("--applied", required=True, metavar="i1,i2,...",
                       help="1-based indices of the defaults assumed applied")
    check.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="write a benchmark theory file")
    gensub = gen.add_subparsers(dest="kind", required=True)
    people = gensub.add_parser("people", help="taxonomy benchmark theory")
    people.add_argument("--facts", default="", metavar="f1,f2",
                        help="facts to assert, from: %s" % ",".join(PEOPLE_FACTS))
    people.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    people.set_defaults(func=cmd_gen)
    ham = gensub.add_parser("ham", help="Hamiltonian cycle theory from an arc list")
    ham.add_argument("--vertices", type=int, required=True, help="vertex count")
    ham.add_argument("--edges", required=True,
                     help="file with one 'u v' arc per line, # comments allowed")
    ham.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    ham.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="repeat the search over consecutive seeds")
    bench.add_argument("theory", help="theory file (.dt)")
    bench.add_argument("--reps", type=int, default=10, help="number of runs")
    _add_ga_arguments(bench)
    bench.add_argument("--json", action="store_true", help="emit records and stats as JSON")
    bench.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("gadel: parse error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("gadel: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
