"""Benchmark theories and batch-run helpers.

Two families of problems live here: a taxonomic knowledge base about
people, parameterized by which facts are asserted, and a reduction from
directed Hamiltonian cycles to default theories.  `run_batch` repeats the
genetic search over a seed range and returns one JSON record (a dict) per
run; `batch_stats` condenses the records into a JSON summary.  These dicts
are the run record itself: `gadel solve/bench --json` prints them as they
are.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from itertools import combinations

from .engine import (UNIT_PENALTIES, Found, GaParams, PenaltyTable, evolve)
from .formulas import And, Atom, DefaultTheory, Formula, Not, Or, conj, disj, make_theory
from .program import MAX_PROGRAM_CLAUSES, compile_theory
from .verifier import certificate_json

PEOPLE_FACTS = ("boy", "girl", "man", "woman", "student")


def _a(name: str) -> Atom:
    return Atom(name)


def build_people(extra_facts=()) -> DefaultTheory:
    """Taxonomy of people, habits and clothing, plus the given facts.

    Facts are drawn from boy / girl / man / woman / student; the rules
    fill in employment, marriage, drinks, sports and toys, with priests,
    professors and cardinals carving out exceptions.
    """
    world: list[Formula] = []
    for name in extra_facts:
        if name not in PEOPLE_FACTS:
            raise ValueError("unknown fact %r, expected one of %s"
                             % (name, ", ".join(PEOPLE_FACTS)))
        world.append(_a(name))
    world += [
        disj(Not(_a("boy")), Not(_a("girl"))),
        disj(Not(_a("boy")), _a("kid")),
        disj(Not(_a("girl")), _a("kid")),
        disj(Not(_a("human")), _a("male"), _a("female")),
        disj(Not(_a("kid")), _a("human")),
        disj(Not(_a("student")), _a("human")),
        disj(Not(_a("adult")), _a("human")),
        disj(Not(_a("adult")), Not(_a("kid"))),
        disj(Not(_a("adult")), Not(_a("male")), _a("man")),
        disj(Not(_a("adult")), Not(_a("female")), _a("woman")),
        disj(Not(_a("academic")), _a("adult")),
        disj(Not(_a("academic")), _a("diploma")),
        disj(Not(_a("doctor")), _a("academic")),
        disj(Not(_a("priest")), _a("academic")),
        disj(Not(_a("prof")), _a("academic")),
        disj(Not(_a("bishop")), _a("priest")),
        disj(Not(_a("cardinal")), _a("bishop")),
        disj(Not(_a("redsuit")), _a("suit")),
        disj(Not(_a("whitesuit")), _a("suit")),
        disj(Not(_a("blacksuit")), _a("suit")),
        disj(Not(_a("redsuit")), Not(_a("whitesuit"))),
        disj(Not(_a("whitesuit")), Not(_a("blacksuit"))),
        disj(Not(_a("redsuit")), Not(_a("blacksuit"))),
    ]
    defaults = [
        (_a("human"), [_a("name")], _a("name")),
        (_a("kid"), [_a("toys")], _a("toys")),
        (_a("student"), [_a("adult")], _a("adult")),
        (_a("student"), [Not(_a("employed"))], Not(_a("employed"))),
        (_a("student"), [Not(_a("married"))], Not(_a("married"))),
        (_a("student"), [_a("sports")], _a("sports")),
        (_a("adult"), [Not(_a("student"))], _a("employed")),
        (_a("adult"), [Not(_a("student")), Not(_a("priest"))], _a("married")),
        (_a("adult"), [_a("car")], _a("car")),
        (_a("adult"), [Not(_a("academic"))], Not(_a("toys"))),
        (_a("man"), [Not(_a("prof"))], _a("beer")),
        (_a("man"), [Not(_a("vegetarian"))], _a("steak")),
        (_a("man"), [_a("coffee")], _a("coffee")),
        (disj(_a("man"), _a("woman")), [_a("wine")], _a("wine")),
        (_a("woman"), [_a("tea")], _a("tea")),
        (_a("academic"), [Not(_a("prof"))], Not(_a("employed"))),
        (_a("academic"), [Not(_a("priest"))], _a("toys")),
        (_a("academic"), [_a("books")], _a("books")),
        (_a("academic"), [_a("glasses")], _a("glasses")),
        (_a("academic"), [Not(_a("priest"))], _a("late")),
        (_a("doctor"), [_a("medicine")], _a("medicine")),
        (_a("doctor"), [_a("whitesuit")], _a("whitesuit")),
        (_a("prof"), [_a("employed")], _a("employed")),
        (_a("prof"), [_a("grey")], _a("grey")),
        (_a("prof"), [_a("tie")], _a("tie")),
        (_a("prof"), [_a("water")], _a("water")),
        (_a("prof"), [_a("conservative")], _a("conservative")),
        (_a("priest"), [_a("male")], _a("male")),
        (_a("priest"), [_a("conservative")], _a("conservative")),
        (_a("priest"), [Not(_a("cardinal"))], _a("blacksuit")),
        (_a("cardinal"), [_a("redsuit")], _a("redsuit")),
        (_a("car"), [_a("mobile")], _a("mobile")),
        (_a("tie"), [_a("suit")], _a("suit")),
        (conj(_a("wine"), _a("steak"), _a("coffee")), [Not(_a("sports"))], _a("heartdisease")),
        (_a("sports"), [_a("man")], disj(_a("football"), _a("rugby"), _a("tennis"))),
        (_a("sports"), [_a("woman")], disj(_a("swim"), _a("jogging"), _a("tennis"))),
        (conj(_a("toys"), disj(_a("football"), _a("rugby"))), [_a("ball")], _a("ball")),
        (_a("toys"), [_a("boy")], _a("weapon")),
        (_a("toys"), [_a("girl")], _a("doll")),
    ]
    return make_theory(world, defaults)


def build_nixon() -> DefaultTheory:
    """Republican-and-quaker clash, the smallest two-extension theory."""
    rep, qua, pac = _a("republican"), _a("quaker"), _a("pacifist")
    return make_theory([rep, qua],
                       [(rep, [Not(pac)], Not(pac)),
                        (qua, [pac], pac)])


# ---------------------------------------------------------------------------
# Hamiltonian cycles as default theories


def complete_arcs(n_vertices: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n_vertices + 1)
            for v in range(1, n_vertices + 1) if u != v]


def build_hamiltonian(n_vertices: int, arcs) -> DefaultTheory:
    """Default theory whose extensions are the Hamiltonian cycles of a digraph.

    One atom per arc (use_u_v) and per vertex (at_v), plus a start flag and
    an alarm.  Certain knowledge asserts the flag, denies the alarm, and
    forbids selecting two arcs that enter or leave the same vertex.  Each
    arc gets a rule: reachable tail and no competing selected arc lets it
    mark its head visited.  Each vertex gets a watchdog rule raising the
    alarm while the vertex is unvisited, so any candidate leaving a vertex
    uncovered is either penalized or inconsistent.  Penalty-free candidates
    are exactly the cycle covers; staged admission only reaches arcs on the
    cycle through vertex 1, so certified candidates are exactly the single
    cycles through every vertex.  Rule order: arc rules over sorted arcs,
    then watchdogs over sorted vertices.  ValueError, before any formula is
    built, when the theory would pass MAX_PROGRAM_CLAUSES clauses (K18 has
    15,662, K19 18,527).
    """
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    arcs = sorted(set((int(u), int(v)) for u, v in arcs))
    for u, v in arcs:
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise ValueError("arc (%d, %d) outside 1..%d" % (u, v, n_vertices))
        if u == v:
            raise ValueError("self-loop (%d, %d) not allowed" % (u, v))
    # compile_theory's clause count, known before a formula is built: 2 world
    # literals, 3 per arc rule and per watchdog, and per pair of arcs sharing
    # a tail or a head one world clause plus a rival justification of each
    shared = sum(k * (k - 1) // 2 for k in (*Counter(u for u, _ in arcs).values(),
                                           *Counter(v for _, v in arcs).values()))
    clauses = 2 + 3 * (shared + len(arcs) + n_vertices)
    if clauses > MAX_PROGRAM_CLAUSES:
        raise ValueError("Hamiltonian theory of %d vertices and %d arcs has %d clauses "
                         "in clause form, more than %d"
                         % (n_vertices, len(arcs), clauses, MAX_PROGRAM_CLAUSES))

    def use(u: int, v: int) -> Atom:
        return _a("use_%d_%d" % (u, v))

    def at(v: int) -> Atom:
        return _a("at_%d" % v)

    world: list[Formula] = [_a("go"), Not(_a("bad"))]
    for (u1, v1), (u2, v2) in combinations(arcs, 2):
        if u1 == u2 or v1 == v2:
            world.append(Or(Not(use(u1, v1)), Not(use(u2, v2))))

    defaults = []
    for u, v in arcs:
        prereq: Formula = _a("go") if u == 1 else at(u)
        rivals = [use(u2, v) for u2, v2 in arcs if v2 == v and u2 != u]
        rivals += [use(u, v2) for u2, v2 in arcs if u2 == u and v2 != v]
        defaults.append((prereq, [Not(r) for r in rivals], And(use(u, v), at(v))))
    for v in range(1, n_vertices + 1):
        defaults.append((_a("go"), [Not(at(v))], _a("bad")))
    return make_theory(world, defaults)


def two_loops_demo() -> DefaultTheory:
    """Four vertices split into two disjoint round trips.

    Its only penalty-free candidate covers every vertex with the two small
    loops, but the loop missing vertex 1 is never admitted by the staged
    closure, so the search keeps rejecting the candidate as ungrounded and
    no extension exists.
    """
    return build_hamiltonian(4, [(1, 2), (2, 1), (3, 4), (4, 3)])


# ---------------------------------------------------------------------------
# batch running


def run_batch(theory: DefaultTheory, params: GaParams, repetitions: int,
              name: str = "problem",
              table: PenaltyTable = UNIT_PENALTIES,
              on_generation=None) -> list[dict]:
    """Repeat the search with seeds rng_seed .. rng_seed+repetitions-1.

    Each run gives one JSON record: problem, seed, outcome ("found" or
    "exhausted"), generations, restarts, wall_ms, rejection_reasons as
    [reason, count] pairs and zero_fitness_rejected, their total; a found
    run adds its chromosome and certificate.  ValueError unless
    repetitions is at least 1.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1, got %d" % repetitions)
    program = compile_theory(theory)
    records = []
    for k in range(repetitions):
        seeded = params._replace(rng_seed=params.rng_seed + k)
        t0 = time.perf_counter()
        outcome = evolve(program, theory, seeded, table, on_generation=on_generation)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        record = {
            "problem": name,
            "seed": seeded.rng_seed,
            "outcome": "found" if isinstance(outcome, Found) else "exhausted",
            "generations": outcome.generations_used,
            "restarts": outcome.restarts_used,
            "wall_ms": wall_ms,
            "zero_fitness_rejected": sum(n for _, n in outcome.rejection_reasons),
            "rejection_reasons": [list(pair) for pair in outcome.rejection_reasons],
        }
        if isinstance(outcome, Found):
            record["chromosome"] = list(outcome.chromosome)
            record["certificate"] = certificate_json(outcome.certificate)
        records.append(record)
    return records


def batch_stats(records) -> dict:
    """Success count and rate of run_batch records, and the generation
    statistics of the found runs as a [generations, runs] histogram."""
    wins = [r["generations"] for r in records if r["outcome"] == "found"]
    hist: dict[int, int] = {}
    for g in wins:
        hist[g] = hist.get(g, 0) + 1
    return {
        "runs": len(records),
        "found": len(wins),
        "success_rate": len(wins) / len(records) if records else 0.0,
        "mean_generations": statistics.fmean(wins) if wins else None,
        "median_generations": statistics.median(wins) if wins else None,
        "histogram": [list(pair) for pair in sorted(hist.items())],
    }


def standard_suite() -> list[tuple[str, DefaultTheory, GaParams, int]]:
    """(name, theory, params, repetitions) rows for the stock benchmark."""
    return [
        ("nixon", build_nixon(),
         GaParams(population_size=16, max_generations=50, rng_seed=0), 5),
        ("ham-triangle", build_hamiltonian(3, complete_arcs(3)),
         GaParams(population_size=60, max_generations=80, rng_seed=0), 5),
        ("ham-two-loops", two_loops_demo(),
         GaParams(population_size=60, max_generations=25, rng_seed=0), 3),
    ]
