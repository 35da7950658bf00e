"""Acceptance gate: eight criteria, one verdict line each (run pytest -s to see them)."""

import itertools
import json
import random
import re
import subprocess
import sys
import time

import pytest

from gadel.bench import (batch_stats, build_hamiltonian, build_nixon,
                         build_people, complete_arcs, run_batch,
                         two_loops_demo)
from gadel.engine import (GaParams, PenaltyTable, UNIT_PENALTIES,
                          _penalty, _VerdictCache, fitness)
from gadel.formulas import And, Atom, Not, Or, atoms_of, make_theory, tautology
from gadel.program import compile_theory
from gadel.prover import DEFAULT_BUDGET, CandidateQuerySession, ProofBudget, ProofOutcome
from gadel.verifier import (ExtensionCertificate, certificate_json, enumerate_extensions,
                            verify)
from oracles import (PENALTY_GRID, active_clauses, applied_rules, bits, raw_groups,
                     rule_mask, truth_table_unsat)

WIDE = ProofBudget(max_depth=200_000, max_splits=4096)


def _verdict(num, ok, detail):
    print("[criterion %d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


# --------------------------------------------------------------- criterion 1


def _query_theory(rng):
    pool = ["a", "b", "c", "d", "e", "f", "g", "h"][: rng.randint(2, 8)]

    def lit():
        a = Atom(rng.choice(pool))
        return Not(a) if rng.random() < 0.4 else a

    def form():
        r = rng.random()
        if r < 0.3:
            return Or(lit(), lit())
        if r < 0.5:
            return And(lit(), lit())
        return lit()

    world = [form() for _ in range(rng.randint(0, 3))]
    defaults = []
    for _ in range(rng.randint(1, 4)):
        prereq = tautology() if rng.random() < 0.1 else form()
        justs = [form() for _ in range(rng.randint(0, 2))]
        defaults.append((prereq, justs, form()))
    return make_theory(world, defaults)


def test_criterion_1_prover_matches_oracle():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    total = mismatches = hits = with_split = 0
    while total < 520:
        theory = _query_theory(rng)
        program = compile_theory(theory)
        if program.atom_count > 12:
            continue
        n = program.n_defaults
        _world, _conclusion, prereq, justif = raw_groups(theory)
        chrom = tuple(rng.randint(0, 1) for _ in range(2 * n))
        i = rng.randint(1, n)
        justs = justif[i - 1]
        if justs and rng.random() < 0.5:
            j = rng.randint(1, len(justs))
            group, qid = justs[j - 1], program.justif_ids[i - 1][j - 1]
        else:
            # the prerequisite query
            group, qid = prereq[i - 1], program.prereq_ids[i - 1]
        active = active_clauses(theory, chrom) + list(group)
        if sum(1 for hm, _bm in active if len(bits(hm)) >= 2) > 3:
            continue
        total += 1
        if any(len(bits(hm)) >= 2 for hm, _bm in active):
            with_split += 1
        session = CandidateQuerySession(program, rule_mask(applied_rules(chrom)), WIDE)
        got = session.answer(qid)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            hits += 1
            continue
        if (got is ProofOutcome.PROVED) != truth_table_unsat(active, program.atom_count):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    detail = ("%d guarded queries (%d with disjunctive clauses), %d oracle "
              "mismatches, %d budget hits, %.1fs" %
              (total, with_split, mismatches, hits, elapsed))
    _verdict(1, mismatches == 0 and hits / total < 0.01 and elapsed < 60, detail)


# --------------------------------------------------------------- criterion 2


def _tiny_theory(rng):
    pool = ["a", "b", "c", "d"][: rng.randint(2, 4)]

    def lit():
        a = Atom(rng.choice(pool))
        return Not(a) if rng.random() < 0.35 else a

    def form():
        r = rng.random()
        if r < 0.2:
            return Or(lit(), lit())
        if r < 0.35:
            return And(lit(), lit())
        return lit()

    world = [lit() for _ in range(rng.randint(0, 2))]
    defaults = []
    target = rng.randint(1, 3)
    if world and len(pool) >= 2 and rng.random() < 0.25:
        # a contrary pair hanging off the first fact: the clash shape that
        # produces multiple extensions
        free = [p for p in pool if p not in atoms_of(world[0])] or pool
        x = Atom(rng.choice(free))
        defaults.append((world[0], [x], x))
        defaults.append((world[0], [Not(x)], Not(x)))
        target = max(target, 2)
    while len(defaults) < target:
        if world and rng.random() < 0.4:
            prereq = rng.choice(world)
        else:
            prereq = form()
        conseq = form()
        if rng.random() < 0.35:
            justs = [conseq]  # normal rule: blocks its own contraries
        else:
            justs = [form() for _ in range(rng.randint(0, 1))]
        defaults.append((prereq, justs, conseq))
    return make_theory(world, defaults)


def test_criterion_2_zero_fitness_candidates_match_enumeration():
    rng = random.Random(7)
    t0 = time.perf_counter()
    bad = ungrounded = zero_total = multi = 0
    for _ in range(220):
        theory = _tiny_theory(rng)
        program = compile_theory(theory)
        n = program.n_defaults
        cache = _VerdictCache(program, DEFAULT_BUDGET)
        certified = set()
        judged = {}
        for chrom in itertools.product((0, 1), repeat=2 * n):
            if fitness(program, chrom, _cache=cache).total != 0:
                continue
            zero_total += 1
            key = frozenset(i for i in range(1, n + 1)
                            if chrom[2 * i - 2:2 * i] == (1, 0))
            if key not in judged:
                judged[key] = verify(theory, key, _cache=_VerdictCache(program, DEFAULT_BUDGET))
            res = judged[key]
            if isinstance(res, ExtensionCertificate):
                certified.add(res.applied)
            elif res.reason == "ungrounded":
                ungrounded += 1
        enum_sets = {c.applied for c in enumerate_extensions(theory)}
        # applied-set equality IS the closure-equality bijection here: an
        # applied set determines its candidate theory
        if certified != enum_sets:
            bad += 1
        if len(enum_sets) > 1:
            multi += 1
    elapsed = time.perf_counter() - t0
    detail = ("220 theories (%d with several extensions), %d zero-fitness "
              "candidates, %d corpus mismatches, %d rejected for groundedness, "
              "%.1fs" % (multi, zero_total, bad, ungrounded, elapsed))
    _verdict(2, bad == 0 and ungrounded >= 1 and elapsed < 300, detail)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_penalty_grid():
    checked = 0
    for pair, pre, ref, slot in PENALTY_GRID:
        want = 1.0 if slot else 0.0
        # one rule: gene masks are the pair's bits, the row its two verdicts
        assert _penalty(UNIT_PENALTIES, pair[0], pair[1], (pre, 0, ref)) == want
        checked += 1
    rng = random.Random(17)
    for _ in range(3):
        weights = {name: rng.uniform(0.1, 9.0)
                   for name in ("p2", "p3", "p4", "p5", "p9", "p13")}
        table = PenaltyTable(**weights)
        for pair, pre, ref, slot in PENALTY_GRID:
            want = weights[slot] if slot else 0.0
            assert _penalty(table, pair[0], pair[1], (pre, 0, ref)) == want
            checked += 1
    _verdict(3, checked == 64, "all 16 rows, unit weights plus 3 random "
                               "weight vectors (%d cells)" % checked)


# ------------------------------------------------------------ criteria 4, 5

# reference mean generation counts for this benchmark family; the gate
# itself only pins success rates and medians
REFERENCE_MEANS = {"boy": 3.3, "girl": 3.4, "man": 3.5, "woman": 3.0,
                   "man+student": 186.7, "woman+student": 271.6}

FACT_SETS = [("boy", ("boy",)), ("girl", ("girl",)), ("man", ("man",)),
             ("woman", ("woman",)), ("man+student", ("man", "student")),
             ("woman+student", ("woman", "student"))]

# The seeded trajectories of criteria 4 and 5, pinned so that a change to
# the search cannot move them unnoticed; a change that moves them on
# purpose re-pins them and says so.  Criterion 4: generations per seed
# 0-19, never a restart (restart_after equals max_generations).
TRAJECTORIES_4 = {
    "boy": (1,) * 20, "girl": (1,) * 20, "man": (1,) * 20,
    "woman": (1,) * 13 + (6,) + (1,) * 6,
    "man+student": (135, 51, 274, 149, 1, 189, 56, 138, 161, 187,
                    218, 198, 73, 57, 258, 43, 1, 96, 1, 119),
    "woman+student": (97, 93, 133, 84, 155, 116, 96, 91, 61, 115,
                      94, 86, 57, 62, 89, 78, 137, 36, 57, 66),
}
# Criterion 5: (generations, restarts) of the seeds not found in
# generation 1 without a restart, and the histogram they give
TRAJECTORIES_5 = {22: (7, 1), 68: (3, 0), 81: (7, 1), 105: (5, 0), 115: (5, 0),
                  137: (6, 0), 144: (7, 1), 145: (5, 0), 153: (7, 1), 178: (4, 0),
                  190: (5, 0)}
HISTOGRAM_5 = [[1, 189], [3, 1], [4, 1], [5, 4], [6, 1], [7, 4]]


@pytest.mark.slow
def test_criterion_4_people_benchmark():
    # restart_after=500 (that is, off): the compound fact sets need one
    # long run, not windows of six generations
    params = GaParams(population_size=325, crossover_rate=0.8,
                      mutation_rate=0.1, max_generations=500,
                      restart_after=500)
    ok = True
    lines = []
    runs = {}
    outside = []  # certificates missing from the complete enumeration
    for name, facts in FACT_SETS:
        theory = build_people(facts)
        complete = [certificate_json(c) for c in enumerate_extensions(theory)]
        records = run_batch(theory, params, 20, name=name)
        outside += [(name, r["seed"]) for r in records
                    if r["outcome"] == "found" and r["certificate"] not in complete]
        st = batch_stats(records)
        single = "+" not in name
        good = st["found"] >= 18 and (not single or st["median_generations"] <= 30)
        ok = ok and good
        lines.append("%s %d/20 median %s (reference mean %.1f)"
                     % (name, st["found"], st["median_generations"],
                        REFERENCE_MEANS[name]))
        runs[name] = [(r["seed"], r["generations"], r["restarts"]) for r in records]
    _verdict(4, ok, "; ".join(lines))
    assert outside == []
    assert runs == {name: [(seed, g, 0) for seed, g in enumerate(gens)]
                    for name, gens in TRAJECTORIES_4.items()}


@pytest.mark.slow
def test_criterion_5_fast_convergence_histogram():
    params = GaParams(population_size=153, crossover_rate=0.8,
                      mutation_rate=0.1, max_generations=500, restart_after=6)
    theory = build_people(("man",))
    complete = [certificate_json(c) for c in enumerate_extensions(theory)]
    records = run_batch(theory, params, 200, name="man")
    st = batch_stats(records)
    wins = [r["generations"] for r in records if r["outcome"] == "found"]
    within = sum(1 for g in wins if g <= 10)
    print("  criterion 5 histogram (generations: runs): %s"
          % ", ".join("%d: %d" % tuple(row) for row in st["histogram"]))
    detail = ("%d/200 found, %d of %d successes within 10 generations "
              "(reference: 80%% within 6)" % (st["found"], within, len(wins)))
    _verdict(5, st["found"] > 0 and within >= len(wins) / 2, detail)
    assert all(r["certificate"] in complete for r in records if r["outcome"] == "found")
    assert [(r["seed"], r["generations"], r["restarts"]) for r in records] == [
        (seed, *TRAJECTORIES_5.get(seed, (1, 0))) for seed in range(200)]
    assert st["histogram"] == HISTOGRAM_5


# --------------------------------------------------------------- criterion 6


def test_criterion_6_known_answer_extensions():
    nixon = len(enumerate_extensions(build_nixon()))
    blocked = make_theory([], [(tautology(), [Atom("b")], Not(Atom("b")))])
    self_block = len(enumerate_extensions(blocked))
    rng = random.Random(13)
    always = 0
    for _ in range(50):
        pool = ["a", "b", "c", "d", "e", "f"][: rng.randint(2, 6)]

        def lit():
            a = Atom(rng.choice(pool))
            return Not(a) if rng.random() < 0.4 else a

        def form():
            r = rng.random()
            if r < 0.25:
                return Or(lit(), lit())
            if r < 0.45:
                return And(lit(), lit())
            return lit()

        # consistent certain knowledge: at most one literal per atom
        signs = {}
        for _ in range(rng.randint(0, 3)):
            signs.setdefault(rng.choice(pool), rng.random() < 0.5)
        world = [Atom(k) if v else Not(Atom(k)) for k, v in sorted(signs.items())]
        defaults = []
        for _ in range(rng.randint(1, 5)):
            g = form()
            defaults.append((form(), [g], g))
        if len(enumerate_extensions(make_theory(world, defaults))) >= 1:
            always += 1
    detail = ("clash pair %d extensions, self-blocking rule %d, %d/50 normal "
              "theories with at least one" % (nixon, self_block, always))
    _verdict(6, nixon == 2 and self_block == 0 and always == 50, detail)


# --------------------------------------------------------------- criterion 7

NIXON_TEXT = """# the classic clash pair
w: republican.
w: quaker.
d: republican : !pacifist / !pacifist.
d: quaker : pacifist / pacifist.
"""


def test_criterion_7_bench_determinism(tmp_path):
    path = tmp_path / "nixon.dt"
    path.write_text(NIXON_TEXT)
    cmd = [sys.executable, "-m", "gadel.cli", "bench", str(path),
           "--reps", "5", "--seed", "11", "--json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)

    def flatten(out):
        return re.sub(r'"wall_ms": [0-9eE.+-]+', '"wall_ms": 0', out)

    identical = (first.returncode == second.returncode == 0
                 and flatten(first.stdout) == flatten(second.stdout))
    doc = json.loads(first.stdout)
    detail = ("two invocations, %d bytes of JSON, byte-identical once "
              "wall_ms is masked, %d/%d found"
              % (len(first.stdout), doc["stats"]["found"], doc["stats"]["runs"]))
    _verdict(7, identical and doc["stats"]["runs"] == 5, detail)


# --------------------------------------------------------------- criterion 8


def test_criterion_8_groundedness_rejection_counter():
    triangle = build_hamiltonian(3, complete_arcs(3))
    n_tri = len(enumerate_extensions(triangle))
    counts = {}
    for name, theory, params in (
        ("triangle", triangle, GaParams(population_size=60, max_generations=80)),
        ("two-loops", two_loops_demo(), GaParams(population_size=60, max_generations=25)),
    ):
        records = run_batch(theory, params, 20, name=name)
        counts[name] = sum(dict(r["rejection_reasons"]).get("ungrounded", 0)
                           for r in records)
    # on the triangle every zero-fitness applied set is a real extension
    # (checked by enumeration), so the counter can only move on a graph
    # with a spurious zero-fitness cover; the two disjoint loops provide it
    detail = ("triangle: %d extensions, %d ungrounded rejections in 20 runs; "
              "two-loops: %d ungrounded rejections in 20 runs"
              % (n_tri, counts["triangle"], counts["two-loops"]))
    _verdict(8, n_tri == 2 and counts["two-loops"] > 0, detail)
