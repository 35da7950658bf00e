"""Penalty table, fitness, and the genetic loop."""

import math
import random
import sys

import pytest

from gadel.bench import build_hamiltonian, build_nixon, complete_arcs, two_loops_demo
from gadel.engine import (Exhausted, Found, GaParams, PenaltyTable,
                          UNIT_PENALTIES, _descend, _penalty, _select_parents,
                          _VerdictCache, evolve, fitness, initial_population)
from gadel.formulas import Atom, Not, make_theory, parse_theory, tautology
from gadel.program import compile_theory
from gadel.prover import DEFAULT_BUDGET, CandidateQuerySession, ProofBudget, ProofOutcome
from gadel import engine, verifier
from gadel.verifier import verify
from oracles import PENALTY_GRID, applied_rules, chromosome_of


def test_pair_penalty_unit_grid():
    # one rule: gene masks are the pair's bits, the row its two verdicts
    for pair, pre, ref, slot in PENALTY_GRID:
        want = 1.0 if slot else 0.0
        assert _penalty(UNIT_PENALTIES, pair[0], pair[1], (pre, 0, ref)) == want


def test_pair_penalty_random_weights():
    rng = random.Random(5)
    for _ in range(3):
        weights = {name: rng.uniform(0.1, 9.0)
                   for name in ("p2", "p3", "p4", "p5", "p9", "p13")}
        table = PenaltyTable(**weights)
        for pair, pre, ref, slot in PENALTY_GRID:
            want = weights[slot] if slot else 0.0
            assert _penalty(table, pair[0], pair[1], (pre, 0, ref)) == want


def test_penalty_table_rejects_nonpositive():
    with pytest.raises(ValueError):
        PenaltyTable(p3=0.0)
    with pytest.raises(ValueError):
        PenaltyTable(p13=-2.0)
    # nan <= 0 is false, so non-finite weights need their own check
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            PenaltyTable(p9=bad)


def fit(theory, applied_or_chrom, table=UNIT_PENALTIES):
    prog = compile_theory(theory)
    chrom = applied_or_chrom
    if not isinstance(chrom, tuple):
        chrom = chromosome_of(prog.n_defaults, chrom)
    return fitness(prog, chrom, table)


def test_fitness_single_default_rows():
    # candidate {a, c}: rule applicable, gene decides the charge
    t = parse_theory("w: a.\nd: a : b / c.")
    assert fit(t, {1}).total == 0.0
    assert fit(t, set()).total == 1.0       # applicable but unapplied
    assert fit(t, (1, 1)).total == 1.0
    assert fit(t, (0, 1)).total == 1.0
    # refuted justification: applying is charged, ignoring is free
    t2 = parse_theory("w: a.\nw: !b.\nd: a : b / c.")
    assert fit(t2, {1}).total == 1.0
    assert fit(t2, set()).total == 0.0
    # unprovable prerequisite
    t3 = parse_theory("d: a : b / c.")
    assert fit(t3, {1}).total == 1.0
    assert fit(t3, set()).total == 0.0
    # prerequisite open but justification already refuted
    t4 = parse_theory("w: !b.\nd: a : b / c.")
    assert fit(t4, {1}).total == 1.0
    assert fit(t4, set()).total == 0.0


def test_fitness_distinguishes_rows_by_weight():
    table = PenaltyTable(p2=2.0, p3=4.0, p4=8.0, p5=16.0, p9=32.0, p13=64.0)
    assert fit(parse_theory("w: a.\nw: !b.\nd: a : b / c."), {1}, table).total == 2.0
    assert fit(parse_theory("w: !b.\nd: a : b / c."), {1}, table).total == 4.0
    assert fit(parse_theory("d: a : b / c."), {1}, table).total == 8.0
    t = parse_theory("w: a.\nd: a : b / c.")
    assert fit(t, (1, 1), table).total == 16.0
    assert fit(t, (0, 1), table).total == 32.0
    assert fit(t, (0, 0), table).total == 64.0


def self_blocking_theory():
    # prerequisite-free rule whose consequent refutes its own justification
    return make_theory([], [(tautology(), [Atom("b")], Not(Atom("b")))])


def test_fitness_no_zero_for_self_blocking_rule():
    # applying refutes the justification, ignoring leaves the rule
    # applicable: all four gene states cost exactly one
    t = self_blocking_theory()
    for pair in ((1, 0), (0, 0), (1, 1), (0, 1)):
        assert fit(t, pair).total == 1.0


def test_fitness_scales_linearly():
    t = parse_theory("w: a.\nd: a : b / c.\nd: c : d / e.")
    table = PenaltyTable(p2=1.5, p3=2.5, p4=3.5, p5=4.5, p9=5.5, p13=6.5)
    tripled = PenaltyTable(p2=4.5, p3=7.5, p4=10.5, p5=13.5, p9=16.5, p13=19.5)
    rng = random.Random(9)
    for _ in range(20):
        chrom = tuple(rng.randrange(2) for _ in range(4))
        assert fit(t, chrom, tripled).total == pytest.approx(3 * fit(t, chrom, table).total)


def test_fitness_reports_budget_hits():
    # the prerequisite c follows from W only by a case split on a || b
    t = parse_theory("w: a || b.\nw: !a || c.\nw: !b || c.\nd: c : d / e.")
    prog = compile_theory(t)
    tiny = fitness(prog, (0, 0), budget=ProofBudget(max_depth=1, max_splits=1))
    assert tiny.budget_hits > 0
    full = fitness(prog, (0, 0))
    assert full.budget_hits == 0
    assert full.total == 1.0  # decided: applicable but unapplied


def test_fitness_counts_an_undecided_consistency_as_a_budget_hit():
    # three pigeons in two holes: W is unsatisfiable, but showing it takes
    # more than one split, so the row decides every rule query and leaves
    # only the consistency open, which consistent() reads as "no"
    world = ["w: p%da || p%db." % (p, p) for p in (1, 2, 3)]
    world += ["w: !p%d%s || !p%d%s." % (p, h, q, h)
              for h in "ab" for p, q in ((1, 2), (1, 3), (2, 3))]
    prog = compile_theory(parse_theory("\n".join(world + ["d: t || !t : / c."])))
    one_split = ProofBudget(max_depth=100, max_splits=1)
    cache = _VerdictCache(prog, one_split)
    assert cache.verdicts(1) == (1, 0, 0, (), ProofOutcome.BUDGET_EXHAUSTED)
    assert not cache.consistent(1)
    for chrom in ((1, 0), (0, 0)):
        assert fitness(prog, chrom, budget=one_split).budget_hits == 1


def test_fitness_rejects_wrong_length():
    t = parse_theory("w: a.\nd: a : b / c.")
    prog = compile_theory(t)
    with pytest.raises(ValueError):
        fitness(prog, (1, 0, 0))


def test_fitness_and_verify_reject_non_binary_bits():
    # a bit of 2 would spill into the next rule's mask; fitness refuses it,
    # and verify, which takes rule indices, reads no bits at all
    t = parse_theory("w: a.\nd: a : b / c.\nd: a : / d.")
    prog = compile_theory(t)
    for bad in ((2, 0, 0, 0), (1, 0, 0, 2), (0, -1, 1, 0)):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            fitness(prog, bad)


def test_fitness_report_applied():
    t = parse_theory("w: a.\nd: a : b / c.\nd: e : !c / f.")
    prog = compile_theory(t)
    cache = _VerdictCache(prog, DEFAULT_BUDGET)
    rep = fitness(prog, (1, 0, 1, 1), _cache=cache)
    assert rep.total == 0.0 and rep.budget_hits == 0
    assert rep.applied == 0b01  # rule mask: bit 0 is rule 1
    # the row behind it: rule 1's prerequisite proved (bit 0), nothing left
    # undecided, rule 2's justification !c refuted by c (bit 1), no
    # justification left undecided, and the candidate {a, c} consistent, as a
    # fresh session says
    assert cache.verdicts(rep.applied) == (0b01, 0, 0b10, (), ProofOutcome.NOT_PROVED)
    fresh = CandidateQuerySession(prog, rep.applied)
    assert cache.verdicts(rep.applied)[4] is fresh.answer(prog.consistency_id)
    assert fitness(prog, (0, 1, 1, 0), _cache=cache).applied == 0b10


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population_size=0)
    with pytest.raises(ValueError):
        GaParams(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaParams(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GaParams(max_generations=0)
    with pytest.raises(ValueError):
        GaParams(restart_after=0)
    with pytest.raises(ValueError):
        GaParams(selection_fraction=0.0)


def test_initial_population_saturates_small_space():
    population = initial_population(1, 10, random.Random(0))
    assert sorted(population) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_initial_population_distinct_and_seeded():
    a = sorted(initial_population(5, 32, random.Random(7)))
    b = sorted(initial_population(5, 32, random.Random(7)))
    c = sorted(initial_population(5, 32, random.Random(8)))
    assert len(a) == 32 and len(set(a)) == 32
    assert a == b
    assert a != c


def select_fixture():
    t = parse_theory("w: w.\nd: w : t / a.\nd: w : t / !a.\nd: w : u / b.")
    prog = compile_theory(t)
    cache = _VerdictCache(prog, DEFAULT_BUDGET)
    def rep(applied):
        return fitness(prog, chromosome_of(3, applied), _cache=cache)
    return prog, cache, rep


def test_select_parents_reserves_consistent_candidates():
    prog, cache, rep = select_fixture()
    clash = rep({1, 2})     # a and !a together: cheap but inconsistent
    empty = rep(set())
    assert clash.total == 2.0 and empty.total == 3.0
    chosen = _select_parents([clash, empty], 2, cache)
    # the consistent candidate owns the reserved first slot despite ranking worse
    assert chosen == [empty.chromosome, clash.chromosome]


def test_select_parents_one_per_applied_set():
    prog, cache, rep = select_fixture()
    plain = rep({1})
    styled = fitness(prog, (1, 0, 0, 1, 0, 0), _cache=cache)  # same applied set
    empty = rep(set())
    chosen = _select_parents([plain, styled, empty], 3, cache)
    # the restyled twin only enters once every distinct applied set is in
    assert chosen == [plain.chromosome, empty.chromosome, styled.chromosome]


def test_scored_set_answers_consistency_without_a_session(monkeypatch):
    # consistency is part of the verdict row, so once fitness has scored a
    # chromosome, selection and polish ask no prover about its applied set
    prog, cache, rep = select_fixture()
    scored = [rep({1, 2}), rep({1}), rep(set())]
    opened = []
    monkeypatch.setattr(verifier, "CandidateQuerySession",
                        lambda *args: opened.append(args) or CandidateQuerySession(*args))
    assert [cache.consistent(r.applied) for r in scored] == [False, True, True]
    assert opened == []


def test_descend_crosses_equal_fitness_ridge():
    t = parse_theory("w: a.\nd: a : b / c.\nd: c : d / e.")
    prog = compile_theory(t)
    cache = _VerdictCache(prog, DEFAULT_BUDGET)
    # empty and {1} both score 1.0, so only a sideways move reaches {1, 2}
    got = _descend(0, UNIT_PENALTIES, cache)
    assert got == 0b011


def test_descend_skips_inconsistent_neighbours():
    prog, cache, rep = select_fixture()
    got = _descend(0, UNIT_PENALTIES, cache)
    # the clashing pair is never entered; the walk settles beside it
    assert got == 0b101
    assert cache.consistent(got)


def test_evolve_empty_rule_set():
    t = make_theory([Atom("a")], [])
    out = evolve(compile_theory(t), t, GaParams(population_size=4, rng_seed=0))
    assert isinstance(out, Found)
    assert out.generations_used == 1
    assert out.certificate.applied == frozenset()
    assert out.certificate.extension_atoms == ("a",)


def test_evolve_nixon_deterministic():
    t = build_nixon()
    params = GaParams(population_size=16, max_generations=50, rng_seed=3)
    first = evolve(compile_theory(t), t, params)
    second = evolve(compile_theory(t), t, params)
    assert isinstance(first, Found)
    assert first.chromosome == second.chromosome
    assert first.generations_used == second.generations_used
    assert first.certificate.applied in (frozenset({1}), frozenset({2}))


def test_found_certificates_reverify_from_their_applied_sets():
    # the certificate a search returns is what verify gives its applied set
    # alone, and that set is the chromosome's (1, 0) pairs
    for theory, size in [(build_nixon(), 16), (build_hamiltonian(4, complete_arcs(4)), 60)]:
        program = compile_theory(theory)
        for seed in range(5):
            out = evolve(program, theory, GaParams(population_size=size, rng_seed=seed))
            assert isinstance(out, Found)
            assert out.certificate.applied == applied_rules(out.chromosome)
            assert verify(theory, out.certificate.applied) == out.certificate


def _applied_pairs(*rules):
    return tuple(bit for i in range(1, 26) for bit in ((1, 0) if i in rules else (0, 0)))


# (generations, restarts, chromosome) of evolve on K5 for seeds 0-4: seeded
# trajectories are part of the contract, so any change to the RNG draw order,
# the population's order or the verdicts shows up here
K5_TRAJECTORIES = [
    (19, 3, _applied_pairs(1, 6, 12, 13, 20)),
    (14, 2, _applied_pairs(3, 8, 9, 14, 19)),
    (7, 1, (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1,
            0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1)),
    (31, 5, _applied_pairs(3, 5, 10, 16, 19)),
    (22, 3, _applied_pairs(3, 8, 9, 14, 19)),
]


def test_evolve_k5_trajectories_pinned():
    theory = build_hamiltonian(5, complete_arcs(5))
    program = compile_theory(theory)
    for seed, expected in enumerate(K5_TRAJECTORIES):
        out = evolve(program, theory,
                     GaParams(population_size=100, restart_after=6, rng_seed=seed))
        assert isinstance(out, Found)
        assert (out.generations_used, out.restarts_used, out.chromosome) == expected


def test_evolve_finds_two_rule_theory_in_one_generation():
    # 16 chromosomes saturate the space, so the winner is already present
    t = parse_theory("w: a.\nd: a : b / c.\nd: c : d / e.")
    out = evolve(compile_theory(t), t, GaParams(population_size=16, rng_seed=1))
    assert isinstance(out, Found)
    assert out.generations_used == 1
    assert out.certificate.applied == frozenset({1, 2})
    assert out.certificate.extension_atoms == ("a", "c", "e")


def test_evolve_exhausts_when_no_zero_exists():
    t = self_blocking_theory()
    out = evolve(compile_theory(t), t,
                 GaParams(population_size=8, max_generations=3, rng_seed=0))
    assert isinstance(out, Exhausted)
    assert out.generations_used == 3
    assert out.best.total == 1.0
    assert dict(out.rejection_reasons) == {}


def test_evolve_restart_cadence():
    # restarts fire every restart_after generations until something is found
    t = self_blocking_theory()
    out = evolve(compile_theory(t), t,
                 GaParams(population_size=8, max_generations=7, restart_after=2,
                          rng_seed=0))
    assert isinstance(out, Exhausted)
    assert out.generations_used == 7
    assert out.restarts_used == 3


def test_evolve_rejects_ungrounded_candidates():
    t = two_loops_demo()
    out = evolve(compile_theory(t), t,
                 GaParams(population_size=60, max_generations=25, rng_seed=0))
    assert isinstance(out, Exhausted)
    assert dict(out.rejection_reasons).get("ungrounded", 0) > 0


def test_evolve_rejects_weights_that_can_overflow_the_total():
    t = build_nixon()
    program = compile_theory(t)
    n = program.n_defaults
    # the largest weight whose doubled total over n rules is finite still runs
    top = sys.float_info.max / (2 * n)
    while not math.isfinite(2 * n * top):
        top = math.nextafter(top, 0.0)
    heavy = PenaltyTable(*[top] * 6)
    out = evolve(program, t, GaParams(population_size=16, rng_seed=0), heavy)
    assert isinstance(out, Found)
    assert fitness(program, (1, 1, 1, 1), heavy).total == 2 * top
    with pytest.raises(ValueError, match="could overflow"):
        evolve(program, t, GaParams(), PenaltyTable(*[math.nextafter(top, math.inf)] * 6))


def test_evolve_generation_callback():
    t = self_blocking_theory()
    seen = []
    out = evolve(compile_theory(t), t,
                 GaParams(population_size=8, max_generations=3, rng_seed=0),
                 on_generation=lambda *row: seen.append(row))
    assert isinstance(out, Exhausted)
    assert [row[0] for row in seen] == [1, 2, 3]
    gen, best, mean, size, restarts = seen[0]
    assert best == 1.0 and mean == 1.0
    assert size == 4        # only four distinct chromosomes exist
    assert restarts == 0


def test_evolve_scores_each_survivor_once(monkeypatch):
    # only four chromosomes exist, so every generation keeps all four: the
    # first generation scores them and the next two reuse those reports
    t = self_blocking_theory()
    scored = []
    score = fitness
    monkeypatch.setattr(engine, "fitness",
                        lambda program, chrom, *args, **kw:
                        scored.append(chrom) or score(program, chrom, *args, **kw))
    out = evolve(compile_theory(t), t,
                 GaParams(population_size=4, max_generations=3, restart_after=10, rng_seed=0))
    assert isinstance(out, Exhausted)
    assert out.generations_used == 3
    assert sorted(scored) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_parameter_records_validate_on_every_construction_path():
    # _replace and _make build a new record, so they check it like the constructor
    for record, bad, message in (
            (GaParams(), {"population_size": 0}, "population_size"),
            (GaParams(), {"selection_fraction": 1.5}, "selection_fraction"),
            (PenaltyTable(), {"p9": float("nan")}, "positive and finite"),
            (PenaltyTable(), {"p13": -2.0}, "positive and finite"),
            (ProofBudget(), {"max_splits": 0}, "budget limits"),
            (ProofBudget(), {"max_depth": -1}, "budget limits")):
        with pytest.raises(ValueError, match=message):
            type(record)(**bad)
        with pytest.raises(ValueError, match=message):
            record._replace(**bad)
        with pytest.raises(ValueError, match=message):
            type(record)._make([bad.get(f, v) for f, v in zip(record._fields, record)])
    assert GaParams()._replace(rng_seed=7) == GaParams(rng_seed=7)
    assert max(PenaltyTable(p4=3.0)) == 3.0
