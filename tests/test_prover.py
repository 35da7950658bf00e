"""Refutation prover: frozen verdicts, oracle agreement, budget behavior."""

import random
import sys

import pytest

from gadel.formulas import parse_theory
from gadel import prover
from gadel.program import compile_theory
from gadel.prover import CandidateQuerySession, DEFAULT_BUDGET, ProofBudget, ProofOutcome
from oracles import raw_groups, refute_clauses, truth_table_unsat


def cl(heads, body=()):
    """The clause heads <- body over atom ids, as (heads, body) masks."""
    return sum(1 << h for h in set(heads)), sum(1 << b for b in set(body))


def test_empty_and_unit():
    assert refute_clauses([]) is ProofOutcome.NOT_PROVED
    assert refute_clauses([cl((0,))]) is ProofOutcome.NOT_PROVED
    # a together with the constraint <- a
    assert refute_clauses([cl((0,)), cl((), (0,))]) is ProofOutcome.PROVED


def test_definite_chain():
    # a. b <- a. c <- b. <- c
    chain = [cl((0,)), cl((1,), (0,)), cl((2,), (1,)), cl((), (2,))]
    assert refute_clauses(chain) is ProofOutcome.PROVED
    # drop the fact: consistent
    assert refute_clauses(chain[1:]) is ProofOutcome.NOT_PROVED


def test_cyclic_program_terminates():
    # a <- b. b <- a. <- a   (no facts: consistent)
    cyc = [cl((0,), (1,)), cl((1,), (0,)), cl((), (0,))]
    assert refute_clauses(cyc) is ProofOutcome.NOT_PROVED
    assert not truth_table_unsat(cyc, 2)


def test_case_split_needed():
    # a | b.  <- a.  <- b   is unsatisfiable
    clauses = [cl((0, 1)), cl((), (0,)), cl((), (1,))]
    assert refute_clauses(clauses) is ProofOutcome.PROVED
    # a | b with only <- a is satisfiable (pick b)
    assert refute_clauses([cl((0, 1)), cl((), (0,))]) is ProofOutcome.NOT_PROVED


def test_disjunction_with_shared_case():
    # a | b. c <- a. c <- b. <- c
    clauses = [cl((0, 1)), cl((2,), (0,)), cl((2,), (1,)), cl((), (2,))]
    assert refute_clauses(clauses) is ProofOutcome.PROVED


def test_tautological_clause_ignored():
    assert refute_clauses([cl((0,), (0,)), cl((), (1,))]) is ProofOutcome.NOT_PROVED


def random_clauses(rng, atom_count, n_clauses, max_disj):
    out = []
    disj_left = max_disj
    for _ in range(n_clauses):
        size = rng.randint(0, 3)
        atoms = rng.sample(range(atom_count), min(atom_count, size + rng.randint(0, 2)))
        rng.shuffle(atoms)
        if disj_left > 0 and rng.random() < 0.35 and len(atoms) >= 2:
            k = 2
            disj_left -= 1
        else:
            k = min(len(atoms), rng.randint(0, 1))
        out.append(cl(atoms[:k], atoms[k:]))
    return out


def test_oracle_agreement_random():
    rng = random.Random(77)
    wide = ProofBudget(max_depth=200_000, max_splits=4096)
    default_hits = 0
    for _ in range(600):
        atom_count = rng.randint(1, 10)
        clauses = random_clauses(rng, atom_count, rng.randint(1, 12), 3)
        got = refute_clauses(clauses)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            default_hits += 1
            got = refute_clauses(clauses, wide)
        want = truth_table_unsat(clauses, atom_count)
        assert (got is ProofOutcome.PROVED) == want, clauses
    # a handful of adversarial instances may outgrow the default caps,
    # but they stay rare and the wide budget settles each one
    assert default_hits <= 12


def test_shortcuts_never_change_verdicts():
    # whichever path decides (forward chaining or model generation), the
    # verdict is the truth table's
    rng = random.Random(101)
    for _ in range(300):
        atom_count = rng.randint(1, 8)
        clauses = random_clauses(rng, atom_count, rng.randint(1, 10), 2)
        got = refute_clauses(clauses)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            continue
        assert (got is ProofOutcome.PROVED) == truth_table_unsat(clauses, atom_count), clauses


def test_budget_exhaustion_and_monotonicity():
    # pigeonhole-flavored blowup: many two-atom disjunctions, all pairs banned
    atoms = 12
    clauses = [cl((2 * i, 2 * i + 1)) for i in range(atoms // 2)]
    for i in range(atoms):
        for j in range(i + 1, atoms):
            clauses.append(cl((), (i, j)))
    tiny = refute_clauses(clauses, ProofBudget(max_depth=4, max_splits=1))
    assert tiny is ProofOutcome.BUDGET_EXHAUSTED
    big = refute_clauses(clauses, ProofBudget(max_depth=100_000, max_splits=4096))
    assert big in (ProofOutcome.PROVED, ProofOutcome.NOT_PROVED)
    assert big is refute_clauses(clauses, ProofBudget(max_depth=200_000, max_splits=8192))


def test_budget_validation():
    with pytest.raises(ValueError):
        ProofBudget(max_depth=0)
    with pytest.raises(ValueError):
        ProofBudget(max_splits=-1)


def test_prereq_and_justification_queries():
    # W={a}, D={ a:b/c , c:!a/d }
    th = parse_theory("w: a.\nd: a : b / c.\nd: c : !a / d.\n")
    program = compile_theory(th)
    nothing = CandidateQuerySession(program, 0)
    first = CandidateQuerySession(program, 0b1)
    prereq, justif = program.prereq_ids, program.justif_ids
    assert nothing.answer(prereq[0]) is ProofOutcome.PROVED
    assert nothing.answer(prereq[1]) is ProofOutcome.NOT_PROVED
    assert first.answer(prereq[1]) is ProofOutcome.PROVED
    # W ∪ {c} entails a, refuting justification !a of rule 2
    assert first.answer(justif[1][0]) is ProofOutcome.PROVED
    assert nothing.answer(justif[0][0]) is ProofOutcome.NOT_PROVED
    # consistency and atom entailment are query groups too
    assert first.answer(program.consistency_id) is ProofOutcome.NOT_PROVED
    entailed = [first.answer(q) is ProofOutcome.PROVED for q in program.atom_ids]
    assert dict(zip(program.atom_names, entailed)) == {"a": True, "b": False, "c": True,
                                                       "d": False}


def test_session_opens_on_a_rule_mask():
    # bit i-1 is rule i; any falsy value, frozenset() included, opens the
    # session of W alone, and a set of rule indices is refused
    th = parse_theory("w: a.\nd: a : b / c.\nd: c : !a / d.\n")
    program = compile_theory(th)
    for nothing in (0, frozenset()):
        session = CandidateQuerySession(program, nothing)
        assert session.answer(program.prereq_ids[1]) is ProofOutcome.NOT_PROVED
    assert CandidateQuerySession(program, 0b01).answer(program.prereq_ids[1]) \
        is ProofOutcome.PROVED
    with pytest.raises(TypeError):
        CandidateQuerySession(program, frozenset((1,)))


def test_consequent_with_a_chaining_clause_indexes_its_own_session():
    # rule 1's consequent !c || e is a one-head clause with a body, so only a
    # session applying rule 1 builds its own watch index; the others share
    # the world's, and the program's index stays as compiled
    th = parse_theory("w: a.\nw: !b || f.\nd: a : / !c || e.\nd: a : / c.\nd: a : / b.\n")
    program = compile_theory(th)
    assert program.watched_rules == 0b001
    world_watch = dict(program.world_watch)
    e = program.atom_ids[program.atom_names.index("e")]
    f = program.atom_ids[program.atom_names.index("f")]
    for applied, e_holds in [(0b011, True), (0b010, False), (0b001, False), (0b111, True)]:
        session = CandidateQuerySession(program, applied)
        assert session.answer(e) is (ProofOutcome.PROVED if e_holds else ProofOutcome.NOT_PROVED)
        assert session.answer(f) is (ProofOutcome.PROVED if applied & 0b100
                                     else ProofOutcome.NOT_PROVED)
        assert (session._base[3] is program.world_watch) == (not applied & 0b001)
    assert program.world_watch == world_watch


def test_inconsistent_candidate_answers_without_closure(monkeypatch):
    # W = {a, !a} fires a constraint by forward chaining alone, so every
    # query is PROVED before its group (the unit clause b of justification
    # b, the constraint <- a of prerequisite a) is closed over
    th = parse_theory("w: a.\nw: !a.\nd: a : b / c.\n")
    program = compile_theory(th)
    session = CandidateQuerySession(program, 0)
    calls = []
    propagate = prover._propagate

    def counted(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(prover, "_propagate", counted)
    for qid in range(len(program.query_groups)):
        assert session.answer(qid) is ProofOutcome.PROVED
    assert calls == []


def test_shared_query_group_is_decided_once(monkeypatch):
    # rules 1 and 2 share the prerequisite a (the group <- a), and rules 1
    # and 3 the justification b (the unit b.): asked twice each, the two
    # distinct groups reach _decide once each per session
    th = parse_theory("w: a.\nd: a : b / c.\nd: a : !c / d.\nd: c : b / e.\n")
    program = compile_theory(th)
    session = CandidateQuerySession(program, 0b1)
    prereq, justif = program.prereq_ids, program.justif_ids
    decided = []
    decide = prover._decide

    def counted(*args):
        decided.append(args)
        return decide(*args)

    monkeypatch.setattr(prover, "_decide", counted)
    for _ in range(2):
        assert session.answer(prereq[0]) is ProofOutcome.PROVED
        assert session.answer(prereq[1]) is ProofOutcome.PROVED
        assert session.answer(justif[0][0]) is ProofOutcome.NOT_PROVED
        assert session.answer(justif[2][0]) is ProofOutcome.NOT_PROVED
    assert len(decided) == 2


# (world and rule, query, outcome): literal and compound queries whose
# answer turns on the session's closure flags; "j" asks justification 1 of
# rule 1 and "p" its prerequisite
FLAG_CASES = [
    # the unit a grows the closure past the over-approximated one, where
    # both heads of x | y then fire a constraint: a case split proves it
    ("w: x || y.\nw: !(a && x).\nw: !(a && y).\nd: t : a / z.\n", "j", ProofOutcome.PROVED),
    # the closure satisfies every disjunctive clause until the unit c makes
    # the body of a | b <- c true
    ("w: !c || a || b.\nw: !a.\nw: !b.\nd: t : c / z.\n", "j", ProofOutcome.PROVED),
    ("w: !c || a || b.\nw: !a.\nd: t : c / z.\n", "j", ProofOutcome.NOT_PROVED),
    # constraints only: no base constraint fires on the over-approximated
    # closure, the query's <- x and <- y do
    ("w: x || y.\nd: x || y : / z.\n", "p", ProofOutcome.PROVED),
    ("w: x || y || v.\nd: x || y : / z.\n", "p", ProofOutcome.NOT_PROVED),
    # the unit a fires the base constraint <- a, b outside every closure
    ("w: b.\nw: !(a && b).\nd: t : a / z.\n", "j", ProofOutcome.PROVED),
    # the unit a is only in the over-approximated closure
    ("w: x || a.\nw: !a.\nd: t : a / z.\n", "j", ProofOutcome.PROVED),
    ("w: x || a.\nw: !(a && y).\nd: t : a / z.\n", "j", ProofOutcome.NOT_PROVED),
]


@pytest.mark.parametrize("text,query,want", FLAG_CASES)
def test_closure_flag_paths_match_reference(text, query, want):
    theory = parse_theory(text)
    program = compile_theory(theory)
    session = CandidateQuerySession(program, 0)
    world, _conclusion, prereq, justif = raw_groups(theory)
    if query == "j":
        got, group = session.answer(program.justif_ids[0][0]), justif[0][0]
    else:
        got, group = session.answer(program.prereq_ids[0]), prereq[0]
    clauses = list(world) + list(group)
    assert got is want is refute_clauses(clauses)
    assert (want is ProofOutcome.PROVED) == truth_table_unsat(clauses, program.atom_count)


# satisfiable, yet backward chaining with case splits needs 78 splits to
# show it, more than the default budget allows
FOUND_SET = [cl((0, 2, 3)), cl((), (0,)), cl((1,), (2,)), cl((1,)), cl((0, 1, 2)),
             cl((), (0, 1, 3)), cl((0, 2)), cl((1, 2))]


def test_small_satisfiable_set_decided_by_default_budget():
    got = refute_clauses(FOUND_SET, DEFAULT_BUDGET)
    assert got is ProofOutcome.NOT_PROVED
    assert not truth_table_unsat(FOUND_SET, 4)


def test_recursion_limit_left_alone():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # a | b.  c <- a.  c <- b.  <- c   needs a case split
        clauses = [cl((0, 1)), cl((2,), (0,)), cl((2,), (1,)), cl((), (2,))]
        assert refute_clauses(clauses) is ProofOutcome.PROVED
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_splits_only_on_relevant_clauses():
    # ten independent triples a_k | b_k, c_k <- a_k, c_k <- b_k, and <- c_10:
    # one split on a_10 | b_10 proves it; splitting on the first violated
    # clause instead would need far more
    clauses = []
    for k in range(10):
        a, b, c = 3 * k, 3 * k + 1, 3 * k + 2
        clauses += [cl((a, b)), cl((c,), (a,)), cl((c,), (b,))]
    clauses.append(cl((), (29,)))
    assert refute_clauses(clauses, ProofBudget(max_splits=1)) is ProofOutcome.PROVED


def test_truth_table_oracle_basics():
    assert truth_table_unsat([cl((), ())], 1)
    assert not truth_table_unsat([cl((0,))], 1)
    assert truth_table_unsat([cl((0,)), cl((), (0,))], 1)
