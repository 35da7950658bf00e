"""Refutation prover: frozen verdicts, oracle agreement, budget behavior."""

import random
import sys

import pytest

from gadel.formulas import Clause, parse_theory
from gadel.program import compile_theory
from gadel.prover import (CandidateQuerySession, DEFAULT_BUDGET, ProofBudget,
                          ProofOutcome, refute_clauses)
from oracles import truth_table_unsat


def cl(heads, body=()):
    return Clause(frozenset(heads), frozenset(body))


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
    nothing = CandidateQuerySession(program, frozenset())
    first = CandidateQuerySession(program, frozenset((1,)))
    assert nothing.prereq_proved(1) is ProofOutcome.PROVED
    assert nothing.prereq_proved(2) is ProofOutcome.NOT_PROVED
    assert first.prereq_proved(2) is ProofOutcome.PROVED
    # W ∪ {c} entails a, refuting justification !a of rule 2
    assert first.justification_refuted(2, 1) is ProofOutcome.PROVED
    assert nothing.justification_refuted(1, 1) is ProofOutcome.NOT_PROVED


def test_session_rejects_out_of_range_indices():
    th = parse_theory("w: a.\nd: a : b / c.\nd: c : !a / d.\n")
    program = compile_theory(th)
    session = CandidateQuerySession(program, frozenset())
    for i in (0, -1, 3):
        with pytest.raises(IndexError):
            session.prereq_proved(i)
        with pytest.raises(IndexError):
            session.justification_refuted(i, 1)
    for j in (0, -1, 2):
        with pytest.raises(IndexError):
            session.justification_refuted(1, j)
    for aid in (-1, program.atom_count, 100):
        with pytest.raises(IndexError):
            session.entails_atom(aid)


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
