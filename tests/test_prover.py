"""Refutation prover: frozen verdicts, oracle agreement, budget behavior."""

import random

import pytest

from gadel.formulas import Clause, parse_theory
from gadel.program import compile_theory, justif_query, prereq_query
from gadel.prover import (CandidateQuerySession, DEFAULT_BUDGET, ProofBudget,
                          ProofOutcome, refute, refute_clauses, truth_table_unsat)


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
    assert refute_clauses(cyc, use_shortcuts=False) is ProofOutcome.NOT_PROVED


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
    rng = random.Random(101)
    for _ in range(300):
        atom_count = rng.randint(1, 8)
        clauses = random_clauses(rng, atom_count, rng.randint(1, 10), 2)
        fast = refute_clauses(clauses)
        slow = refute_clauses(clauses, use_shortcuts=False)
        if ProofOutcome.BUDGET_EXHAUSTED in (fast, slow):
            continue
        assert fast is slow, clauses


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
    nothing = (0, 0, 0, 0)
    first = (1, 0, 0, 0)
    assert refute(program, nothing, prereq_query(1)) is ProofOutcome.PROVED
    assert refute(program, nothing, prereq_query(2)) is ProofOutcome.NOT_PROVED
    assert refute(program, first, prereq_query(2)) is ProofOutcome.PROVED
    # W ∪ {c} entails a, refuting justification !a of rule 2
    assert refute(program, first, justif_query(2, 1)) is ProofOutcome.PROVED
    assert refute(program, nothing, justif_query(1, 1)) is ProofOutcome.NOT_PROVED


def test_session_matches_free_functions():
    th = parse_theory("w: a || b.\nd: a : b / c.\nd: b : !c / d.\n")
    program = compile_theory(th)
    rng = random.Random(9)
    for _ in range(40):
        chromosome = tuple(rng.randint(0, 1) for _ in range(4))
        session = CandidateQuerySession(program, applied=frozenset(
            i for i in (1, 2) if chromosome[2 * i - 2] == 1 and chromosome[2 * i - 1] == 0))
        for i in (1, 2):
            assert session.prereq_proved(i) is refute(program, chromosome, prereq_query(i))
            assert session.justification_refuted(i, 1) is refute(
                program, chromosome, justif_query(i, 1))


def test_truth_table_oracle_basics():
    assert truth_table_unsat([cl((), ())], 1)
    assert not truth_table_unsat([cl((0,))], 1)
    assert truth_table_unsat([cl((0,)), cl((), (0,))], 1)
