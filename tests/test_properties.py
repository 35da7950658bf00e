"""Property tests: the prover session against the truth table and the
raw-clause reference path, on random clause programs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from gadel.formulas import Atom, Clause, Not, conj, disj, make_theory
from gadel.program import active_clauses, chromosome_from_applied, compile_theory
from gadel.prover import (DEFAULT_BUDGET, CandidateQuerySession, ProofBudget,
                          ProofOutcome, refute_clauses, truth_table_unsat)

MAX_ATOMS = 8
TINY = ProofBudget(max_depth=10, max_splits=2)


def clause_formula(heads, body):
    return disj(*[Atom("x%d" % h) for h in sorted(heads)],
                *[Not(Atom("x%d" % b)) for b in sorted(body)])


@st.composite
def clause_programs(draw):
    """A compiled program whose world and rule consequents are random clause
    sets over at most MAX_ATOMS atoms, and an applied set of its rules."""
    n = draw(st.integers(1, MAX_ATOMS))
    literals = st.sets(st.integers(0, n - 1), max_size=3)
    clause = st.tuples(literals, literals).filter(lambda hb: hb[0] or hb[1])
    world = draw(st.lists(clause, max_size=6))
    groups = draw(st.lists(st.lists(clause, min_size=1, max_size=3), min_size=1, max_size=3))
    theory = make_theory(
        [clause_formula(h, b) for h, b in world],
        [(Atom("x0"), [], conj(*[clause_formula(h, b) for h, b in g])) for g in groups])
    program = compile_theory(theory)
    applied = draw(st.sets(st.integers(1, program.n_defaults)))
    return program, frozenset(applied)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, TINY], ids=["default", "tiny"])
@given(case=clause_programs())
def test_session_matches_reference_and_truth_table(budget, case):
    program, applied = case
    session = CandidateQuerySession(program, applied, budget)
    base = active_clauses(program, chromosome_from_applied(program.n_defaults, applied))
    queries = [(session.consistent(), base)]
    for aid in range(program.atom_count):
        goal = Clause(frozenset(), frozenset((aid,)))
        queries.append((session.entails_atom(aid), base + [goal]))
    for got, clauses in queries:
        # the same verdict and the same budget use as the raw-list reference
        assert got is refute_clauses(clauses, budget)
        if got is not ProofOutcome.BUDGET_EXHAUSTED:
            assert (got is ProofOutcome.PROVED) == truth_table_unsat(clauses, program.atom_count)
