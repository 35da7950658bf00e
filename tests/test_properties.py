"""Property tests: the prover session against the truth table and the
raw-clause reference path, on random clause programs; the verifier with a
verdict store the search filled, against a fresh store and exhaustive
enumeration, on random default theories; fitness against the penalty grid
summed rule by rule, on random theories and the people theory; the theory
text format round trip; and the command line's exit codes on generated
input."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gadel.bench import build_people
from gadel.cli import main
from gadel.engine import PenaltyTable, _penalty, fitness, pair_penalty
from gadel.formulas import (MAX_NESTING, And, Atom, Clause, Not, Or, conj, disj,
                            format_theory, make_theory, parse_theory)
from gadel.program import chromosome_from_applied, chromosome_from_mask, compile_theory
from gadel.prover import (DEFAULT_BUDGET, CandidateQuerySession, ProofBudget,
                          ProofOutcome, refute_clauses)
from gadel.verifier import (ExtensionCertificate, _VerdictCache, enumerate_extensions,
                            verify)
from oracles import active_clauses, applied_rules, truth_table_unsat

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


formula_trees = st.recursive(
    st.sampled_from("abcd").map(Atom),
    lambda sub: st.one_of(sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=4)


@st.composite
def default_theories(draw):
    """A theory of at most 5 rules over at most 4 atoms."""
    world = draw(st.lists(formula_trees, max_size=2))
    rule = st.tuples(formula_trees, st.lists(formula_trees, max_size=2), formula_trees)
    rules = draw(st.lists(rule, min_size=1, max_size=5))
    return make_theory(world, rules)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, TINY], ids=["default", "tiny"])
@given(theory=default_theories())
def test_verify_with_search_filled_store(budget, theory):
    program = compile_theory(theory)
    n = program.n_defaults
    store = _VerdictCache(program, budget)
    for bits in range(1 << 2 * n):  # every chromosome, as the search would score it
        chrom = tuple(bits >> k & 1 for k in range(2 * n))
        fitness(program, chrom, budget=budget, _cache=store)
    certified = set()
    for mask in range(1 << n):
        applied = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        chrom = chromosome_from_applied(n, applied)
        got = verify(theory, chrom, budget, program=program, _cache=store)
        assert got == verify(theory, chrom, budget, program=program,
                             _cache=_VerdictCache(program, budget))
        if isinstance(got, ExtensionCertificate):
            certified.add(got.applied)
    assert certified == {c.applied for c in enumerate_extensions(theory, budget)}


weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
penalty_tables = st.builds(PenaltyTable, weights, weights, weights, weights, weights, weights)
PEOPLE = compile_theory(build_people(["man", "student"]))


def pair_penalty_sum(program, chromosome, table):
    """The rule-order sum of pair_penalty over the chromosome's gene pairs,
    with each rule's verdicts asked of a fresh session."""
    session = CandidateQuerySession(program, applied_rules(chromosome))
    total = 0.0
    for i in range(1, program.n_defaults + 1):
        proved = session.prereq_proved(i) is ProofOutcome.PROVED
        refuted = any(session.justification_refuted(i, j) is ProofOutcome.PROVED
                      for j in range(1, program.justification_count(i) + 1))
        total += pair_penalty(table, tuple(chromosome[2 * i - 2:2 * i]), proved, refuted)
    return total


def check_fitness_sums(program, chromosomes, masks, table):
    store = _VerdictCache(program, DEFAULT_BUDGET)
    n = program.n_defaults
    for chrom in chromosomes:
        assert fitness(program, chrom, table, _cache=store).total == \
            pair_penalty_sum(program, chrom, table)
    for mask in masks:
        # the polish walk's score of an applied mask, as `_descend` computes it
        walk = _penalty(table, n, mask, 0, store.verdicts(mask))
        assert walk == fitness(program, chromosome_from_mask(n, mask), table, _cache=store).total


@given(theory=default_theories(), table=penalty_tables, data=st.data())
def test_fitness_is_the_pair_penalty_sum(theory, table, data):
    program = compile_theory(theory)
    n = program.n_defaults
    chromosome = st.tuples(*[st.integers(0, 1)] * (2 * n))
    chromosomes = data.draw(st.lists(chromosome, min_size=1, max_size=8))
    check_fitness_sums(program, chromosomes, range(1 << n), table)


@settings(max_examples=25)
@given(table=penalty_tables, data=st.data())
def test_fitness_is_the_pair_penalty_sum_on_people(table, data):
    n = PEOPLE.n_defaults
    chromosomes = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * (2 * n)),
                                     min_size=1, max_size=3))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    check_fitness_sums(PEOPLE, chromosomes, masks, table)


@settings(max_examples=50)
@given(theory=default_theories())
def test_format_parse_round_trip(theory):
    assert parse_theory(format_theory(theory)) == theory


@pytest.fixture(scope="module")
def theory_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "generated.dt"


def solve(path, *extra):
    """Exit code of an in-process `gadel solve` with a tiny search; output is dropped."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["solve", str(path), "--pop-size", "4", "--max-gens", "2", *extra])


@settings(max_examples=30)
@given(theory=default_theories(), data=st.data())
def test_cli_on_valid_and_truncated_text(theory_file, theory, data):
    text = format_theory(theory).encode()
    cut = data.draw(st.integers(0, len(text)))
    theory_file.write_bytes(text)
    assert solve(theory_file) in (0, 1)
    theory_file.write_bytes(text[:cut])
    assert solve(theory_file) in (0, 1, 2)


@settings(max_examples=30)
@given(opens=st.integers(0, MAX_NESTING + 20).flatmap(
    lambda k: st.text(alphabet="!(", min_size=k, max_size=k)))
def test_cli_on_deep_nesting(theory_file, opens):
    theory_file.write_text("w: %sa%s.\nd: a : b / c.\n" % (opens, ")" * opens.count("(")))
    # one rule: the population holds every chromosome, so the extension is found
    assert solve(theory_file) == (2 if len(opens) > MAX_NESTING else 0)


weight_text = st.one_of(st.floats().map(repr), st.text(max_size=4),
                        st.sampled_from(["1", "0", "-1", "nan", "inf", "1e400", ""]))


@settings(max_examples=40)
@given(penalties=st.one_of(st.lists(weight_text, max_size=8).map(",".join), st.text()))
def test_cli_on_random_penalties(theory_file, penalties):
    theory_file.write_text("w: r.\nw: q.\nd: r : !p / !p.\nd: q : p / p.\n")
    assert solve(theory_file, "--penalties=" + penalties) in (0, 1, 2)
