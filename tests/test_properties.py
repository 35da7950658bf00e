"""Property tests: the prover session against the truth table and the
raw-clause reference path, on random clause programs and on rules with
literal and compound prerequisites and justifications; watch-list
propagation against the rescanning closure; the verifier with a verdict
store the search filled, against a fresh store and exhaustive enumeration
(which must raise when a candidate is undecided), on random default
theories; fitness against the penalty grid summed rule by rule, on random
theories and the people theory, and the mask scoring against the same sum
on random masks; the theory text format round trip; and the command line's
exit codes on generated input, oversized clause forms included."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadel.bench import build_people
from gadel.cli import main
from gadel.engine import UNIT_PENALTIES, PenaltyTable, _penalty, chromosome_from_mask, fitness
from gadel.formulas import (MAX_NESTING, And, Atom, Not, Or, conj, disj,
                            format_theory, make_theory, parse_theory)
from gadel.program import MAX_PROGRAM_CLAUSES, compile_theory, watch_index
from gadel.prover import (DEFAULT_BUDGET, CandidateQuerySession, ProofBudget,
                          ProofOutcome, _propagate)
from gadel.verifier import (ExtensionCertificate, UndecidedError, _VerdictCache,
                            enumerate_extensions, verify)
from oracles import (active_clauses, applied_rules, chromosome_of, closure, grid_penalty,
                     raw_groups, refute_clauses, truth_table_unsat)

MAX_ATOMS = 8
TINY = ProofBudget(max_depth=10, max_splits=2)


def clause_formula(heads, body):
    return disj(*[Atom("x%d" % h) for h in sorted(heads)],
                *[Not(Atom("x%d" % b)) for b in sorted(body)])


@st.composite
def clause_programs(draw):
    """A theory whose world and rule consequents are random clause sets over
    at most MAX_ATOMS atoms, its compiled program, and an applied set of its
    rules."""
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
    return theory, program, frozenset(applied)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, TINY], ids=["default", "tiny"])
@given(case=clause_programs())
def test_session_matches_reference_and_truth_table(budget, case):
    # the consistency group and every atom's entailment group
    theory, program, applied = case
    session = CandidateQuerySession(program, applied, budget)
    base = active_clauses(theory, chromosome_of(program.n_defaults, applied))
    queries = [(session.answer(program.consistency_id), base)]
    for aid, qid in enumerate(program.atom_ids):
        goal = (0, 1 << aid)
        queries.append((session.answer(qid), base + [goal]))
    for got, clauses in queries:
        # the same verdict and the same budget use as the raw-list reference
        assert got is refute_clauses(clauses, budget)
        if got is not ProofOutcome.BUDGET_EXHAUSTED:
            assert (got is ProofOutcome.PROVED) == truth_table_unsat(clauses, program.atom_count)


@st.composite
def literal_query_programs(draw):
    """A compiled program over 2 to 5 atoms whose world has random clauses,
    at least one of them with several heads, and whose rules' prerequisites and
    justifications are mostly single literals (a positive literal's
    prerequisite is a constraint group and its justification a unit group,
    a negative one's the other way round) and sometimes compound formulas,
    which take the general path; the theory, and an applied set of its rules."""
    n = draw(st.integers(3, 5))  # few atoms, so queries meet the world's clauses
    atom = st.integers(0, n - 1).map(lambda k: Atom("x%d" % k))
    literal = st.one_of(atom, atom.map(Not))
    part = st.one_of(literal, literal, literal,
                     st.builds(And, literal, literal), st.builds(Or, literal, literal))
    # up to three distinct atoms, the first k of them heads: a constraint, a
    # one-head clause or a disjunctive clause, never a tautology
    clause = st.tuples(st.integers(0, 2),
                       st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
                       ).map(lambda kv: (kv[1][:kv[0]], kv[1][kv[0]:]))
    disjunctive = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True
                           ).map(lambda v: (v[:2], v[2:]))
    world = [draw(disjunctive)] + draw(st.lists(clause, max_size=7))
    rules = draw(st.lists(st.tuples(part, st.lists(part, max_size=3),
                                    st.one_of(part, clause.map(lambda hb: clause_formula(*hb)))),
                          min_size=1, max_size=4))
    theory = make_theory([clause_formula(h, b) for h, b in world], rules)
    program = compile_theory(theory)
    applied = draw(st.sets(st.integers(1, program.n_defaults)))
    return theory, program, frozenset(applied)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, TINY], ids=["default", "tiny"])
@settings(max_examples=150)
@given(case=literal_query_programs(), data=st.data())
def test_rule_queries_match_reference_in_any_order(budget, case, data):
    # every prerequisite and justification query, each asked twice in a
    # shuffled order of one session, answers as the raw-list reference does
    theory, program, applied = case
    n = program.n_defaults
    _world, _conclusion, prereq, justif = raw_groups(theory)
    queries = [(i, j) for i in range(1, n + 1) for j in range(len(justif[i - 1]) + 1)]
    session = CandidateQuerySession(program, applied, budget)
    base = active_clauses(theory, chromosome_of(n, applied))
    for i, j in data.draw(st.permutations(queries * 2)):
        if j:
            got = session.answer(program.justif_ids[i - 1][j - 1])
            clauses = base + list(justif[i - 1][j - 1])
        else:
            got = session.answer(program.prereq_ids[i - 1])
            clauses = base + list(prereq[i - 1])
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


PROPAGATION_ATOMS = 12
atom_masks = st.integers(0, (1 << PROPAGATION_ATOMS) - 1)
one_head_clauses = st.tuples(st.integers(0, PROPAGATION_ATOMS - 1),
                             st.sets(st.integers(0, PROPAGATION_ATOMS - 1), max_size=3)) \
    .filter(lambda hb: hb[0] not in hb[1]) \
    .map(lambda hb: (1 << hb[0], sum(1 << b for b in hb[1])))


@given(defs=st.lists(one_head_clauses, max_size=20), qdefs=st.lists(one_head_clauses, max_size=4),
       seed=atom_masks, new=atom_masks)
def test_propagation_matches_the_rescanning_closure(defs, qdefs, seed, new):
    # a base closed under the watched clauses, new atoms and a query group:
    # visiting only the clauses watching an added atom reaches the same
    # least fixpoint as rescanning every clause until nothing changes
    base = closure(seed, (defs,))
    watch = watch_index(defs)
    got = _propagate(base, new, watch, sum(watch), tuple(qdefs))
    assert got == closure(base | new, (defs, qdefs))


# its one extension {1} needs three case splits to decide the empty set's
# prerequisite, one more than TINY allows
THREE_SPLITS = parse_theory("w: p || q.\nw: !p || x || y.\nw: !x || u || v.\nw: !u || r.\n"
                            "w: !v || r.\nw: !y || r.\nw: !q || r.\nd: r : s / s.")


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, TINY], ids=["default", "tiny"])
@given(theory=default_theories())
@example(theory=THREE_SPLITS)
def test_verify_with_search_filled_store(budget, theory):
    program = compile_theory(theory)
    n = program.n_defaults
    store = _VerdictCache(program, budget)
    for bits in range(1 << 2 * n):  # every chromosome, as the search would score it
        chrom = tuple(bits >> k & 1 for k in range(2 * n))
        fitness(program, chrom, budget=budget, _cache=store)
    certified = set()
    undecided = False
    for mask in range(1 << n):
        applied = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        got = verify(theory, applied, budget, program=program, _cache=store)
        assert got == verify(theory, applied, budget, program=program,
                             _cache=_VerdictCache(program, budget))
        if isinstance(got, ExtensionCertificate):
            certified.add(got.applied)
        else:
            undecided = undecided or got.reason == "undecided"
    if undecided:  # the enumeration cannot be complete, and says so
        with pytest.raises(UndecidedError):
            enumerate_extensions(theory, budget)
    else:
        certs = enumerate_extensions(theory, budget)
        assert certified == {c.applied for c in certs}
        # a certificate re-verifies from its own applied set alone
        assert all(verify(theory, c.applied, budget) == c for c in certs)


weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
penalty_tables = st.builds(PenaltyTable, weights, weights, weights, weights, weights, weights)
PEOPLE = compile_theory(build_people(["man", "student"]))


def pair_penalty_sum(program, chromosome, table):
    """The rule-order sum of the penalty grid over the chromosome's gene
    pairs, with each rule's verdicts asked of a fresh session."""
    session = CandidateQuerySession(program, applied_rules(chromosome))
    total = 0.0
    for i in range(1, program.n_defaults + 1):
        proved = session.answer(program.prereq_ids[i - 1]) is ProofOutcome.PROVED
        refuted = any(session.answer(qid) is ProofOutcome.PROVED
                      for qid in program.justif_ids[i - 1])
        total += grid_penalty(table, chromosome[2 * i - 2:2 * i], proved, refuted)
    return total


def check_fitness_sums(program, chromosomes, masks, table):
    store = _VerdictCache(program, DEFAULT_BUDGET)
    for chrom in chromosomes:
        assert fitness(program, chrom, table, _cache=store).total == \
            pair_penalty_sum(program, chrom, table)
    for mask in masks:
        # the polish walk's score of an applied mask, as `_descend` computes it
        walk = _penalty(table, mask, 0, store.verdicts(mask))
        chrom = chromosome_from_mask(program.n_defaults, mask)
        assert walk == fitness(program, chrom, table, _cache=store).total


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


wide_weights = st.floats(min_value=1e-300, max_value=1e300)
wide_tables = st.one_of(st.just(UNIT_PENALTIES), st.builds(PenaltyTable, *[wide_weights] * 6))


@given(table=wide_tables, data=st.data())
def test_penalty_masks_match_the_grid_sum(table, data):
    # gene masks and a verdict row of up to 64 rules, scored against the
    # grid's rule-order sum; equal as floats, not approximately
    n = data.draw(st.integers(1, 64))
    first, second, proved, refuted = data.draw(st.tuples(*[st.integers(0, (1 << n) - 1)] * 4))
    want = 0.0
    for i in range(n):
        want += grid_penalty(table, (first >> i & 1, second >> i & 1),
                             proved >> i & 1, refuted >> i & 1)
    assert _penalty(table, first, second, (proved, 0, refuted)) == want


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


@settings(max_examples=10, deadline=None)
@given(pairs=st.lists(st.integers(10, 12), min_size=5, max_size=40))
def test_cli_on_oversized_clause_form(theory_file, pairs):
    # each `w:` line is a DNF of k two-atom conjunctions over fresh atoms,
    # 2**k clauses in clause form; 12-pair lines are added until the theory
    # passes the cap
    pairs = list(pairs)
    while sum(1 << k for k in pairs) <= MAX_PROGRAM_CLAUSES:
        pairs.append(12)
    theory_file.write_text("".join(
        "w: %s.\n" % " || ".join("a%d_%d && b%d_%d" % (line, p, line, p) for p in range(k))
        for line, k in enumerate(pairs)))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["check", str(theory_file), "--applied", ""]) == 2
    assert "more than %d clauses" % MAX_PROGRAM_CLAUSES in err.getvalue()
