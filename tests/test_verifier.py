"""Fixed-point certification and exhaustive enumeration."""

import itertools
import random

import pytest

from gadel.formulas import (And, Atom, Not, Or, make_theory, negate_to_cnf,
                            parse_theory, tautology)
from gadel.bench import build_hamiltonian, build_nixon, complete_arcs, two_loops_demo
from gadel.program import chromosome_from_applied, compile_theory
from gadel.prover import DEFAULT_BUDGET, CandidateQuerySession, ProofBudget, ProofOutcome
from gadel.verifier import (ExtensionCertificate, Rejection, _rules, _VerdictCache,
                            certificate_json, enumerate_extensions, verify)
from oracles import active_clauses, truth_table_unsat


def check(theory, applied):
    prog = compile_theory(theory)
    chrom = chromosome_from_applied(prog.n_defaults, applied)
    return verify(theory, chrom, program=prog)


def test_certificate_single_default():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = check(t, {1})
    assert isinstance(got, ExtensionCertificate)
    assert got.applied == frozenset({1})
    assert got.trace == (frozenset(), frozenset({1}))
    assert got.grounded and got.consistent
    assert got.extension_atoms == ("a", "c")


def test_certificate_json_shape():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = check(t, {1})
    assert certificate_json(got) == {
        "applied": [1],
        "grounded": True,
        "consistent": True,
        "trace": [[], [1]],
        "extension_atoms": ["a", "c"],
    }


def test_rejects_missing_applicable():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = check(t, set())
    assert isinstance(got, Rejection)
    assert got.reason == "missing-applicable"
    assert "rule 1" in got.detail


def test_rejects_self_supporting_rule():
    # the rule's prerequisite only follows once its own consequent is assumed
    t = parse_theory("d: a : b / a.")
    got = check(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "ungrounded"
    assert got.detail == "circular support: rule 1 never admitted by the stages"
    certs = enumerate_extensions(t)
    assert [c.applied for c in certs] == [frozenset()]
    assert certs[0].extension_atoms == ()


def test_rejects_mutual_support_cycle():
    t = parse_theory("d: a : t / b.\nd: b : u / a.")
    got = check(t, {1, 2})
    assert isinstance(got, Rejection)
    assert got.reason == "ungrounded"
    assert "rules 1, 2" in got.detail


def test_rejects_blocked_justification():
    t = parse_theory("w: a.\nw: !b.\nd: a : b / c.")
    got = check(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "blocked-justification"


def test_rejects_inconsistent_candidate():
    t = parse_theory("w: t.\nd: t : u / x && !x.")
    got = check(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "inconsistent"
    assert "certain knowledge" not in got.detail


def test_inconsistent_world_certifies_empty_applied_set():
    t = parse_theory("w: a.\nw: !a.\nd: t : u / c.")
    got = check(t, set())
    assert isinstance(got, ExtensionCertificate)
    assert not got.consistent
    # applying the rule instead is rejected, and the detail points at the world
    bad = check(t, {1})
    assert isinstance(bad, Rejection)
    assert bad.reason == "inconsistent"
    assert "certain knowledge itself is inconsistent" in bad.detail


def test_inconsistent_world_admits_justification_free_rules():
    t = make_theory([Atom("a"), Not(Atom("a"))],
                    [(tautology(), [], Atom("c"))])
    got = check(t, {1})
    assert isinstance(got, ExtensionCertificate)
    assert got.applied == frozenset({1})
    assert not got.consistent


def test_no_extension_for_self_blocking_rule():
    t = make_theory([], [(tautology(), [Atom("b")], Not(Atom("b")))])
    assert enumerate_extensions(t) == []


def test_nixon_has_exactly_two_extensions():
    certs = enumerate_extensions(build_nixon())
    assert [c.applied for c in certs] == [frozenset({1}), frozenset({2})]
    assert certs[0].extension_atoms == ("quaker", "republican")
    assert certs[1].extension_atoms == ("pacifist", "quaker", "republican")


def test_enumeration_rule_cap():
    t = make_theory([], [(Atom("a%d" % i), [Atom("b")], Atom("c"))
                         for i in range(13)])
    with pytest.raises(ValueError):
        enumerate_extensions(t)


def test_undecided_on_tiny_budget():
    t = parse_theory("w: a || b.\nw: !a || c.\nw: !b || c.\nd: c : d / e.")
    got = verify(t, (1, 0), ProofBudget(max_depth=1, max_splits=1))
    assert isinstance(got, Rejection)
    assert got.reason == "undecided"


def test_verify_validates_chromosome():
    t = parse_theory("w: a.\nd: a : b / c.")
    with pytest.raises(ValueError):
        verify(t, (1, 0, 0))
    with pytest.raises(ValueError):
        verify(t, (2, 0))


def _same_theory(program, theory, a, b):
    """Do applied sets a and b span equivalent theories?  Decided by the oracle:
    each side must entail every consequent the other side adds."""
    for base_set, other in ((a, b - a), (b, a - b)):
        chrom = chromosome_from_applied(program.n_defaults, base_set)
        base = active_clauses(program, chrom)
        for i in sorted(other):
            goal = negate_to_cnf(theory.defaults[i - 1].consequent, theory.atoms)
            if not truth_table_unsat(base + list(goal), program.atom_count):
                return False
    return True


def _normal_theory(rng):
    # the criterion-6 shape (consistent literal world, normal rules) over
    # fewer atoms and more rules, so that rules clash and extensions multiply
    pool = ["a", "b", "c"][: rng.randint(2, 3)]

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

    signs = {}
    for _ in range(rng.randint(0, 3)):
        signs.setdefault(rng.choice(pool), rng.random() < 0.5)
    world = [Atom(k) if v else Not(Atom(k)) for k, v in sorted(signs.items())]
    defaults = []
    for _ in range(rng.randint(2, 6)):
        g = form()
        defaults.append((tautology() if rng.random() < 0.5 else form(), [g], g))
    return make_theory(world, defaults)


def test_certificates_span_distinct_theories():
    # enumerate_extensions keeps every certificate because distinct
    # generating sets never span the same extension
    t = parse_theory("w: a.\nd: a : b / c.\nd: a : d / c.")
    prog = compile_theory(t)
    assert _same_theory(prog, t, frozenset({1}), frozenset({2}))
    assert not _same_theory(prog, t, frozenset({1}), frozenset())
    rng = random.Random(29)
    theories = [build_nixon(), build_hamiltonian(3, complete_arcs(3))]
    theories += [_normal_theory(rng) for _ in range(30)]
    pairs = 0
    for theory in theories:
        prog = compile_theory(theory)
        certs = enumerate_extensions(theory)
        for x, y in itertools.combinations(certs, 2):
            pairs += 1
            assert not _same_theory(prog, theory, x.applied, y.applied)
    assert pairs >= 5


def test_random_normal_theories_have_extensions():
    # normal rules (justification == consequent) over a satisfiable world
    # always leave at least one extension
    rng = random.Random(41)
    names = ["a", "b", "c", "d"]
    for _ in range(40):
        world = []
        for name in rng.sample(names, rng.randrange(3)):
            world.append(Atom(name) if rng.randrange(2) else Not(Atom(name)))
        defaults = []
        for _ in range(rng.randint(1, 3)):
            pre = Atom(rng.choice(names))
            lit = rng.choice(names)
            beta = Atom(lit) if rng.randrange(2) else Not(Atom(lit))
            defaults.append((pre, [beta], beta))
        t = make_theory(world, defaults)
        assert len(enumerate_extensions(t)) >= 1


CASE_SPLIT = "w: a || b.\nw: !a || c.\nw: !b || c.\nd: c : d / e."


def fresh_row(program, applied, budget):
    """(proved, exhausted, refuted, budget hits, consistency) asked of a new
    session, rule by rule; a rule's justifications are asked until one is
    refuted, and consistency last."""
    session = CandidateQuerySession(program, applied, budget)
    proved = exhausted = refuted = hits = 0
    for i in range(1, program.n_defaults + 1):
        got = session.prereq_proved(i)
        if got is ProofOutcome.PROVED:
            proved |= 1 << (i - 1)
        elif got is ProofOutcome.BUDGET_EXHAUSTED:
            exhausted |= 1 << (i - 1)
            hits += 1
        for j in range(1, program.justification_count(i) + 1):
            got = session.justification_refuted(i, j)
            if got is ProofOutcome.PROVED:
                refuted |= 1 << (i - 1)
                break
            hits += got is ProofOutcome.BUDGET_EXHAUSTED
    return proved, exhausted, refuted, hits, session.consistent()


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, ProofBudget(max_depth=1, max_splits=1)],
                         ids=["default", "tiny"])
def test_shared_stage_verdicts_change_no_answer(budget):
    # every candidate verified with one verdict store per theory gets exactly
    # the certificate or rejection it gets from a fresh store
    rng = random.Random(53)
    theories = [build_nixon(), build_hamiltonian(3, complete_arcs(3)), two_loops_demo(),
                build_hamiltonian(2, complete_arcs(2)), parse_theory(CASE_SPLIT)]
    theories += [_normal_theory(rng) for _ in range(30)]
    reasons = set()
    rows = candidates = 0
    exhausted = 0  # prerequisites the stored rows leave undecided
    for theory in theories:
        prog = compile_theory(theory)
        n = prog.n_defaults
        cache = _VerdictCache(prog, budget)
        for mask in range(1 << n):
            chrom = chromosome_from_applied(n, {i + 1 for i in range(n) if mask >> i & 1})
            shared = verify(theory, chrom, budget, program=prog, _cache=cache)
            assert shared == verify(theory, chrom, budget, program=prog)
            reasons.add(getattr(shared, "reason", "certified"))
        rows += len(cache.store)
        candidates += 1 << n
        # each stored row is what a fresh session on its stage set answers
        for stage, row in cache.store.items():
            assert row == fresh_row(prog, _rules(stage), budget)
            exhausted |= row[1]
    # the store keeps stage sets only, not one row per candidate
    assert 4 * rows < candidates
    assert {"certified", "missing-applicable", "ungrounded"} <= reasons
    if budget.max_splits == 1:
        # a stored BUDGET_EXHAUSTED prerequisite still rejects as undecided
        assert exhausted and "undecided" in reasons


def test_store_keeps_no_row_for_a_finished_stage():
    # rules ": !x(i+1) / x(i)" around a ring of 6: every prerequisite holds at
    # once, so each candidate admits all its admissible rules in one stage and
    # only the empty stage needs a row, however many candidates share the store
    ring = make_theory([], [(tautology(), [Not(Atom("x%d" % (i % 6 + 1)))], Atom("x%d" % i))
                            for i in range(1, 7)])
    prog = compile_theory(ring)
    cache = _VerdictCache(prog, DEFAULT_BUDGET)
    certified = set()
    for mask in range(1 << 6):
        applied = {i + 1 for i in range(6) if mask >> i & 1}
        got = verify(ring, chromosome_from_applied(6, applied), program=prog, _cache=cache)
        if isinstance(got, ExtensionCertificate):
            certified.add(got.applied)
    assert certified == {frozenset({1, 3, 5}), frozenset({2, 4, 6})}
    assert list(cache.store) == [0]  # the empty stage's rule mask
