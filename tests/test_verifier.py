"""Fixed-point certification and enumeration stratum by stratum."""

import gc
import itertools
import random

import pytest

from gadel.formulas import (And, Atom, Not, Or, make_theory, parse_theory,
                            tautology, to_cnf)
from gadel.bench import (build_hamiltonian, build_nixon, build_people, complete_arcs,
                         two_loops_demo)
from gadel import prover
from gadel.program import compile_theory
from gadel.prover import DEFAULT_BUDGET, CandidateQuerySession, ProofBudget, ProofOutcome
from gadel import verifier
from gadel.engine import Found, GaParams, evolve
from gadel.verifier import (ExtensionCertificate, Rejection, UndecidedError, _rules,
                            _VerdictCache, certificate_json, enumerate_extensions, verify)
from oracles import (active_clauses, chromosome_of, enumerate_every_applied_set, rule_mask,
                     truth_table_unsat)


def test_certificate_single_default():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = verify(t, {1})
    assert isinstance(got, ExtensionCertificate)
    assert got.applied == frozenset({1})
    assert got.trace == (frozenset(), frozenset({1}))
    assert got.grounded and got.consistent
    assert got.extension_atoms == ("a", "c")


def test_certificate_json_shape():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = verify(t, {1})
    assert certificate_json(got) == {
        "applied": [1],
        "grounded": True,
        "consistent": True,
        "trace": [[], [1]],
        "extension_atoms": ["a", "c"],
    }


def test_rejects_missing_applicable():
    t = parse_theory("w: a.\nd: a : b / c.")
    got = verify(t, set())
    assert isinstance(got, Rejection)
    assert got.reason == "missing-applicable"
    assert "rule 1" in got.detail


def test_rejects_self_supporting_rule():
    # the rule's prerequisite only follows once its own consequent is assumed
    t = parse_theory("d: a : b / a.")
    got = verify(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "ungrounded"
    assert got.detail == "circular support: rule 1 never admitted by the stages"
    # without its own consequent the prerequisite a does not follow at all
    underivable = verify(parse_theory("d: a : b / c."), {1})
    assert underivable == Rejection("ungrounded", "prerequisite of applied rule 1 not derivable")
    certs = enumerate_extensions(t)
    assert [c.applied for c in certs] == [frozenset()]
    assert certs[0].extension_atoms == ()


def test_rejects_mutual_support_cycle():
    t = parse_theory("d: a : t / b.\nd: b : u / a.")
    got = verify(t, {1, 2})
    assert isinstance(got, Rejection)
    assert got.reason == "ungrounded"
    assert "rules 1, 2" in got.detail


def test_rejects_blocked_justification():
    t = parse_theory("w: a.\nw: !b.\nd: a : b / c.")
    got = verify(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "blocked-justification"


def test_rejects_inconsistent_candidate():
    t = parse_theory("w: t.\nd: t : u / x && !x.")
    got = verify(t, {1})
    assert isinstance(got, Rejection)
    assert got.reason == "inconsistent"
    assert "certain knowledge" not in got.detail


def test_inconsistent_world_certifies_empty_applied_set():
    t = parse_theory("w: a.\nw: !a.\nd: t : u / c.")
    got = verify(t, set())
    assert isinstance(got, ExtensionCertificate)
    assert not got.consistent
    # applying the rule instead is rejected, and the detail points at the world
    bad = verify(t, {1})
    assert isinstance(bad, Rejection)
    assert bad.reason == "inconsistent"
    assert "certain knowledge itself is inconsistent" in bad.detail


def test_inconsistent_world_admits_justification_free_rules():
    t = make_theory([Atom("a"), Not(Atom("a"))],
                    [(tautology(), [], Atom("c"))])
    got = verify(t, {1})
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


def test_enumeration_of_an_inconsistent_world_without_rules():
    certs = enumerate_extensions(make_theory([Atom("a"), Not(Atom("a"))], []))
    assert [(c.applied, c.consistent) for c in certs] == [(frozenset(), False)]


def test_enumeration_of_an_inconsistent_world_with_justification_free_rules():
    # the one extension applies the staged fixpoint of the rules without a
    # justification: W entails every prerequisite, so rules 1 and 3 enter
    # in one stage; rule 2 is blocked, since W refutes its justification b
    t = parse_theory("w: a.\nw: !a.\nd: t || !t : / c.\nd: t || !t : b / d.\nd: c : / e.")
    certs = enumerate_extensions(t)
    assert [(c.applied, c.trace, c.consistent) for c in certs] == [
        (frozenset({1, 3}), (frozenset(), frozenset({1, 3})), False)]
    # a consistent W that justification-free rules make inconsistent: the
    # stages admit rule 1, then rule 2; rule 3 is blocked
    t = parse_theory("w: a.\nd: a : / b.\nd: b : / !a.\nd: a : c / c.")
    certs = enumerate_extensions(t)
    assert [(c.applied, c.trace, c.consistent) for c in certs] == [
        (frozenset({1, 2}), (frozenset(), frozenset({1}), frozenset({1, 2})), False)]
    assert certs == enumerate_every_applied_set(t)


def test_enumeration_of_a_theory_without_rules():
    certs = enumerate_extensions(make_theory([Atom("a")], []))
    assert [(c.applied, c.trace, c.consistent, c.extension_atoms) for c in certs] == [
        (frozenset(), (frozenset(),), True, ("a",))]


def _diamonds(k):
    """k independent republican/quaker clashes: rules 2i-1 and 2i clash."""
    return parse_theory("".join("w: r%d.\nw: q%d.\nd: r%d : !p%d / !p%d.\nd: q%d : p%d / p%d.\n"
                                % ((i,) * 8) for i in range(k)))


def _case_split(k):
    """k clashes whose prerequisite c(i) follows from W only by cases."""
    return parse_theory("".join("w: a%d || b%d.\nw: !a%d || c%d.\nw: !b%d || c%d.\n"
                                "d: c%d : d%d / d%d.\nd: c%d : !d%d / !d%d.\n" % ((i,) * 12)
                                for i in range(k)))


def test_enumeration_by_strata_past_12_rules():
    # ten strata of two clashing rules each: one rule of every clash
    every_pick = {frozenset(pick) for pick in itertools.product(*[(2 * i + 1, 2 * i + 2)
                                                                   for i in range(10)])}
    for theory in (_diamonds(10), _case_split(10)):
        assert {c.applied for c in enumerate_extensions(theory)} == every_pick
    # 400 strata of one rule each
    chain = parse_theory("w: a0.\n" + "".join("d: a%d : a%d / a%d.\n" % (i, i + 1, i + 1)
                                               for i in range(400)))
    assert [c.applied for c in enumerate_extensions(chain)] == [frozenset(range(1, 401))]
    # K4's 12 arc rules are one stratum, its 4 watchdogs another
    certs = enumerate_extensions(build_hamiltonian(4, complete_arcs(4)))
    assert len(certs) == 6
    # K5's 20 arc rules are one stratum, past the cap
    with pytest.raises(ValueError, match=r"12 rules per stratum, got a stratum of 20 rules: "
                                         r"\{1, 2, .*, 20\}$"):
        enumerate_extensions(build_hamiltonian(5, complete_arcs(5)))


def test_enumeration_leaves_no_reference_cycle():
    # a walk whose frames or closures referred to themselves would keep each
    # call's verdict store alive until the cyclic collector ran
    theory = parse_theory("w: r.\nw: q.\nd: r : !p / !p.\nd: q : p / p.\n"
                          "d: p : x / x.\nd: x : / y.")
    gc.collect()
    gc.disable()
    try:
        assert [c.applied for c in enumerate_extensions(theory)] == [
            frozenset({1}), frozenset({2, 3, 4})]
        assert gc.collect() == 0
    finally:
        gc.enable()


PEOPLE_FACTS = [("boy",), ("girl",), ("man",), ("woman",), ("man", "student"),
                ("woman", "student")]


def test_people_theories_have_one_extension():
    # the complete answer for the 39-rule people theories, 27 strata of at
    # most 4 rules each
    for facts in PEOPLE_FACTS:
        ext, = enumerate_extensions(build_people(facts))
        assert ext.consistent


@pytest.mark.parametrize("facts", [f if len(f) == 1 else pytest.param(f, marks=pytest.mark.slow)
                                   for f in PEOPLE_FACTS], ids="+".join)
def test_search_certifies_the_people_extension(facts):
    # at the people-polish parameters, on every seed
    theory = build_people(facts)
    ext, = enumerate_extensions(theory)
    program = compile_theory(theory)
    for seed in range(5):
        got = evolve(program, theory, GaParams(population_size=153, restart_after=6,
                                               rng_seed=seed))
        assert isinstance(got, Found) and got.certificate == ext


def test_undecided_on_tiny_budget():
    t = parse_theory("w: a || b.\nw: !a || c.\nw: !b || c.\nd: c : d / e.")
    got = verify(t, {1}, ProofBudget(max_depth=1, max_splits=1))
    assert isinstance(got, Rejection)
    assert got.reason == "undecided"


def test_enumeration_raises_on_an_undecided_candidate():
    # one extension, {1}; with one split the empty set's prerequisite r
    # (p or q, and each of x, y, q gives r) is left undecided, so the
    # enumeration cannot tell whether it is complete
    t = parse_theory("w: p || q.\nw: !p || x || y.\nw: !x || r.\nw: !y || r.\n"
                     "w: !q || r.\nd: r : s / s.")
    assert [c.applied for c in enumerate_extensions(t)] == [frozenset({1})]
    with pytest.raises(UndecidedError,
                       match=r"^applied set \{\}: prerequisite of rule 1 not decided"):
        enumerate_extensions(t, ProofBudget(max_depth=100, max_splits=1))


def test_enumeration_raises_on_an_undecided_consistency():
    # W is inconsistent, which takes two case splits to show: with one, the
    # consistency of the empty set, the walk's first choice, is left open,
    # and the walk raises there rather than prune it
    t = parse_theory("w: p || q.\nw: !p || x || y.\nw: !x || r.\nw: !y || r.\n"
                     "w: !q || r.\nw: !r.\nd: t || !t : / a.")
    certs = enumerate_extensions(t)
    assert [(c.applied, c.consistent) for c in certs] == [(frozenset({1}), False)]
    assert certs == enumerate_every_applied_set(t)
    with pytest.raises(UndecidedError, match=r"^applied set \{\}: consistency of the "
                                             r"candidate not decided"):
        enumerate_extensions(t, ProofBudget(max_depth=100, max_splits=1))


def test_enumeration_builds_no_rejection(monkeypatch):
    # enumerate_extensions asks _certify for a certificate or None, and
    # only verify writes a rejection and its text
    monkeypatch.setattr(verifier, "Rejection", None)
    monkeypatch.setattr(verifier, "_rules_word", None)
    assert [c.applied for c in enumerate_extensions(build_nixon())] == [frozenset({1}),
                                                                       frozenset({2})]
    assert enumerate_extensions(two_loops_demo()) == []


def test_verify_validates_rule_indices():
    t = parse_theory("w: a.\nd: a : b / c.")
    with pytest.raises(ValueError, match=r"^default indices out of range 1\.\.1: \[0\]$"):
        verify(t, {0})
    with pytest.raises(ValueError, match=r"^default indices out of range 1\.\.1: \[2, 3\]$"):
        verify(t, [3, 1, 2])
    assert verify(t, [1, 1]) == verify(t, (1,)) == verify(t, {1})  # duplicates collapse


def _same_theory(program, theory, a, b):
    """Do applied sets a and b span equivalent theories?  Decided by the oracle:
    each side must entail every consequent the other side adds."""
    for base_set, other in ((a, b - a), (b, a - b)):
        base = active_clauses(theory, chromosome_of(program.n_defaults, base_set))
        for i in sorted(other):
            goal = to_cnf(Not(theory.defaults[i - 1].consequent), theory.atoms)
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
    """(proved, exhausted, refuted, undecided, consistency) asked of a new
    session on the rule mask `applied`, rule by rule; a rule's
    justifications are asked until one is refuted, the undecided ones
    before it are listed as (rule, justification), and consistency is
    asked last."""
    session = CandidateQuerySession(program, applied, budget)
    proved = exhausted = refuted = 0
    undecided = []
    for i in range(1, program.n_defaults + 1):
        got = session.answer(program.prereq_ids[i - 1])
        if got is ProofOutcome.PROVED:
            proved |= 1 << (i - 1)
        elif got is ProofOutcome.BUDGET_EXHAUSTED:
            exhausted |= 1 << (i - 1)
        for j, qid in enumerate(program.justif_ids[i - 1], 1):
            got = session.answer(qid)
            if got is ProofOutcome.PROVED:
                refuted |= 1 << (i - 1)
                break
            if got is ProofOutcome.BUDGET_EXHAUSTED:
                undecided.append((i, j))
    return (proved, exhausted, refuted, tuple(undecided),
            session.answer(program.consistency_id))


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
    exhausted = 0  # prerequisites the stored rows leave undecided
    for theory in theories:
        prog = compile_theory(theory)
        n = prog.n_defaults
        cache = _VerdictCache(prog, budget)
        for mask in range(1 << n):
            applied = _rules(mask)
            shared = verify(theory, applied, _cache=cache)
            assert shared == verify(theory, applied, _cache=_VerdictCache(prog, budget))
            reasons.add(getattr(shared, "reason", "certified"))
        # each stored row is what a fresh session on its applied set answers
        for stage, row in cache.store.items():
            assert row == fresh_row(prog, stage, budget)
            exhausted |= row[1]
    assert {"certified", "missing-applicable", "ungrounded"} <= reasons
    if budget.max_splits == 1:
        # a stored BUDGET_EXHAUSTED prerequisite still rejects as undecided
        assert exhausted and "undecided" in reasons


def test_store_keeps_no_row_for_a_finished_stage():
    # rules ": !x(i+1) / x(i)" around a ring of 6: every prerequisite holds at
    # once, so each candidate admits all its admissible rules in one stage.
    # Verified on a fresh store, a candidate leaves its own row and the empty
    # stage's, and no row for the stage that admitted them; when it refutes
    # every justification, nothing is admissible and the empty stage is
    # finished before it needs a row
    ring = make_theory([], [(tautology(), [Not(Atom("x%d" % (i % 6 + 1)))], Atom("x%d" % i))
                            for i in range(1, 7)])
    prog = compile_theory(ring)
    certified = set()
    for mask in range(1 << 6):
        applied = {i + 1 for i in range(6) if mask >> i & 1}
        cache = _VerdictCache(prog, DEFAULT_BUDGET)
        got = verify(ring, applied, _cache=cache)
        if isinstance(got, ExtensionCertificate):
            certified.add(got.applied)
        admissible = [i for i in range(1, 7) if i % 6 + 1 not in applied]
        assert set(cache.store) == {mask} | ({0} if admissible else set())
    assert certified == {frozenset({1, 3, 5}), frozenset({2, 4, 6})}


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, ProofBudget(max_depth=1, max_splits=1)],
                         ids=["default", "tiny"])
def test_inconsistent_row_is_filled_from_masks(budget, monkeypatch):
    # forward chaining alone fires a constraint of each of these candidates:
    # W = {a, !a} with nothing applied, and a K5 polish neighbour (the seed-0
    # extension {1, 6, 12, 13, 20} plus rule 2, a second arc out of vertex 1).
    # The store fills the row from masks without a query, and it is the row
    # the per-query loop gives: every prerequisite proved, every rule with a
    # justification refuted (rule 2 of W's theory has none)
    w_theory = make_theory([Atom("a"), Not(Atom("a"))],
                           [(Atom("a"), [Atom("b")], Atom("c")), (tautology(), [], Atom("d"))])
    k5 = build_hamiltonian(5, complete_arcs(5))
    for theory, applied, refuted in [(w_theory, set(), 0b01),
                                     (k5, {1, 2, 6, 12, 13, 20}, (1 << 25) - 1)]:
        prog = compile_theory(theory)
        mask = rule_mask(applied)
        assert CandidateQuerySession(prog, mask, budget).chained_inconsistent
        want = fresh_row(prog, mask, budget)
        asked = []
        monkeypatch.setattr(prover, "_decide", lambda *args: asked.append(args))
        got = _VerdictCache(prog, budget).verdicts(mask)
        monkeypatch.undo()
        assert asked == []
        assert got == want == ((1 << prog.n_defaults) - 1, 0, refuted, (), ProofOutcome.PROVED)


def test_verify_reads_the_candidate_row_from_the_store(monkeypatch):
    # verify reads the candidate's stored row, and opens the candidate's own
    # session only to list a certificate's extension atoms; the row names an
    # undecided justification itself, circular support is
    # read off the row's proved prerequisites, and so is consistency, even
    # when the row leaves it undecided (every query of this W's row is
    # settled by forward chaining, but its consistency needs two splits).
    # It answers as on a fresh store
    hard_w = parse_theory("w: p || q.\nw: !p || x || y.\nw: !x || r.\nw: !y || r.\n"
                          "w: !q || r.\nw: !r.\nd: t || !t : / a.")
    one_split = ProofBudget(max_depth=100, max_splits=1)
    cases = [(build_nixon(), set(), DEFAULT_BUDGET, "missing-applicable", 0),
             (build_nixon(), {1, 2}, DEFAULT_BUDGET, "inconsistent", 0),
             (parse_theory("w: a.\nw: !b.\nd: a : b / c."), {1}, DEFAULT_BUDGET,
              "blocked-justification", 0),
             (build_nixon(), {1}, DEFAULT_BUDGET, "certified", 1),
             (parse_theory("d: a : t / b.\nd: b : u / a."), {1, 2}, DEFAULT_BUDGET,
              "ungrounded", 0),
             (hard_w, {1}, one_split, "undecided", 0),
             # justification !a is left undecided, and the row names it
             (parse_theory("w: a || b.\nw: !a || c.\nw: !b || c.\nd: c : !a / e."), {1},
              ProofBudget(max_depth=1, max_splits=1), "undecided", 0)]
    for theory, applied, budget, reason, sessions in cases:
        prog = compile_theory(theory)
        store = _VerdictCache(prog, budget)
        want = verify(theory, applied, _cache=store)
        store.verdicts(rule_mask(applied))
        opened = []
        monkeypatch.setattr(verifier, "CandidateQuerySession",
                            lambda *args: opened.append(args) or CandidateQuerySession(*args))
        got = verify(theory, applied, _cache=store)
        monkeypatch.undo()
        assert got == want
        assert getattr(got, "reason", "certified") == reason
        assert len(opened) == sessions


def test_certificate_lists_extension_atoms_past_64_atoms():
    # a chain of 70 rules over 71 atoms, each rule enabling the next
    t = parse_theory("w: a0.\n" + "".join("d: a%d : a%d / a%d.\n" % (i, i + 1, i + 1)
                                           for i in range(70)))
    got = verify(t, range(1, 71))
    assert isinstance(got, ExtensionCertificate)
    assert got.extension_atoms == tuple(sorted("a%d" % i for i in range(71)))
    assert len(certificate_json(got)["extension_atoms"]) == 71
