"""Formula trees, CNF conversion and the theory file grammar."""

import itertools
import random
import time

import pytest

from gadel.formulas import (MAX_DEPTH, MAX_NESTING, And, Atom, AtomTable, Default,
                            Not, Or, ParseError, atoms_of, conj, disj,
                            format_formula, format_theory, make_theory,
                            negate_to_cnf, parse_theory, tautology, to_cnf)
from oracles import evaluate


def keyed(clauses):
    return sorted(c.sort_key() for c in clauses)


def test_atom_name_validation():
    Atom("a1_b")
    for bad in ("A", "1a", "", "a-b", "a b"):
        with pytest.raises(ValueError):
            Atom(bad)


def test_atoms_of_and_evaluate():
    f = Or(And(Atom("a"), Not(Atom("b"))), Atom("c"))
    assert atoms_of(f) == {"a", "b", "c"}
    assert evaluate(f, {"a": True, "b": False, "c": False})
    assert not evaluate(f, {"a": True, "b": True, "c": False})
    assert evaluate(f, {"a": False, "b": True, "c": True})


def test_conj_disj_fold_left():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert conj(a, b, c) == And(And(a, b), c)
    assert disj(a, b, c) == Or(Or(a, b), c)
    assert conj(a) == a


def test_to_cnf_distributes():
    table = AtomTable()
    f = Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert keyed(to_cnf(f, table)) == [((0, 2), ()), ((1, 2), ())]
    assert table.names == ["a", "b", "c"]


def test_negate_to_cnf():
    table = AtomTable()
    f = Or(And(Atom("a"), Atom("b")), Atom("c"))
    # !(a&&b || c) == (!a || !b) && !c
    assert keyed(negate_to_cnf(f, table)) == [((), (0, 1)), ((), (2,))]


def test_cnf_negation_parity():
    table = AtomTable()
    f = Not(Or(Atom("a"), Not(Atom("b"))))
    assert keyed(to_cnf(f, table)) == [((), (0,)), ((1,), ())]


def test_cnf_drops_tautologies():
    assert to_cnf(tautology("a")) == frozenset()


def assignments(names):
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def clause_true(clause, table, assignment):
    if any(assignment[table.names[h]] for h in clause.heads):
        return True
    return any(not assignment[table.names[b]] for b in clause.body)


def random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    pick = rng.random()
    if pick < 0.3:
        return Not(random_formula(rng, names, depth - 1))
    node = And if pick < 0.65 else Or
    return node(random_formula(rng, names, depth - 1),
                random_formula(rng, names, depth - 1))


def test_cnf_model_equivalence_random():
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula(rng, ["a", "b", "c", "d"], 4)
        table = AtomTable()
        clauses = to_cnf(f, table)
        neg = negate_to_cnf(f, table)
        for assignment in assignments(["a", "b", "c", "d"]):
            want = evaluate(f, assignment)
            assert want == all(clause_true(c, table, assignment) for c in clauses)
            assert (not want) == all(clause_true(c, table, assignment) for c in neg)


def test_parse_world_and_defaults():
    th = parse_theory(
        "# a comment\n"
        "w: !boy || kid.\n"
        "d: adult : !student, !priest / married.\n"
        "d: go : / use_1_2 && at_2.\n")
    assert th.world == (Or(Not(Atom("boy")), Atom("kid")),)
    assert th.defaults[0] == Default(1, Atom("adult"),
                                     (Not(Atom("student")), Not(Atom("priest"))),
                                     Atom("married"))
    assert th.defaults[1] == Default(2, Atom("go"), (),
                                     And(Atom("use_1_2"), Atom("at_2")))
    assert th.atoms.names == ["boy", "kid", "adult", "student", "priest",
                              "married", "go", "at_2", "use_1_2"]


def test_parse_precedence():
    th = parse_theory("w: !a && b || c.\n")
    assert th.world[0] == Or(And(Not(Atom("a")), Atom("b")), Atom("c"))
    th = parse_theory("w: a && (b || c).\n")
    assert th.world[0] == And(Atom("a"), Or(Atom("b"), Atom("c")))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_theory("w: a.\nw: b ||.\n")
    assert (err.value.line, err.value.column) == (2, 8)
    with pytest.raises(ParseError) as err:
        parse_theory("w: A.\n")
    assert (err.value.line, err.value.column) == (1, 4)
    with pytest.raises(ParseError) as err:
        parse_theory("x: a.\n")
    assert (err.value.line, err.value.column) == (1, 1)
    with pytest.raises(ParseError) as err:
        parse_theory("w: a")
    assert err.value.line == 1


def test_parse_nesting_cap():
    # MAX_NESTING levels parse; the next opener is a ParseError at its position
    assert isinstance(parse_theory("w: %sa." % ("!" * MAX_NESTING)).world[0], Not)
    assert parse_theory("w: %sa%s." % ("(" * MAX_NESTING, ")" * MAX_NESTING)).world == (Atom("a"),)
    for text in ("w: b.\nw: %sa." % ("!" * 3000),
                 "w: b.\nw: %sa%s." % ("(" * 3000, ")" * 3000),
                 "w: b.\nw: %sa%s." % ("!(" * 60, ")" * 60)):
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert "nested deeper than %d" % MAX_NESTING in str(err.value)
        assert (err.value.line, err.value.column) == (2, 4 + MAX_NESTING)
    # the cap counts open levels, not the total: siblings each get the full depth
    side = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_theory("w: %s && %s." % (side, side)).world[0] == And(Atom("a"), Atom("a"))


def chain_text(op, n):
    return (" %s " % op).join("a%d" % k for k in range(n))


def test_parse_depth_cap():
    # a chain of MAX_DEPTH + 1 operands is MAX_DEPTH levels deep and parses
    for op, node in (("&&", And), ("||", Or)):
        f = parse_theory("w: %s." % chain_text(op, MAX_DEPTH + 1)).world[0]
        assert isinstance(f, node) and len(atoms_of(f)) == MAX_DEPTH + 1
        assert to_cnf(f) and f == parse_theory(format_theory(make_theory([f], []))).world[0]
    # a longer chain is a ParseError at the operator that adds operand MAX_DEPTH + 2
    for op in ("&&", "||"):
        text = "w: b.\nw: %s." % chain_text(op, 3000)
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert "more than %d levels deep" % MAX_DEPTH in str(err.value)
        column = 4 + len(chain_text(op, MAX_DEPTH + 1)) + 1
        assert (err.value.line, err.value.column) == (2, column)
    # parentheses let chains stack, and negations add levels: the cap is on the sum
    half = "(%s)" % chain_text("&&", MAX_DEPTH // 2 + 1)
    assert parse_theory("w: %s || c." % half).world[0].right == Atom("c")
    for text in ("w: %s && %s." % (half, chain_text("||", MAX_DEPTH)),
                 "w: %s(%s)." % ("!" * (MAX_NESTING - 1), chain_text("&&", MAX_DEPTH))):
        with pytest.raises(ParseError, match="more than %d levels deep" % MAX_DEPTH):
            parse_theory(text)


def test_make_theory_collapses_duplicates():
    a, b = Atom("a"), Atom("b")
    th = make_theory([a, a, b], [(a, (), b), (a, (), b), (b, (), a)])
    assert len(th.world) == 2
    assert [d.index for d in th.defaults] == [1, 2]
    th2 = parse_theory("w: a.\nw: a.\nd: a : / b.\nd: a : / b.\n")
    assert len(th2.world) == 1
    assert len(th2.defaults) == 1


def test_make_theory_dedup_is_not_quadratic():
    # duplicates collapse by hashing: 16,000 distinct lines of each kind take
    # about a second, where pairwise comparison took minutes
    k = 16_000
    text = ("".join("w: a%d || !b%d.\n" % (i, i) for i in range(k))
            + "".join("d: a%d : b%d / c%d.\n" % (i, i, i) for i in range(k))
            + "w: a0 || !b0.\nd: a1 : b1 / c1.\n")
    t0 = time.perf_counter()
    th = parse_theory(text)
    assert time.perf_counter() - t0 < 30
    assert len(th.world) == len(th.defaults) == k
    assert th.world[0] == Or(Atom("a0"), Not(Atom("b0")))
    assert th.defaults[1].prerequisite == Atom("a1") and th.defaults[1].index == 2
    assert th.atoms.names[:6] == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_format_formula_round_trip_random():
    rng = random.Random(23)
    for _ in range(200):
        f = random_formula(rng, ["a", "b", "c", "d", "e"], 5)
        text = "w: %s.\n" % format_formula(f)
        back = parse_theory(text).world[0]
        assert back == f


def test_format_theory_round_trip():
    text = ("w: !boy || kid.\n"
            "d: adult : !student, !priest / married.\n"
            "d: go : / use_1_2 && at_2.\n")
    th = parse_theory(text)
    again = parse_theory(format_theory(th))
    assert again.world == th.world
    assert again.defaults == th.defaults
