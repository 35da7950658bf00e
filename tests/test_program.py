"""Compiling theories to guard-activated clause programs."""

import random

import pytest

from gadel.formulas import (Atom, Clause, Not, negate_to_cnf, parse_theory,
                            to_cnf)
from gadel.program import (chromosome_from_applied, chromosome_from_mask, compile_theory,
                           gene_masks)
from oracles import active_clauses


def rendered(clauses, program):
    """Each clause as "h1;h2 :- b1,b2" over atom names, sorted."""
    names = program.atom_names
    out = []
    for c in clauses:
        heads = ";".join(names[h] for h in sorted(c.heads)) or "false"
        body = ",".join(names[b] for b in sorted(c.body))
        out.append(heads + " :- " + body if body else heads)
    return sorted(out)


def test_compile_single_default():
    # W = {a}, D = { a : b / c }
    th = parse_theory("w: a.\nd: a : b / c.\n")
    program = compile_theory(th)
    assert program.n_defaults == 1
    assert program.atom_names == ("a", "b", "c")
    assert rendered(program.world, program) == ["a"]
    assert rendered(program.conclusion[0], program) == ["c"]
    assert rendered(program.prereq[0], program) == ["false :- a"]
    assert program.justification_count(1) == 1
    assert rendered(program.justif[0][0], program) == ["b"]


def test_active_clauses_by_query():
    th = parse_theory("w: a.\nd: a : b / c.\n")
    program = compile_theory(th)
    applied = (1, 0)
    base = active_clauses(program, applied)
    assert rendered(base, program) == ["a", "c"]
    # a query adds its own group to the candidate's clauses
    with_prereq = rendered(base + list(program.prereq[0]), program)
    assert with_prereq == ["a", "c", "false :- a"]
    with_justif = rendered(base + list(program.justif[0][0]), program)
    assert with_justif == ["a", "b", "c"]
    unapplied = rendered(active_clauses(program, (0, 0)) + list(program.prereq[0]), program)
    assert unapplied == ["a", "false :- a"]


def test_active_clauses_validates_length():
    th = parse_theory("w: a.\nd: a : b / c.\n")
    program = compile_theory(th)
    with pytest.raises(ValueError):
        active_clauses(program, (1, 0, 1))


def test_compound_parts_normalize():
    th = parse_theory("d: a && b : !c / d && e.\n")
    program = compile_theory(th)
    assert rendered(program.conclusion[0], program) == ["d", "e"]
    # negated prerequisite !(a&&b) is one clause, a goal over both atoms
    assert rendered(program.prereq[0], program) == ["false :- a,b"]
    assert rendered(program.justif[0][0], program) == ["false :- c"]


def test_gene_masks():
    chromosome = (1, 0, 0, 1, 1, 1, 0, 0, 1, 0)
    # bit i-1 of each mask holds one bit of rule i's gene pair
    first, second = gene_masks(chromosome)
    assert (first, second) == (0b10101, 0b00110)
    assert first & ~second == 0b10001  # rules 1 and 5 applied
    assert gene_masks(()) == (0, 0)
    assert gene_masks((True, False, 1, 0)) == (0b11, 0)
    with pytest.raises(TypeError):
        gene_masks((1.0, 0))  # a bit is an int, as an index is
    for bad in ((2, 0), (0, -1), (1, 0, 0, 3)):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            gene_masks(bad)


def test_chromosome_from_applied():
    assert chromosome_from_applied(3, [2]) == (0, 0, 1, 0, 0, 0)
    assert chromosome_from_applied(2, []) == (0, 0, 0, 0)
    assert chromosome_from_applied(6, [1, 4, 6]) == chromosome_from_mask(6, 0b101001)
    with pytest.raises(ValueError):
        chromosome_from_applied(3, [0])
    with pytest.raises(ValueError):
        chromosome_from_applied(3, [4])


def test_applied_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        applied = [i for i in range(1, n + 1) if rng.random() < 0.4]
        mask = sum(1 << (i - 1) for i in applied)
        chromosome = chromosome_from_applied(n, applied)
        assert chromosome == chromosome_from_mask(n, mask)
        first, second = gene_masks(chromosome)
        assert (first, second) == (mask, 0)


def test_justification_free_default():
    th = parse_theory("d: a : / b.\n")
    program = compile_theory(th)
    assert program.justification_count(1) == 0
    assert program.justif[0] == []


def test_program_decomposition_is_complete():
    # every group holds exactly the clause form of its rule part
    th = parse_theory(
        "w: !p || q.\n"
        "w: p.\n"
        "d: q : r, !s / t && u.\n"
        "d: t : / v || w.\n")
    program = compile_theory(th)
    assert len(program.world) == sum(len(to_cnf(f)) for f in th.world) == 2
    for d in th.defaults:
        assert len(program.conclusion[d.index - 1]) == len(to_cnf(d.consequent))
        assert len(program.prereq[d.index - 1]) == len(negate_to_cnf(d.prerequisite))
        assert [len(row) for row in program.justif[d.index - 1]] == [
            len(to_cnf(beta)) for beta in d.justifications]
    assert [len(g) for g in program.conclusion] == [2, 1]
    assert program.atom_count == len(program.atom_names) == 8
