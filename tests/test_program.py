"""Compiling theories to guard-activated clause programs."""

import random

import pytest

from gadel.formulas import Not, parse_theory, to_cnf
from gadel.engine import chromosome_from_mask, gene_masks
from gadel.program import compile_theory, split_clauses
from oracles import active_clauses, bits, chromosome_of, raw_groups


def rendered(clauses, program):
    """Each clause as "h1;h2 :- b1,b2" over atom names, sorted."""
    names = program.atom_names
    out = []
    for hm, bm in clauses:
        heads = ";".join(names[h] for h in bits(hm)) or "false"
        body = ",".join(names[b] for b in bits(bm))
        out.append(heads + " :- " + body if body else heads)
    return sorted(out)


def test_compile_single_default():
    # W = {a}, D = { a : b / c }
    th = parse_theory("w: a.\nd: a : b / c.\n")
    program = compile_theory(th)
    assert program.n_defaults == 1
    assert program.atom_names == ("a", "b", "c")
    # split groups over atom bits a=1, b=2, c=4: the facts a and c, the
    # constraint "<- a" asking for prerequisite a, and the fact b
    assert program.world_split == (((1, 0),), (), ())
    assert program.conclusion_split == [(((4, 0),), (), ())]
    assert program.query_groups[program.prereq_ids[0]] == ((), (1,), ())
    assert [program.query_groups[q] for q in program.justif_ids[0]] == [(((2, 0),), (), ())]


def test_active_clauses_by_query():
    th = parse_theory("w: a.\nd: a : b / c.\n")
    program = compile_theory(th)
    _world, _conclusion, prereq, justif = raw_groups(th)
    applied = (1, 0)
    base = active_clauses(th, applied)
    assert rendered(base, program) == ["a", "c"]
    # a query adds its own group to the candidate's clauses
    with_prereq = rendered(base + list(prereq[0]), program)
    assert with_prereq == ["a", "c", "false :- a"]
    with_justif = rendered(base + list(justif[0][0]), program)
    assert with_justif == ["a", "b", "c"]
    unapplied = rendered(active_clauses(th, (0, 0)) + list(prereq[0]), program)
    assert unapplied == ["a", "false :- a"]


def test_active_clauses_validates_length():
    th = parse_theory("w: a.\nd: a : b / c.\n")
    with pytest.raises(ValueError):
        active_clauses(th, (1, 0, 1))


def test_compound_parts_normalize():
    th = parse_theory("d: a && b : !c / d && e.\n")
    program = compile_theory(th)
    _world, conclusion, prereq, justif = raw_groups(th)
    assert rendered(conclusion[0], program) == ["d", "e"]
    # negated prerequisite !(a&&b) is one clause, a goal over both atoms
    assert rendered(prereq[0], program) == ["false :- a,b"]
    assert rendered(justif[0][0], program) == ["false :- c"]
    # and each group compiles to its split group: atom bits a=1 ... e=16
    assert program.conclusion_split == [(((8, 0), (16, 0)), (), ())]
    assert program.query_groups[program.prereq_ids[0]] == ((), (3,), ())
    assert program.query_groups[program.justif_ids[0][0]] == ((), (4,), ())


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


def test_applied_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        applied = [i for i in range(1, n + 1) if rng.random() < 0.4]
        mask = sum(1 << (i - 1) for i in applied)
        chromosome = chromosome_from_mask(n, mask)
        assert chromosome == chromosome_of(n, applied)
        first, second = gene_masks(chromosome)
        assert (first, second) == (mask, 0)


def test_justification_free_default():
    th = parse_theory("d: a : / b.\n")
    program = compile_theory(th)
    assert program.justif_ids == ((),)
    assert raw_groups(th)[3] == [[]]


def test_program_decomposition_is_complete():
    # every group holds exactly the clause form of its rule part
    th = parse_theory(
        "w: !p || q.\n"
        "w: p.\n"
        "d: q : r, !s / t && u.\n"
        "d: t : / v || w.\n")
    program = compile_theory(th)
    world, conclusion, prereq, justif = raw_groups(th)
    assert len(world) == sum(len(to_cnf(f)) for f in th.world) == 2
    for d in th.defaults:
        assert len(conclusion[d.index - 1]) == len(to_cnf(d.consequent))
        assert len(prereq[d.index - 1]) == len(to_cnf(Not(d.prerequisite)))
        assert [len(row) for row in justif[d.index - 1]] == [
            len(to_cnf(beta)) for beta in d.justifications]
    assert [len(g) for g in conclusion] == [2, 1]
    assert program.atom_count == len(program.atom_names) == 8
    # the program keeps each group as its split group, queries by id
    assert program.world_split == split_clauses(world)
    assert program.conclusion_split == [split_clauses(g) for g in conclusion]
    for i in range(th.n_defaults):
        assert program.query_groups[program.prereq_ids[i]] == split_clauses(prereq[i])
        for qid, group in zip(program.justif_ids[i], justif[i], strict=True):
            assert program.query_groups[qid] == split_clauses(group)


def test_query_groups_are_interned():
    # prerequisite p of rules 1 and 3 and justification q of rules 1 and 2
    # compile to one query group each; the empty consistency group and the
    # atoms' entailment groups "<- a" come after them, and an atom's group
    # shares the id of an equal prerequisite (p, s) or justification (!r)
    th = parse_theory("d: p : q, !r / s.\nd: s : q / t.\nd: p : r / u.\n")
    program = compile_theory(th)
    _world, _conclusion, prereq, justif = raw_groups(th)
    assert program.atom_names == ("p", "q", "r", "s", "t", "u")
    assert program.prereq_ids == (0, 1, 0)
    assert program.justif_ids == ((2, 3), (2,), (4,))
    assert program.consistency_id == 5
    assert program.atom_ids == (0, 6, 3, 1, 7, 8)
    assert len(set(program.query_groups)) == len(program.query_groups) == 9
    assert program.query_groups[program.consistency_id] == ((), (), ())
    for a, qid in enumerate(program.atom_ids):
        assert program.query_groups[qid] == ((), (1 << a,), ())
    assert program.atom_ids[0] == program.prereq_ids[0]  # p: "<- p" either way
    assert split_clauses(justif[0][1]) == program.query_groups[program.atom_ids[2]]  # !r
    for i in range(th.n_defaults):
        assert program.query_groups[program.prereq_ids[i]] == split_clauses(prereq[i])
