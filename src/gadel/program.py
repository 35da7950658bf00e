"""Compiled clause programs.

A default theory compiles once into clause groups, each saying when its
clauses participate in a query:

* world clauses are always active;
* the clause form of consequent i is active exactly when rule i is
  applied;
* the negated prerequisite of rule i is active only for the query "does
  the candidate theory entail prerequisite i";
* the clause form of justification (i, j) is active only for the query
  "does the candidate theory refute justification (i, j)";
* two more query groups need no formula: the empty group asks "is the
  candidate theory inconsistent", and the constraint "<- a" asks "does
  it entail atom a".

Selecting groups at query time replaces re-normalizing formulas for every
applied set the search evaluates.  A clause is a (heads, body) pair of
atom-id masks from `to_cnf`.  Every group is split once, at compile time,
into the lists of masks the prover reads, and only that split form is
kept; past the prover, only `rule_strata` reads it, to split the rules
into the strata `verifier.enumerate_extensions` walks.
"""

from __future__ import annotations

from .formulas import DefaultTheory, Not, to_cnf


def split_clauses(clauses) -> tuple[tuple, tuple, tuple]:
    """The split group of a list of (heads, body) mask clauses, the form the
    prover works on: (defs, negs, disj) holds (head bit, body mask) per
    one-head clause, the body mask per constraint, and (heads mask, body
    mask) per clause with several heads, each in list order."""
    defs, negs, disj = [], [], []
    for hm, bm in clauses:
        if not hm:
            negs.append(bm)
        elif hm & (hm - 1) == 0:
            defs.append((hm, bm))
        else:
            disj.append((hm, bm))
    return tuple(defs), tuple(negs), tuple(disj)


def watch_index(defs) -> dict[int, tuple]:
    """The watch index of a split group's one-head clauses: under the bit of
    each atom that occurs in some body, the (head bit, body mask) pairs with
    that atom in the body.  Forward chaining visits a clause only when one
    of its body atoms is added."""
    watch: dict[int, tuple] = {}
    for clause in defs:
        bm = clause[1]
        while bm:
            b = bm & -bm
            bm ^= b
            watch[b] = watch.get(b, ()) + (clause,)
    return watch


class ClauseProgram:
    """Compiled clause groups, each kept only as its split group.

    The world and each rule's consequent are world_split and
    conclusion_split.  Every question a prover session answers is one of
    the distinct query groups, query_groups, named by an id:
    prereq_ids per rule, justif_ids per justification, consistency_id for
    the empty group (is the candidate inconsistent) and atom_ids per atom
    (the constraint "<- a": does the candidate entail a).  Groups that
    split alike share an id, so an atom's entailment may share the id of a
    prerequisite or justification; prerequisite and justification groups
    come first.  The one-head clauses of the world and of each consequent
    are indexed for forward chaining: world_watch indexes the world's, and
    watched_rules is the rule mask (bit i-1 for rule i) of the consequents
    with a one-head clause with a body, whose sessions index their own.
    Nothing changes after compile_theory returns the program, so runs may
    share it.
    """

    def __init__(self, theory: DefaultTheory, world: tuple[tuple[int, int], ...],
                 conclusion: list[list[tuple[int, int]]], prereq: list[list[tuple[int, int]]],
                 justif: list[list[list[tuple[int, int]]]]):
        self.n_defaults = theory.n_defaults
        self.atom_names = tuple(theory.atoms.names)
        self.atom_count = len(self.atom_names)
        self.world_split = split_clauses(world)
        self.conclusion_split = [split_clauses(g) for g in conclusion]
        self.world_watch = watch_index(self.world_split[0])
        self.watched_rules = sum(1 << i for i, g in enumerate(self.conclusion_split)
                                 if any(bm for _hb, bm in g[0]))
        # every query's split group, each distinct one once
        ids: dict[tuple, int] = {}

        def intern(split) -> int:
            return ids.setdefault(split, len(ids))

        self.prereq_ids = tuple([intern(split_clauses(g)) for g in prereq])
        self.justif_ids = tuple([tuple([intern(split_clauses(g)) for g in rows])
                                 for rows in justif])
        self.consistency_id = intern(((), (), ()))
        self.atom_ids = tuple([intern(((), (1 << a,), ())) for a in range(self.atom_count)])
        self.query_groups = tuple(ids)


# All groups of a compiled program together stop at this many clauses; the
# largest benchmark programs have 257 (K5) and 145 (people, man+student).
MAX_PROGRAM_CLAUSES = 16384


def compile_theory(theory: DefaultTheory) -> ClauseProgram:
    """Normalize W and every rule part once, each formula's clauses in sorted
    (heads, body) order; ValueError once the groups together pass
    MAX_PROGRAM_CLAUSES clauses."""
    table = theory.atoms
    total = 0

    def ordered(clauses) -> list[tuple[int, int]]:
        nonlocal total
        total += len(clauses)
        if total > MAX_PROGRAM_CLAUSES:
            raise ValueError("theory has more than %d clauses in clause form" % MAX_PROGRAM_CLAUSES)
        return sorted(clauses)

    world = tuple(c for f in theory.world for c in ordered(to_cnf(f, table)))
    conclusion = [ordered(to_cnf(d.consequent, table)) for d in theory.defaults]
    prereq = [ordered(to_cnf(Not(d.prerequisite), table)) for d in theory.defaults]
    justif = [[ordered(to_cnf(beta, table)) for beta in d.justifications]
              for d in theory.defaults]
    return ClauseProgram(theory, world, conclusion, prereq, justif)


def _split_atoms(split) -> int:
    """The atom mask of a split group."""
    defs, negs, disj = split
    mask = 0
    for m in negs + tuple([hm | bm for hm, bm in defs + disj]):
        mask |= m
    return mask


def rule_strata(program: ClauseProgram) -> list[int]:
    """The rule masks of the program's strata, each after every stratum it
    depends on.

    The atoms of each world clause and of each rule's consequent are joined
    into groups.  A rule depends on itself and on every rule whose
    consequent group holds an atom of its own consequent, prerequisite or
    justifications; closed transitively (Warshall), `needs[i]` is every rule
    that rule i depends on.  The strata are the strongly connected
    components: rules that depend on each other have equal `needs`, and a
    stratum needs strictly more rules than any stratum it depends on."""
    n = program.n_defaults
    groups: list[int] = []  # disjoint atom masks
    defs, negs, disj = program.world_split
    conclusions = [_split_atoms(split) for split in program.conclusion_split]
    for mask in [hm | bm for hm, bm in defs + disj] + list(negs) + conclusions:
        for group in [g for g in groups if g & mask]:
            groups.remove(group)
            mask |= group
        if mask:
            groups.append(mask)
    # the consequent group of each rule, 0 for a tautology
    owner = [next((g for g in groups if g & mask), 0) for mask in conclusions]
    needs = []
    for i in range(n):
        uses = owner[i] | _split_atoms(program.query_groups[program.prereq_ids[i]])
        for qid in program.justif_ids[i]:
            uses |= _split_atoms(program.query_groups[qid])
        needs.append(sum(1 << r for r in range(n) if owner[r] & uses) | 1 << i)
    for k in range(n):
        for i in range(n):
            if needs[i] >> k & 1:
                needs[i] |= needs[k]
    strata: dict[int, int] = {}
    for i in range(n):
        strata[needs[i]] = strata.get(needs[i], 0) | 1 << i
    return [m for _, _, m in sorted((r.bit_count(), m & -m, m) for r, m in strata.items())]
