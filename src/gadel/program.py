"""Compiled clause programs.

A default theory compiles once into clause groups, each saying when its
clauses participate in a query:

* world clauses are always active;
* the clause form of consequent i is active exactly when rule i is
  applied (gene pair (1,0));
* the negated prerequisite of rule i is active only for the query "does
  the candidate theory entail prerequisite i";
* the clause form of justification (i, j) is active only for the query
  "does the candidate theory refute justification (i, j)".

Selecting groups at query time replaces re-normalizing formulas for every
chromosome the search evaluates.  Every group is also split once, at
compile time, into the integer masks the prover reads.  An applied set is
a rule mask, bit i-1 for rule i, read off a chromosome by `gene_masks`.
"""

from __future__ import annotations

from .formulas import Clause, DefaultTheory, negate_to_cnf, to_cnf

Chromosome = tuple[int, ...]
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit values to binary digits, for gene_masks


def split_clauses(clauses) -> tuple[tuple, tuple, tuple]:
    """The integer-mask view of a clause list that the prover works on.

    A split group (defs, negs, disj) holds (head bit, body mask) per
    one-head clause, the body mask per constraint, and (heads mask, body
    mask) per clause with several heads, each in list order; atom id k is
    bit k.  Tautologies are dropped.
    """
    defs, negs, disj = [], [], []
    for c in clauses:
        if c.heads & c.body:
            continue  # tautology, never constrains anything
        bm = 0
        for b in c.body:
            bm |= 1 << b
        hm = 0
        for h in c.heads:
            hm |= 1 << h
        if not c.heads:
            negs.append(bm)
        elif len(c.heads) == 1:
            defs.append((hm, bm))
        else:
            disj.append((hm, bm))
    return tuple(defs), tuple(negs), tuple(disj)


class ClauseProgram:
    """Compiled clause groups: world, and per rule conclusion, prereq, justif.

    Each group also comes as a split group (world_split, conclusion_split,
    prereq_split, justif_split), built once here.  Nothing changes after
    compile_theory returns the program, so runs may share it.
    """

    def __init__(self, theory: DefaultTheory, world: tuple[Clause, ...],
                 conclusion: list[tuple[Clause, ...]], prereq: list[tuple[Clause, ...]],
                 justif: list[list[tuple[Clause, ...]]]):
        self.theory = theory
        self.n_defaults = theory.n_defaults
        self.atom_names = tuple(theory.atoms.names)
        self.atom_count = len(self.atom_names)
        self.world = world
        self.conclusion = conclusion
        self.prereq = prereq
        self.justif = justif
        self.world_split = split_clauses(world)
        self.conclusion_split = [split_clauses(g) for g in conclusion]
        self.prereq_split = [split_clauses(g) for g in prereq]
        self.justif_split = [[split_clauses(g) for g in rows] for rows in justif]

    def justification_count(self, i: int) -> int:
        return len(self.justif[i - 1])


# All groups of a compiled program together stop at this many clauses; the
# largest benchmark programs have 257 (K5) and 145 (people, man+student).
MAX_PROGRAM_CLAUSES = 16384


def compile_theory(theory: DefaultTheory) -> ClauseProgram:
    """Normalize W and every rule part once, each group in Clause.sort_key order;
    ValueError once the groups together pass MAX_PROGRAM_CLAUSES clauses."""
    table = theory.atoms
    total = 0

    def ordered(clauses) -> tuple[Clause, ...]:
        nonlocal total
        total += len(clauses)
        if total > MAX_PROGRAM_CLAUSES:
            raise ValueError("theory has more than %d clauses in clause form" % MAX_PROGRAM_CLAUSES)
        return tuple(sorted(clauses, key=Clause.sort_key))

    world = tuple(c for f in theory.world for c in ordered(to_cnf(f, table)))
    conclusion = [ordered(to_cnf(d.consequent, table)) for d in theory.defaults]
    prereq = [ordered(negate_to_cnf(d.prerequisite, table)) for d in theory.defaults]
    justif = [[ordered(to_cnf(beta, table)) for beta in d.justifications]
              for d in theory.defaults]
    return ClauseProgram(theory, world, conclusion, prereq, justif)


def gene_masks(chromosome: Chromosome) -> tuple[int, int]:
    """Rule masks (first, second) of the gene pairs: bit i-1 of each holds one
    bit of rule i's pair, so the applied set is first & ~second."""
    if not set(chromosome) <= {0, 1}:
        raise ValueError("chromosome bits must be 0 or 1")
    # one digit per bit, read backwards from the last pair: rule n's bit leads
    digits = bytes(chromosome).translate(_DIGITS)
    return int(digits[-2::-2] or b"0", 2), int(digits[::-2] or b"0", 2)


def chromosome_from_applied(n_defaults: int, applied) -> Chromosome:
    """Chromosome with gene pair (1,0) on the given indices, (0,0) elsewhere."""
    applied = set(applied)
    stray = [i for i in applied if not 1 <= i <= n_defaults]
    if stray:
        raise ValueError("default indices out of range 1..%d: %s"
                         % (n_defaults, sorted(stray)))
    return chromosome_from_mask(n_defaults, sum(1 << (i - 1) for i in applied))


def chromosome_from_mask(n_defaults: int, applied: int) -> Chromosome:
    """Chromosome with gene pair (1,0) on the rules of a rule mask, (0,0) elsewhere."""
    # from a list: tuple() over a generator resizes, and resized tuples pile up on a free list
    return tuple([b for i in range(n_defaults) for b in (applied >> i & 1, 0)])
