"""Compiled clause programs.

A default theory compiles once into clause groups, each saying when its
clauses participate in a query:

* world clauses are always active;
* the clause form of consequent i is active exactly when the chromosome
  marks rule i as applied (gene pair (1,0));
* the negated prerequisite of rule i is active only for the query "does
  the candidate theory entail prerequisite i";
* the clause form of justification (i, j) is active only for the query
  "does the candidate theory refute justification (i, j)".

Selecting groups at query time replaces re-normalizing formulas for every
chromosome the search evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Clause, DefaultTheory, negate_to_cnf, to_cnf

PREREQ = "prereq"
JUSTIF = "justif"

Chromosome = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Query:
    """A prerequisite or justification query against a candidate theory."""

    kind: str  # PREREQ | JUSTIF
    i: int
    j: int = 0


def prereq_query(i: int) -> Query:
    return Query(PREREQ, i)


def justif_query(i: int, j: int) -> Query:
    return Query(JUSTIF, i, j)


class ClauseProgram:
    """Compiled clause groups: world, and per rule conclusion, prereq, justif.

    Immutable after compile_theory returns it; the prover attaches a cached
    integer-mask view lazily (idempotent, so safe to share between runs).
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
        self._masks = None  # filled by the prover on first use

    def justification_count(self, i: int) -> int:
        return len(self.justif[i - 1])


def _ordered(clauses) -> tuple[Clause, ...]:
    return tuple(sorted(clauses, key=Clause.sort_key))


def compile_theory(theory: DefaultTheory) -> ClauseProgram:
    """Normalize W and every rule part once, each group in Clause.sort_key order."""
    table = theory.atoms
    world = tuple(c for f in theory.world for c in _ordered(to_cnf(f, table)))
    conclusion = [_ordered(to_cnf(d.consequent, table)) for d in theory.defaults]
    prereq = [_ordered(negate_to_cnf(d.prerequisite, table)) for d in theory.defaults]
    justif = [[_ordered(to_cnf(beta, table)) for beta in d.justifications]
              for d in theory.defaults]
    return ClauseProgram(theory, world, conclusion, prereq, justif)


def gene_pair(chromosome: Chromosome, i: int) -> tuple[int, int]:
    """Gene pair of rule i (1-based): bits 2i-1 and 2i of the chromosome."""
    return chromosome[2 * i - 2], chromosome[2 * i - 1]


def applied_indices(chromosome: Chromosome) -> frozenset[int]:
    """Rule indices the chromosome marks applied, i.e. gene pair (1, 0)."""
    return frozenset(
        i for i in range(1, len(chromosome) // 2 + 1)
        if chromosome[2 * i - 2] == 1 and chromosome[2 * i - 1] == 0
    )


def chromosome_from_applied(n_defaults: int, applied) -> Chromosome:
    """Chromosome with gene pair (1,0) on the given indices, (0,0) elsewhere."""
    applied = set(applied)
    stray = [i for i in applied if not 1 <= i <= n_defaults]
    if stray:
        raise ValueError("default indices out of range 1..%d: %s"
                         % (n_defaults, sorted(stray)))
    bits = []
    for i in range(1, n_defaults + 1):
        bits.extend((1, 0) if i in applied else (0, 0))
    return tuple(bits)


def active_clauses(program: ClauseProgram, chromosome: Chromosome, query: Query | None) -> list[Clause]:
    """Clauses live for this chromosome and query, in program order."""
    if len(chromosome) != 2 * program.n_defaults:
        raise ValueError(
            "chromosome length %d, expected %d" % (len(chromosome), 2 * program.n_defaults)
        )
    out = list(program.world)
    for i in range(1, program.n_defaults + 1):
        if gene_pair(chromosome, i) == (1, 0):
            out.extend(program.conclusion[i - 1])
    if query is not None:
        if not 1 <= query.i <= program.n_defaults:
            raise IndexError("no default with index %d" % query.i)
        if query.kind == PREREQ:
            out.extend(program.prereq[query.i - 1])
        else:
            rows = program.justif[query.i - 1]
            if not 1 <= query.j <= len(rows):
                raise IndexError(
                    "default %d has no justification %d" % (query.i, query.j)
                )
            out.extend(rows[query.j - 1])
    return out
