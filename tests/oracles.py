"""Reference answers the tests check gadel against, built from definitions
alone: formula truth values, truth-table satisfiability, and a candidate's
clause list read straight off its chromosome."""

import itertools

from gadel.formulas import And, Atom, Not


def evaluate(f, assignment: dict[str, bool]) -> bool:
    """Truth value of f under a total assignment of its atoms."""
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    return evaluate(f.left, assignment) or evaluate(f.right, assignment)


def truth_table_unsat(clauses, atom_count: int) -> bool:
    """Exhaustive-assignment unsatisfiability check, independent of the prover.

    Only atoms that occur in the clauses are enumerated, but the declared
    atom count is capped to keep accidental blowups loud.
    """
    if atom_count > 24:
        raise ValueError("truth-table oracle capped at 24 atoms, got %d" % atom_count)
    clauses = list(clauses)
    occurring = sorted({a for c in clauses for a in c.heads | c.body})
    if any(a >= atom_count for a in occurring):
        raise ValueError("clause mentions an atom id beyond atom_count")
    for values in itertools.product((False, True), repeat=len(occurring)):
        v = dict(zip(occurring, values))
        ok = True
        for c in clauses:
            if any(v[h] for h in c.heads):
                continue
            if any(not v[b] for b in c.body):
                continue
            ok = False
            break
        if ok:
            return False
    return True


def applied_rules(chromosome) -> frozenset[int]:
    """Rule indices whose gene pair, bits 2i-1 and 2i, is (1, 0)."""
    return frozenset(i for i in range(1, len(chromosome) // 2 + 1)
                     if tuple(chromosome[2 * i - 2:2 * i]) == (1, 0))


def active_clauses(program, chromosome) -> list:
    """The candidate theory's clauses: world, then each applied consequent, in rule order."""
    if len(chromosome) != 2 * program.n_defaults:
        raise ValueError(
            "chromosome length %d, expected %d" % (len(chromosome), 2 * program.n_defaults)
        )
    applied = applied_rules(chromosome)
    out = list(program.world)
    for i in range(1, program.n_defaults + 1):
        if i in applied:
            out.extend(program.conclusion[i - 1])
    return out
