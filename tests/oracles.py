"""Reference answers the tests check gadel against, built from definitions
alone: formula truth values, truth-table satisfiability, forward chaining
by rescanning every one-head clause, a theory's clause groups rebuilt
from its formulas, a candidate's clause list read straight off its
chromosome, the penalty grid, the tour an applied set of a Hamiltonian
theory selects, and a theory's extensions found by certifying every
applied set.  Clauses are (heads, body) pairs of atom-id masks, as
`to_cnf` returns them; `refute_clauses` decides a raw clause list through
the prover's own decision function."""

import itertools

from gadel.formulas import And, Atom, Not, to_cnf
from gadel.program import compile_theory, split_clauses, watch_index
from gadel.prover import DEFAULT_BUDGET, ProofBudget, ProofOutcome, _base, _decide
from gadel.verifier import UndecidedError, _certify, _rules, _VerdictCache


def bits(mask: int) -> list[int]:
    """Atom ids of a mask, ascending: bit k is atom id k."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


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
    mentioned = 0
    for hm, bm in clauses:
        mentioned |= hm | bm
    occurring = bits(mentioned)
    if any(a >= atom_count for a in occurring):
        raise ValueError("clause mentions an atom id beyond atom_count")
    for values in itertools.product((False, True), repeat=len(occurring)):
        v = dict(zip(occurring, values))
        ok = True
        for hm, bm in clauses:
            if any(v[h] for h in bits(hm)):
                continue
            if any(not v[b] for b in bits(bm)):
                continue
            ok = False
            break
        if ok:
            return False
    return True


def refute_clauses(clauses, budget: ProofBudget = DEFAULT_BUDGET) -> ProofOutcome:
    """PROVED iff the clause set is propositionally unsatisfiable: the
    reference path the tests check `CandidateQuerySession` against.

    It splits the raw clause list with `program.split_clauses` and decides
    it with the prover's `_decide`.  A session's clause lists are in the
    order this function gives the same raw list, so both reach the same
    verdict with the same budget use.
    """
    defs, negs, disj = split_clauses(clauses)
    return _decide(_base(defs, negs, disj, watch_index(defs)), (), (), (), budget)


def closure(seed: int, def_groups) -> int:
    """The least atom mask containing seed and closed under the one-head
    clauses (head bit, body mask) of def_groups: rescan them all until
    nothing changes."""
    m = seed
    changed = True
    while changed:
        changed = False
        for defs in def_groups:
            for hb, bm in defs:
                if not (m & hb) and not (bm & ~m):
                    m |= hb
                    changed = True
    return m


def applied_rules(chromosome) -> frozenset[int]:
    """Rule indices whose gene pair, bits 2i-1 and 2i, is (1, 0)."""
    return frozenset(i for i in range(1, len(chromosome) // 2 + 1)
                     if tuple(chromosome[2 * i - 2:2 * i]) == (1, 0))


def rule_mask(applied) -> int:
    """Rule mask of 1-based rule indices: bit i-1 is rule i."""
    return sum(1 << (i - 1) for i in applied)


def chromosome_of(n: int, applied) -> tuple[int, ...]:
    """n gene pairs, (1, 0) on the rule indices of applied and (0, 0) elsewhere."""
    return tuple(b for i in range(1, n + 1) for b in ((1, 0) if i in applied else (0, 0)))


def raw_groups(theory):
    """The theory's clause groups (world, conclusion per rule, negated
    prerequisite per rule, justifications per rule), rebuilt with to_cnf in
    compile_theory's order: per formula, the (heads, body) pairs sorted."""
    def form(f) -> tuple:
        return tuple(sorted(to_cnf(f, theory.atoms)))

    world = tuple(c for f in theory.world for c in form(f))
    conclusion = [form(d.consequent) for d in theory.defaults]
    prereq = [form(Not(d.prerequisite)) for d in theory.defaults]
    justif = [[form(beta) for beta in d.justifications] for d in theory.defaults]
    return world, conclusion, prereq, justif


def active_clauses(theory, chromosome) -> list:
    """The candidate theory's clauses: world, then each applied consequent, in rule order."""
    if len(chromosome) != 2 * theory.n_defaults:
        raise ValueError(
            "chromosome length %d, expected %d" % (len(chromosome), 2 * theory.n_defaults)
        )
    applied = applied_rules(chromosome)
    world, conclusion = raw_groups(theory)[:2]
    out = list(world)
    for i in range(1, theory.n_defaults + 1):
        if i in applied:
            out.extend(conclusion[i - 1])
    return out


# every (pair, prereq_proved, justif_refuted) cell of the penalty grid and
# the PenaltyTable weight it charges; the ten cells named None charge nothing
PENALTY_GRID = [
    ((1, 0), True, False, None), ((1, 0), True, True, "p2"),
    ((1, 0), False, True, "p3"), ((1, 0), False, False, "p4"),
    ((1, 1), True, False, "p5"), ((1, 1), True, True, None),
    ((1, 1), False, True, None), ((1, 1), False, False, None),
    ((0, 1), True, False, "p9"), ((0, 1), True, True, None),
    ((0, 1), False, True, None), ((0, 1), False, False, None),
    ((0, 0), True, False, "p13"), ((0, 0), True, True, None),
    ((0, 0), False, True, None), ((0, 0), False, False, None),
]


def grid_penalty(table, pair, proved, refuted) -> float:
    """The weight the grid charges one rule, 0.0 in an uncharged cell."""
    slot, = [s for p, pre, ref, s in PENALTY_GRID
             if (p, pre, ref) == (tuple(pair), bool(proved), bool(refuted))]
    return getattr(table, slot) if slot else 0.0


def tour_from_applied(n_vertices: int, arcs, applied) -> list[int] | None:
    """Vertex order of the cycle selected by an applied set, if it is one."""
    arcs = sorted(set((int(u), int(v)) for u, v in arcs))
    hops = {}
    for i in sorted(applied):
        if i > len(arcs):
            continue  # watchdog rules carry no arc
        u, v = arcs[i - 1]
        if u in hops:
            return None
        hops[u] = v
    tour = [1]
    seen = {1}
    here = 1
    while True:
        here = hops.get(here)
        if here is None or here in seen and here != 1:
            return None
        if here == 1:
            break
        tour.append(here)
        seen.add(here)
    if len(tour) != n_vertices or len(hops) != n_vertices:
        return None
    return tour


def enumerate_every_applied_set(theory, budget: ProofBudget = DEFAULT_BUDGET) -> list:
    """Every extension of a theory of at most 12 rules, found by certifying
    each of its 2^n applied sets: the reference `enumerate_extensions`'
    walk over strata is checked against.  Certificates come in the same
    order, by fewest applied rules and then by rule indices; a candidate the
    budget leaves undecided raises UndecidedError naming its applied set."""
    program = compile_theory(theory)
    n = program.n_defaults
    if n > 12:
        raise ValueError("the applied-set oracle is capped at 12 rules, got %d" % n)
    cache = _VerdictCache(program, budget)
    found = []
    for mask in range(1 << n):
        try:
            got = _certify(mask, cache)
        except UndecidedError as stop:
            raise UndecidedError("applied set {%s}: %s"
                                 % (", ".join(map(str, sorted(_rules(mask)))), stop)) from None
        if got is not None:
            found.append(got)
    found.sort(key=lambda c: (len(c.applied), tuple(sorted(c.applied))))
    return found
