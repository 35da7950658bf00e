"""Refutation prover for compiled clause programs.

Queries are decided by contradiction: the active clauses (certain knowledge,
applied consequents, and the query's own group) are checked for
unsatisfiability.  The engine runs SLD-style backward chaining from the
constraint clauses; when a subgoal can only be supplied by a clause with
several positive literals, that clause is split by case analysis: it is
marked unusable on the branch, every other head is assumed in a child
branch that must re-derive the contradiction, and the search continues with
the reduced one-head clause.  Splitting happens only when a disjunctive
head is actually needed, and all clause bookkeeping is branch-local.

Three sound short-circuits run first so that the common Horn-like queries
never enter the search: a forward-chaining closure that already fires a
constraint (proved), a closure that is a model of every active clause
(not proved), and an over-approximating closure that shows no constraint
can ever fire (not proved).  They never change a verdict, only the time it
takes to reach one.

`CandidateQuerySession` is the entry point: it splits the candidate
theory's compiled clause groups once and answers every question about that
candidate (prerequisites, justifications, consistency, atom entailment) by
overlaying at most one small group.  `refute_clauses` decides a raw clause
list the same way and is the reference path the tests cross-check the
session against; `use_shortcuts=False` there skips the short-circuits.
The session's clause lists are in the order `refute_clauses` gives the
same raw list, so both reach the same verdict with the same budget use.

Budgets cap total resolution steps and case splits.  A search cut short
reports BUDGET_EXHAUSTED rather than guessing.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass

from .program import PREREQ, ClauseProgram, Query, active_clauses, applied_indices


class ProofOutcome(enum.Enum):
    PROVED = "proved"
    NOT_PROVED = "not_proved"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True, slots=True)
class ProofBudget:
    """Hard caps for one refutation: resolution steps and case splits."""

    max_depth: int = 10_000
    max_splits: int = 64

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_splits <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = ProofBudget()


class _BudgetHit(Exception):
    pass


# ---------------------------------------------------------------------------
# clause views: (head id, head bit, body mask, body tuple) for one-head
# clauses, (body mask, body tuple) for constraints, and
# (heads mask, heads tuple, body mask, body tuple) for disjunctive clauses.


def _split_clauses(clauses):
    defs, negs, disj = [], [], []
    for c in clauses:
        if c.heads & c.body:
            continue  # tautology, never constrains anything
        body = tuple(sorted(c.body))
        bm = 0
        for b in body:
            bm |= 1 << b
        if not c.heads:
            negs.append((bm, body))
        elif len(c.heads) == 1:
            (h,) = c.heads
            defs.append((h, 1 << h, bm, body))
        else:
            heads = tuple(sorted(c.heads))
            hm = 0
            for h in heads:
                hm |= 1 << h
            disj.append((hm, heads, bm, body))
    return defs, negs, disj


def _closure(seed: int, def_groups) -> int:
    m = seed
    changed = True
    while changed:
        changed = False
        for defs in def_groups:
            for _h, hb, bm, _bt in defs:
                if not (m & hb) and not (bm & ~m):
                    m |= hb
                    changed = True
    return m


def _fired(m: int, neg_groups) -> bool:
    for negs in neg_groups:
        for bm, _bt in negs:
            if not (bm & ~m):
                return True
    return False


def _violated(m: int, disj_groups) -> bool:
    for disj in disj_groups:
        for hm, _ht, bm, _bt in disj:
            if not (bm & ~m) and not (hm & m):
                return True
    return False


def _disj_heads(disj_groups) -> int:
    m = 0
    for disj in disj_groups:
        for hm, _ht, _bm, _bt in disj:
            m |= hm
    return m


def _engine(defs, negs, disj, budget: ProofBudget) -> ProofOutcome:
    """Exhaustive backward search with case analysis; the authoritative path."""
    _ensure_stack()
    def_by_head: dict[int, list] = {}
    for h, _hb, _bm, bt in defs:
        def_by_head.setdefault(h, []).append(bt)
    disj_by_head: dict[int, list[int]] = {}
    for idx, (_hm, ht, _bm, _bt) in enumerate(disj):
        for h in ht:
            disj_by_head.setdefault(h, []).append(idx)

    counters = [budget.max_depth, budget.max_splits]

    def solve(goal, usable, extras, path, assumed):
        # yields (usable, extras) continuation states for each proof of goal
        gbit = 1 << goal
        if path & gbit:
            return  # ancestor: a goal never waits on itself
        counters[0] -= 1
        if counters[0] < 0:
            raise _BudgetHit
        npath = path | gbit
        for bt in def_by_head.get(goal, ()):
            yield from solve_body(bt, 0, usable, extras, npath, assumed)
        for eh, _ebm, ebt in extras:
            if eh == goal:
                yield from solve_body(ebt, 0, usable, extras, npath, assumed)
        if assumed & gbit:
            yield usable, extras
        for idx in disj_by_head.get(goal, ()):
            if not (usable >> idx) & 1:
                continue
            hm, ht, bm, bt = disj[idx]
            counters[1] -= 1
            if counters[1] < 0:
                raise _BudgetHit
            u2 = usable & ~(1 << idx)
            siblings_ok = True
            for other in ht:
                if other == goal:
                    continue
                if not refute_from(u2, assumed | (1 << other), extras):
                    siblings_ok = False
                    break
            if siblings_ok:
                extras2 = extras + ((goal, bm, bt),)
                yield from solve_body(bt, 0, u2, extras2, npath, assumed)

    def solve_body(bt, k, usable, extras, path, assumed):
        if k == len(bt):
            yield usable, extras
            return
        for u2, e2 in solve(bt[k], usable, extras, path, assumed):
            yield from solve_body(bt, k + 1, u2, e2, path, assumed)

    def refute_from(usable, assumed, extras) -> bool:
        for _bm, bt in negs:
            for _state in solve_body(bt, 0, usable, extras, 0, assumed):
                return True
        return False

    try:
        full = (1 << len(disj)) - 1
        if refute_from(full, 0, ()):
            return ProofOutcome.PROVED
        return ProofOutcome.NOT_PROVED
    except _BudgetHit:
        return ProofOutcome.BUDGET_EXHAUSTED


def refute_clauses(clauses, budget: ProofBudget = DEFAULT_BUDGET,
                   use_shortcuts: bool = True) -> ProofOutcome:
    """PROVED iff the clause set is propositionally unsatisfiable."""
    defs, negs, disj = _split_clauses(clauses)
    if use_shortcuts:
        m0 = _closure(0, (defs,))
        if _fired(m0, (negs,)):
            return ProofOutcome.PROVED  # closed by forward chaining
        if not _violated(m0, (disj,)):
            return ProofOutcome.NOT_PROVED  # closure is a model
        mplus = _closure(m0 | _disj_heads((disj,)), (defs,))
        if not _fired(mplus, (negs,)):
            return ProofOutcome.NOT_PROVED  # no constraint reachable
    return _engine(defs, negs, disj, budget)


def _ensure_stack():
    if sys.getrecursionlimit() < 20_000:
        sys.setrecursionlimit(20_000)


# ---------------------------------------------------------------------------
# program-level interface


def _program_masks(program: ClauseProgram):
    masks = program._masks
    if masks is None:
        masks = {
            "world": _split_clauses(program.world),
            "conclusion": [_split_clauses(g) for g in program.conclusion],
            "prereq": [_split_clauses(g) for g in program.prereq],
            "justif": [[_split_clauses(g) for g in rows] for rows in program.justif],
        }
        program._masks = masks
    return masks


class CandidateQuerySession:
    """Shared forward-chaining state for many queries on one candidate.

    The candidate theory (W plus applied consequents) is fixed, so its
    closure, its over-approximated closure, and the clause partition are
    computed once and each query only overlays its own small clause group.
    """

    def __init__(self, program: ClauseProgram, applied, budget: ProofBudget = DEFAULT_BUDGET):
        self.program = program
        self.budget = budget
        masks = _program_masks(program)
        defs, negs, disj = [list(g) for g in masks["world"]]
        for i in sorted(applied):
            gd, gn, gj = masks["conclusion"][i - 1]
            defs.extend(gd)
            negs.extend(gn)
            disj.extend(gj)
        self.defs = defs
        self.negs = negs
        self.disj = disj
        self._masks = masks
        self.m0 = _closure(0, (defs,))
        self.mplus = _closure(self.m0 | _disj_heads((disj,)), (defs,))
        self.base_fired = _fired(self.m0, (negs,))

    def _decide(self, qdefs, qnegs, qdisj) -> ProofOutcome:
        """PROVED iff the candidate's clauses plus the given group are unsatisfiable."""
        if qdefs:
            m0 = _closure(self.m0, (self.defs, qdefs))
        else:
            m0 = self.m0
        if m0 != self.m0:
            fired = _fired(m0, (self.negs, qnegs))
        else:
            fired = self.base_fired or _fired(m0, (qnegs,))
        if fired:
            return ProofOutcome.PROVED  # closed by forward chaining
        if not _violated(m0, (self.disj, qdisj)):
            return ProofOutcome.NOT_PROVED  # closure is a model
        seed = self.mplus | m0 | _disj_heads((qdisj,))
        mplus = _closure(seed, (self.defs, qdefs))
        if not _fired(mplus, (self.negs, qnegs)):
            return ProofOutcome.NOT_PROVED  # no constraint reachable
        return _engine(self.defs + qdefs, self.negs + qnegs,
                       self.disj + qdisj, self.budget)

    def ask(self, query: Query) -> ProofOutcome:
        if query.kind == PREREQ:
            return self.prereq_proved(query.i)
        return self.justification_refuted(query.i, query.j)

    def prereq_proved(self, i: int) -> ProofOutcome:
        return self._decide(*self._masks["prereq"][i - 1])

    def justification_refuted(self, i: int, j: int) -> ProofOutcome:
        return self._decide(*self._masks["justif"][i - 1][j - 1])

    def consistent(self) -> ProofOutcome:
        """NOT_PROVED iff the candidate theory is satisfiable."""
        return self._decide([], [], [])

    def entails_atom(self, aid: int) -> ProofOutcome:
        """PROVED iff the candidate theory entails atom `aid`."""
        return self._decide([], [(1 << aid, (aid,))], [])


def refute(program: ClauseProgram, chromosome, query: Query,
           budget: ProofBudget = DEFAULT_BUDGET) -> ProofOutcome:
    """Decide one query against the candidate encoded by the chromosome.

    PROVED means the active clause set (see active_clauses) is
    unsatisfiable, i.e. the candidate theory entails the queried formula's
    refutation target.
    """
    # validates chromosome length and query indices the same way the
    # clause-listing interface does
    active_clauses(program, chromosome, query)
    return CandidateQuerySession(program, applied_indices(chromosome), budget).ask(query)


# ---------------------------------------------------------------------------
# independent oracle


def truth_table_unsat(clauses, atom_count: int) -> bool:
    """Exhaustive-assignment unsatisfiability check, independent of the engine.

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


def oracle_entails(clauses, atom_count: int) -> bool:
    """Entailment by exhaustive assignment: the refutation-style question.

    The clause set is expected to already contain the negated query, so
    entailment is plain unsatisfiability of the whole set.
    """
    return truth_table_unsat(clauses, atom_count)
