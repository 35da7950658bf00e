"""Refutation prover for compiled clause programs.

Queries are decided by contradiction: the candidate theory's clauses
(certain knowledge and applied consequents) plus the query's own group are
checked for unsatisfiability.

Forward chaining settles most queries.  The closure of the one-head
clauses either fires a constraint (proved), or satisfies every clause (a
model: not proved), or an over-approximating closure that assumes every
head of every disjunctive clause still fires no constraint (not proved).

The rest go to model generation (SATCHMO: Manthey & Bry, CADE 1988),
starting from that closure.  A branch is a closed atom set.  It closes
when it fires a constraint; otherwise it splits on its first violated
disjunctive clause, one child per head, each child closed again.  As in
SATCHMORE (Loveland, Reed & Wilson 1995), only clauses with a head that can
help fire a constraint are split on: the relevant atoms are the constraint
bodies plus, until nothing changes, the body of every clause with a
relevant head.  A branch with no relevant violated clause extends to a
model (make every irrelevant atom true), so the answer is not proved; when
every branch has closed, it is proved.  The loop keeps its branches in a
list: no recursion, no process-wide state.

`CandidateQuerySession` is the entry point: it gathers the candidate
theory's split groups (see `program.split_clauses`, built at compile time)
once and answers every question about that candidate (prerequisites,
justifications, consistency, atom entailment) by overlaying at most one
small group.  `refute_clauses` decides a raw clause list through the same
decision function and is the reference path the tests check the session
against.  The session's clause lists are in the order `refute_clauses`
gives the same raw list, so both reach the same verdict with the same
budget use.

Budgets cap the branch nodes (max_depth) and the splits (max_splits) of
one model-generation search.  A search cut short reports BUDGET_EXHAUSTED
rather than guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .program import ClauseProgram, split_clauses


class ProofOutcome(enum.Enum):
    PROVED = "proved"
    NOT_PROVED = "not_proved"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True, slots=True)
class ProofBudget:
    """Hard caps for one refutation: branch nodes and case splits."""

    max_depth: int = 10_000
    max_splits: int = 64

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_splits <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = ProofBudget()


# ---------------------------------------------------------------------------
# atom-set operations over tuples of split-group parts


def _closure(seed: int, def_groups) -> int:
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


def _fired(m: int, neg_groups) -> bool:
    for negs in neg_groups:
        for bm in negs:
            if not (bm & ~m):
                return True
    return False


def _violated(m: int, disj_groups, need: int = -1) -> int:
    """Heads of the first disjunctive clause with a head in `need` that m
    violates, as a mask; 0 if there is none.  By default every head counts."""
    for disj in disj_groups:
        for hm, bm in disj:
            if hm & need and not (bm & ~m) and not (hm & m):
                return hm
    return 0


def _disj_heads(disj_groups) -> int:
    m = 0
    for disj in disj_groups:
        for hm, _bm in disj:
            m |= hm
    return m


def _relevant(def_groups, neg_groups, disj_groups) -> int:
    """Atoms that can help fire a constraint."""
    need = 0
    for negs in neg_groups:
        for bm in negs:
            need |= bm
    changed = True
    while changed:
        changed = False
        for groups in (def_groups, disj_groups):
            for clauses in groups:
                for hm, bm in clauses:
                    if hm & need and bm & ~need:
                        need |= bm
                        changed = True
    return need


def _engine(defs, negs, disj, m: int, budget: ProofBudget) -> ProofOutcome:
    """Model generation from the closure m, which fires no constraint."""
    need = _relevant(defs, negs, disj)
    nodes, splits = budget.max_depth, budget.max_splits
    branches = [m]
    while branches:
        m = branches.pop()
        nodes -= 1
        if nodes < 0:
            return ProofOutcome.BUDGET_EXHAUSTED
        if _fired(m, negs):
            continue  # branch closed
        heads = _violated(m, disj, need)
        if not heads:
            return ProofOutcome.NOT_PROVED  # the branch extends to a model
        splits -= 1
        if splits < 0:
            return ProofOutcome.BUDGET_EXHAUSTED
        while heads:
            hb = heads & -heads
            heads ^= hb
            branches.append(_closure(m | hb, defs))
    return ProofOutcome.PROVED


def _base(defs, negs, disj):
    """Forward-chaining state of a fixed clause set: its split lists, the
    closure, the over-approximated closure, and whether the closure fires."""
    m0 = _closure(0, (defs,))
    mplus = _closure(m0 | _disj_heads((disj,)), (defs,))
    return defs, negs, disj, m0, mplus, _fired(m0, (negs,))


def _decide(base, qdefs, qnegs, qdisj, budget: ProofBudget) -> ProofOutcome:
    """PROVED iff the base clauses plus the query group are unsatisfiable."""
    defs, negs, disj, m0, mplus, fired = base
    m = _closure(m0, (defs, qdefs)) if qdefs else m0
    if m != m0:
        fired = _fired(m, (negs, qnegs))
    else:
        fired = fired or _fired(m, (qnegs,))
    if fired:
        return ProofOutcome.PROVED  # closed by forward chaining
    disj = (disj, qdisj)
    if not _violated(m, disj):
        return ProofOutcome.NOT_PROVED  # closure is a model
    defs, negs = (defs, qdefs), (negs, qnegs)
    if not _fired(_closure(mplus | m | _disj_heads((qdisj,)), defs), negs):
        return ProofOutcome.NOT_PROVED  # no constraint reachable
    return _engine(defs, negs, disj, m, budget)


def refute_clauses(clauses, budget: ProofBudget = DEFAULT_BUDGET) -> ProofOutcome:
    """PROVED iff the clause set is propositionally unsatisfiable."""
    return _decide(_base(*split_clauses(clauses)), (), (), (), budget)


# ---------------------------------------------------------------------------
# program-level interface


class CandidateQuerySession:
    """Shared forward-chaining state for many queries on one candidate.

    The candidate theory (W plus applied consequents) is fixed, so its
    split groups, closure and over-approximated closure are gathered once,
    and each query only overlays its own small split group.  Rule and
    justification indices are 1-based and atom ids 0-based; any other index
    is an IndexError.
    """

    def __init__(self, program: ClauseProgram, applied, budget: ProofBudget = DEFAULT_BUDGET):
        self.program = program
        self.budget = budget
        defs, negs, disj = [list(g) for g in program.world_split]
        for i in sorted(applied):
            gd, gn, gj = program.conclusion_split[i - 1]
            defs.extend(gd)
            negs.extend(gn)
            disj.extend(gj)
        self._base = _base(defs, negs, disj)

    def prereq_proved(self, i: int) -> ProofOutcome:
        """PROVED iff the candidate theory entails rule i's prerequisite."""
        if not 0 < i <= self.program.n_defaults:
            raise IndexError("no default with index %d" % i)
        qdefs, qnegs, qdisj = self.program.prereq_split[i - 1]
        return _decide(self._base, qdefs, qnegs, qdisj, self.budget)

    def justification_refuted(self, i: int, j: int) -> ProofOutcome:
        """PROVED iff the candidate theory refutes justification j of rule i."""
        if not 0 < i <= self.program.n_defaults:
            raise IndexError("no default with index %d" % i)
        rows = self.program.justif_split[i - 1]
        if not 0 < j <= len(rows):
            raise IndexError("default %d has no justification %d" % (i, j))
        qdefs, qnegs, qdisj = rows[j - 1]
        return _decide(self._base, qdefs, qnegs, qdisj, self.budget)

    def consistent(self) -> ProofOutcome:
        """NOT_PROVED iff the candidate theory is satisfiable."""
        return _decide(self._base, (), (), (), self.budget)

    def entails_atom(self, aid: int) -> ProofOutcome:
        """PROVED iff the candidate theory entails atom `aid`."""
        if not 0 <= aid < self.program.atom_count:
            raise IndexError("no atom with id %d" % aid)
        return _decide(self._base, (), (1 << aid,), (), self.budget)
