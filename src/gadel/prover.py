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

Every closure is computed by propagation over watch lists (Dowling &
Gallier, J. Logic Programming 1, 1984).  The compiled program lists each
one-head clause of the world with a body under every atom of that body
(`program.watch_index`); a session whose applied consequents add such
clauses indexes its own.  A closure always starts from a set already
closed under those clauses plus some new atoms: the facts from nothing,
the over-approximation from the closure plus the disjunctive heads, a
query's closure from the base closure, and a model-generation child from
its parent plus one head.  Only the clauses listed under an added atom
are visited, so the cost follows the atoms added, not the program size.
The query group's few one-head clauses are not indexed; they are
rescanned each time the added atoms have all been visited.  A closure
is a least fixpoint, so the visiting order changes no mask.

`CandidateQuerySession` is the entry point and `answer` its one query: it
gathers the candidate theory's split groups (see `program.split_clauses`,
built at compile time) once and answers every question about that
candidate by overlaying one of the program's interned query groups
(`program.query_groups`): a prerequisite, a justification, the empty
group for consistency, or "<- a" for the entailment of atom a.  Every
clause reaches the prover as a (heads, body) pair of atom-id masks from
`to_cnf`, sorted into one-head clauses, constraints and disjunctive
clauses by `program.split_clauses`.  A session opens on the applied rules
as a rule mask, bit i-1 for rule i.

A session decides each query group at most once and keeps the answer.
That is exact: a decision depends only on the candidate, the group and
the budget, and every model-generation search starts with the full
budget.  The session's base also records whether the closure violates no
disjunctive clause and whether the over-approximated closure fires a
constraint.  A group of constraints only, or of facts already in the
closure, then needs no closure of its own, and one of facts already in
the over-approximated closure needs one closure instead of two.

Budgets cap the branch nodes (max_depth) and the splits (max_splits) of
one model-generation search.  A search cut short reports BUDGET_EXHAUSTED
rather than guessing.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .program import ClauseProgram, watch_index


class ProofOutcome(enum.Enum):
    PROVED = "proved"
    NOT_PROVED = "not_proved"
    BUDGET_EXHAUSTED = "budget_exhausted"


class ProofBudget(namedtuple("ProofBudget", "max_depth max_splits", defaults=(10_000, 64))):
    """Hard caps for one refutation: branch nodes and case splits."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_depth <= 0 or self.max_splits <= 0:
            raise ValueError("budget limits must be positive")
        return self


DEFAULT_BUDGET = ProofBudget()


# ---------------------------------------------------------------------------
# atom-set operations over tuples of split-group parts


def _propagate(m: int, new: int, watch, watched: int, qdefs=()) -> int:
    """The least superset of m | new closed under the watched one-head
    clauses and qdefs, where m is already closed under the watched ones.

    `watch` lists the watched clauses under each of their body atoms, and
    `watched` is the mask of those atoms.  Only the clauses listed under an
    atom added since m are visited; qdefs is scanned each time the added
    atoms have all been visited."""
    m |= new
    new &= watched
    while True:
        while new:
            b = new & -new
            new ^= b
            for hb, bm in watch[b]:
                if not (m & hb) and not (bm & ~m):
                    m |= hb
                    new |= hb & watched
        for hb, bm in qdefs:
            if not (m & hb) and not (bm & ~m):
                m |= hb
                new |= hb & watched
        if not new:
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


def _engine(base, qdefs, qnegs, qdisj, m: int, budget: ProofBudget) -> ProofOutcome:
    """Model generation from the closure m of the base clauses plus the
    query group, which fires no constraint."""
    defs, negs, disj, watch, watched = base[:5]
    negs, disj = (negs, qnegs), (disj, qdisj)
    need = _relevant((defs, qdefs), negs, disj)
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
            branches.append(_propagate(m, hb, watch, watched, qdefs))
    return ProofOutcome.PROVED


def _base(defs, negs, disj, watch):
    """Forward-chaining state of a fixed clause set: its split lists, the
    watch index of its one-head clauses (see `program.watch_index`) and the
    mask of atoms it lists, the closure m0, the over-approximated closure
    mplus, whether m0 fires a constraint, whether m0 violates no disjunctive
    clause, and whether mplus fires a constraint."""
    watched = sum(watch)  # the keys are distinct atom bits
    facts = 0
    for hb, bm in defs:
        if not bm:
            facts |= hb
    m0 = _propagate(0, facts, watch, watched)
    if _fired(m0, (negs,)):
        return defs, negs, disj, watch, watched, m0, m0, True, False, True  # only the flag is read
    mplus = _propagate(m0, _disj_heads((disj,)) & ~m0, watch, watched)
    return (defs, negs, disj, watch, watched, m0, mplus, False, not _violated(m0, (disj,)),
            _fired(mplus, (negs,)))


def _decide(base, qdefs, qnegs, qdisj, budget: ProofBudget) -> ProofOutcome:
    """PROVED iff the base clauses plus the query group are unsatisfiable."""
    _defs, negs, disj, watch, watched, m0, mplus, fired, model0, fired_plus = base
    if fired:
        return ProofOutcome.PROVED  # the base alone fires a constraint
    grown = 0
    for hb, _bm in qdefs:
        grown |= hb
    m = _propagate(m0, 0, watch, watched, qdefs) if grown & ~m0 else m0
    # a base constraint fires on m only if m grew past m0 and, since m0 and
    # mplus are closed, past mplus or while mplus fires one
    if _fired(m, (negs, qnegs) if m != m0 and (fired_plus or m & ~mplus) else (qnegs,)):
        return ProofOutcome.PROVED  # closed by forward chaining
    if not _violated(m, (qdisj,) if m == m0 and model0 else (disj, qdisj)):
        return ProofOutcome.NOT_PROVED  # closure is a model
    if qdisj or grown & ~mplus:
        top = _propagate(mplus, (m | _disj_heads((qdisj,))) & ~mplus, watch, watched, qdefs)
        reach = _fired(top, (negs, qnegs))
    else:  # mplus is closed under the query's clauses too
        reach = fired_plus or _fired(mplus, (qnegs,))
    if not reach:
        return ProofOutcome.NOT_PROVED  # no constraint reachable
    return _engine(base, qdefs, qnegs, qdisj, m, budget)


# ---------------------------------------------------------------------------
# program-level interface


class CandidateQuerySession:
    """Shared forward-chaining state for many queries on one candidate.

    The candidate theory, W plus the consequents of the rule mask
    `applied` (bit i-1 for rule i), is fixed, so its split groups, closure
    and over-approximated closure are gathered once, and each query only
    overlays its own small split group.
    """

    def __init__(self, program: ClauseProgram, applied: int, budget: ProofBudget = DEFAULT_BUDGET):
        self.program = program
        self.budget = budget
        defs, negs, disj = [list(g) for g in program.world_split]
        own_watch = applied and applied & program.watched_rules  # else share the world's index
        while applied:  # consequent groups in ascending rule order
            low = applied & -applied
            applied ^= low
            gd, gn, gj = program.conclusion_split[low.bit_length() - 1]
            defs.extend(gd)
            negs.extend(gn)
            disj.extend(gj)
        watch = watch_index(defs) if own_watch else program.world_watch
        self._base = _base(defs, negs, disj, watch)
        # forward chaining alone refutes the candidate: every query is PROVED
        self.chained_inconsistent = self._base[7]
        self._answers: list[ProofOutcome | None] = [None] * len(program.query_groups)

    def answer(self, qid: int) -> ProofOutcome:
        """PROVED iff the candidate theory plus the program's query group
        `qid` is unsatisfiable; each group is decided once per session."""
        got = self._answers[qid]
        if got is None:
            qdefs, qnegs, qdisj = self.program.query_groups[qid]
            got = self._answers[qid] = _decide(self._base, qdefs, qnegs, qdisj, self.budget)
        return got
