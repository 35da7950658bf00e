"""Fixed-point certification of candidate extensions.

An applied set of rules names a candidate theory: the certain knowledge
plus the consequents of those rules.  The candidate is a genuine extension
exactly when the applied set reproduces itself under the staged closure:
start from nothing and repeatedly admit every rule whose prerequisite
follows from the certain knowledge plus the consequents admitted so far,
and none of whose justifications is refuted by the candidate itself.  The
stages make circular support visible: rules that only support each other
are never admitted, so a candidate leaning on such a cycle fails the set
equality and is rejected as ungrounded.

Set equality with the staged fixpoint is exact.  The fixpoint equals the
set of rules applicable with respect to the candidate, so a certified
applied set is the full generating set of the extension it spans, and two
different certified sets always span different extensions.  This is why
`enumerate_extensions` visits each extension exactly once and needs no
deduplication.

`verify` takes the applied set as 1-based rule indices, the form of a
certificate and of a rejection's text.  Inside, an applied set, a stage
included, is a rule mask with bit i-1 for rule i; it becomes a set of
indices again only to open a prover session.  `_VerdictCache` is the one
store of prover verdicts, keyed by that mask.  The theory an applied set
spans, and so every answer about it, depends only on that set (and the
program and budget).  A row holds three rule masks (prerequisite proved,
prerequisite left undecided by the budget, some justification refuted),
the (rule, justification) pairs left undecided before a rule's first
refuted justification, and the consistency outcome, all from one session;
when forward chaining alone shows the theory inconsistent, every query is
PROVED and the row is filled from masks without asking one.  The search
scores a candidate from the row of its applied set and reads the same row
to tell whether that set is consistent; the staged closure admits rules
from its stages' rows, and the stages of many candidates pass through the
same few sets.  A stored row is what a fresh session gives, budget
exhaustion included, so sharing it changes no score, certificate or
rejection.

`verify` reads its own candidate's row like that of any other applied
set: the undecided justifications, the refuted ones, the consistency, and
for the circular-support check the proved prerequisites.  It opens a
session of its own only to list a certificate's extension atoms, with the
store's program and budget.  An enumeration therefore keeps one row per
candidate, at most 2^12, plus the rows of their stages.  A stage row is
built only while some admissible rule (one whose justifications the
candidate leaves unrefuted) is still outside the stage: a stage that has
admitted all of them is the fixpoint, and needs no row of its own unless
it is a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import DefaultTheory
from .program import ClauseProgram, compile_theory
from .prover import DEFAULT_BUDGET, CandidateQuerySession, ProofBudget, ProofOutcome


@dataclass(frozen=True, slots=True)
class ExtensionCertificate:
    applied: frozenset[int]
    trace: tuple[frozenset[int], ...]
    grounded: bool
    consistent: bool
    extension_atoms: tuple[str, ...] | None


@dataclass(frozen=True, slots=True)
class Rejection:
    reason: str
    detail: str


class UndecidedError(Exception):
    """A question the proof budget left undecided.  `verify` turns it into an
    "undecided" rejection; `enumerate_extensions` raises it, naming the
    candidate's applied set, since that candidate may be an extension."""


def _rules(mask: int) -> frozenset[int]:
    """Rule indices of a rule mask: bit i-1 is rule i."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class _VerdictCache:
    """Verdict rows per applied rule mask, shared by every candidate of one
    program and budget."""

    def __init__(self, program: ClauseProgram, budget: ProofBudget):
        self.program = program
        self.budget = budget
        self.store: dict[int, tuple[int, int, int, tuple, ProofOutcome]] = {}
        # the row of a theory forward chaining refutes: every query is PROVED
        self.inconsistent_row = ((1 << program.n_defaults) - 1, 0,
                                 sum(1 << i for i, ids in enumerate(program.justif_ids) if ids),
                                 (), ProofOutcome.PROVED)

    def verdicts(self, applied: int) -> tuple[int, int, int, tuple, ProofOutcome]:
        """(proved, exhausted, refuted, undecided, consistency) of the theory
        `applied` spans; undecided holds the (rule, justification) pairs left
        undecided before a rule's first refuted justification."""
        row = self.store.get(applied)
        if row is None:
            session = CandidateQuerySession(self.program, _rules(applied), self.budget)
            if session.chained_inconsistent:
                row = self.inconsistent_row
            else:
                proved = exhausted = refuted = 0
                for i, qid in enumerate(self.program.prereq_ids):
                    got = session.answer(qid)
                    if got is ProofOutcome.PROVED:
                        proved |= 1 << i
                    elif got is ProofOutcome.BUDGET_EXHAUSTED:
                        exhausted |= 1 << i
                undecided = []
                for i, ids in enumerate(self.program.justif_ids, 1):
                    for j, qid in enumerate(ids, 1):
                        got = session.answer(qid)
                        if got is ProofOutcome.PROVED:
                            refuted |= 1 << (i - 1)
                            break
                        if got is ProofOutcome.BUDGET_EXHAUSTED:
                            undecided.append((i, j))
                row = (proved, exhausted, refuted, tuple(undecided),
                       session.answer(self.program.consistency_id))
            self.store[applied] = row
        return row

    def consistent(self, applied: int) -> bool:
        """Whether the candidate theory is satisfiable; budget hits count as no."""
        return self.verdicts(applied)[4] is ProofOutcome.NOT_PROVED


def _staged_fixpoint(admissible: int, cache: _VerdictCache) -> list[int]:
    """Stage masks from the empty set up to the fixpoint, admitting only the
    rules of the `admissible` mask."""
    trace = [0]
    while todo := admissible & ~trace[-1]:
        proved, exhausted = cache.verdicts(trace[-1])[:2]
        stuck = exhausted & todo
        if stuck:
            raise UndecidedError("prerequisite of rule %d not decided within budget"
                                 % (stuck & -stuck).bit_length())
        if not proved & todo:
            break
        trace.append(trace[-1] | proved & todo)
    return trace


def _derived_atoms(program: ClauseProgram,
                   session: CandidateQuerySession) -> tuple[str, ...] | None:
    if program.atom_count > 64:
        return None
    names = []
    for name, qid in zip(program.atom_names, program.atom_ids):
        got = session.answer(qid)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            return None
        if got is ProofOutcome.PROVED:
            names.append(name)
    return tuple(sorted(names))


def _rules_word(mask: int) -> str:
    indices = sorted(_rules(mask))
    return "rule%s %s" % ("" if len(indices) == 1 else "s", ", ".join(map(str, indices)))


def verify(theory: DefaultTheory, applied, budget: ProofBudget = DEFAULT_BUDGET,
           program: ClauseProgram | None = None,
           _cache: _VerdictCache | None = None) -> ExtensionCertificate | Rejection:
    """Certify or reject the candidate theory whose applied rules are the
    1-based indices `applied`; ValueError for an index outside 1..n.

    The applied set is accepted exactly when it equals its own staged
    fixpoint, which makes the certificate sound and complete: certified
    candidates are extensions, and the generating set of every extension
    is certified.  Rejections name the first failure found, checking in
    order: undecided queries, an inconsistent candidate blocking its own
    justifications, individually refuted justifications, applied rules
    never admitted by the stages (ungrounded), and admissible rules the
    candidate left unapplied.
    """
    applied = set(applied)
    stray = [i for i in applied if not 1 <= i <= theory.n_defaults]
    if stray:
        raise ValueError("default indices out of range 1..%d: %s"
                         % (theory.n_defaults, sorted(stray)))
    cache = _cache or _VerdictCache(program or compile_theory(theory), budget)
    return _certify(sum(1 << (i - 1) for i in applied), cache)


def _certify(applied: int, cache: _VerdictCache) -> ExtensionCertificate | Rejection:
    """`verify` of the applied rule mask `applied`, with the store's program
    and budget."""
    program = cache.program
    n = program.n_defaults
    proved, _, refuted, undecided, sat = cache.verdicts(applied)
    if undecided:
        i, j = undecided[0]
        return Rejection("undecided",
                         "justification %d of rule %d not decided within budget" % (j, i))
    try:
        trace = _staged_fixpoint(((1 << n) - 1) & ~refuted, cache)
    except UndecidedError as stop:
        return Rejection("undecided", str(stop))
    fixpoint = trace[-1]
    if sat is ProofOutcome.BUDGET_EXHAUSTED:
        return Rejection("undecided", "consistency of the candidate not decided within budget")
    consistent = sat is ProofOutcome.NOT_PROVED

    if fixpoint == applied:
        session = CandidateQuerySession(program, _rules(applied), cache.budget)
        return ExtensionCertificate(_rules(applied), tuple([_rules(s) for s in trace]), True,
                                    consistent, _derived_atoms(program, session))

    missing = applied & ~fixpoint
    blocked = missing & refuted
    if blocked:
        if not consistent:
            about_w = "; the certain knowledge itself is inconsistent" \
                if cache.verdicts(0)[4] is ProofOutcome.PROVED else ""
            return Rejection("inconsistent",
                             "the candidate theory is inconsistent, refuting the "
                             "justifications of applied %s%s"
                             % (_rules_word(blocked), about_w))
        return Rejection("blocked-justification",
                         "the candidate theory refutes a justification of applied %s"
                         % _rules_word(blocked))
    if missing:
        circular = proved & missing
        if circular:
            detail = ("circular support: %s never admitted by the stages"
                      % _rules_word(circular))
        else:
            detail = "prerequisite of applied %s not derivable" % _rules_word(missing)
        return Rejection("ungrounded", detail)
    return Rejection("missing-applicable",
                     "%s applicable with respect to the candidate but not applied"
                     % _rules_word(fixpoint & ~applied))


def certificate_json(certificate: ExtensionCertificate) -> dict:
    """Plain-data form of a certificate, stable under re-serialization."""
    doc = {
        "applied": sorted(certificate.applied),
        "grounded": certificate.grounded,
        "consistent": certificate.consistent,
        "trace": [sorted(stage) for stage in certificate.trace],
    }
    if certificate.extension_atoms is not None:
        doc["extension_atoms"] = list(certificate.extension_atoms)
    return doc


def enumerate_extensions(theory: DefaultTheory,
                         budget: ProofBudget = DEFAULT_BUDGET) -> list[ExtensionCertificate]:
    """Every extension of a small theory, one certificate each.

    Walks all applied sets, so the rule count is capped at 12.  A candidate
    the budget leaves undecided raises UndecidedError: it could be an
    extension, so the list would not be complete without it.
    """
    program = compile_theory(theory)
    n = program.n_defaults
    if n > 12:
        raise ValueError("exhaustive enumeration is limited to 12 rules, got %d" % n)
    cache = _VerdictCache(program, budget)
    found: list[ExtensionCertificate] = []
    for mask in range(1 << n):
        got = _certify(mask, cache)
        if isinstance(got, ExtensionCertificate):
            found.append(got)
        elif got.reason == "undecided":
            raise UndecidedError("applied set {%s}: %s"
                                 % (", ".join(map(str, sorted(_rules(mask)))), got.detail))
    found.sort(key=lambda c: (len(c.applied), tuple(sorted(c.applied))))
    return found
