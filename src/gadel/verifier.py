"""Fixed-point certification of candidate extensions.

A chromosome names a candidate theory: the certain knowledge plus the
consequents of its applied rules.  The candidate is a genuine extension
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

An applied set, a stage included, is a rule mask with bit i-1 for rule i
(`program.gene_masks`); it becomes a set of indices only to open a prover
session and in a certificate or a rejection's text.  `_VerdictCache` is
the one store of prover verdicts, keyed by that mask.  The theory an
applied set spans, and so every answer about it, depends only on that set
(and the program and budget).  A row holds three rule masks (prerequisite
proved, prerequisite left undecided by the budget, some justification
refuted), the number of budget hits among those queries, and the
consistency outcome, all from one session.  The search scores a chromosome
from the row of its applied set and reads the same row to tell whether
that set is consistent; the staged closure admits rules from its stages'
rows, and the stages of many candidates pass through the same few sets.  A
stored row is what a fresh session gives, budget exhaustion included, so
sharing it changes no score, certificate or rejection.

`verify` answers its own candidate's justifications, consistency and atoms
from a session of its own, opened with the store's program and budget, and
never stores that candidate's row: an enumeration would otherwise keep one
row per candidate.  A stage row is built only while some admissible rule
(one whose justifications the candidate leaves unrefuted) is still outside
the stage: a stage that has admitted all of them is the fixpoint, and
asking for its row anyway would again add about one row per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import DefaultTheory
from .program import ClauseProgram, chromosome_from_mask, compile_theory, gene_masks
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


class _Undecided(Exception):
    pass


def _rules(mask: int) -> frozenset[int]:
    """Rule indices of a rule mask: bit i-1 is rule i."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _refuted(program: ClauseProgram,
             session: CandidateQuerySession) -> tuple[int, list[tuple[int, int]]]:
    """Mask of rules with a justification the candidate refutes, and the
    (rule, justification) pairs left undecided before a rule's first refuted one."""
    refuted = 0
    undecided = []
    for i in range(1, program.n_defaults + 1):
        for j in range(1, program.justification_count(i) + 1):
            got = session.justification_refuted(i, j)
            if got is ProofOutcome.PROVED:
                refuted |= 1 << (i - 1)
                break
            if got is ProofOutcome.BUDGET_EXHAUSTED:
                undecided.append((i, j))
    return refuted, undecided


class _VerdictCache:
    """Verdict rows per applied rule mask, shared by every candidate of one
    program and budget."""

    def __init__(self, program: ClauseProgram, budget: ProofBudget):
        self.program = program
        self.budget = budget
        self.store: dict[int, tuple[int, int, int, int, ProofOutcome]] = {}

    def verdicts(self, applied: int) -> tuple[int, int, int, int, ProofOutcome]:
        """(proved, exhausted, refuted, budget hits, consistency) of the theory
        `applied` spans."""
        row = self.store.get(applied)
        if row is None:
            session = CandidateQuerySession(self.program, _rules(applied), self.budget)
            proved = exhausted = 0
            for i in range(1, self.program.n_defaults + 1):
                got = session.prereq_proved(i)
                if got is ProofOutcome.PROVED:
                    proved |= 1 << (i - 1)
                elif got is ProofOutcome.BUDGET_EXHAUSTED:
                    exhausted |= 1 << (i - 1)
            refuted, undecided = _refuted(self.program, session)
            row = (proved, exhausted, refuted, exhausted.bit_count() + len(undecided),
                   session.consistent())
            self.store[applied] = row
        return row

    def consistency(self, applied: int) -> ProofOutcome:
        """NOT_PROVED iff the theory `applied` spans is satisfiable."""
        return self.verdicts(applied)[4]

    def consistent(self, applied: int) -> bool:
        """Whether the candidate theory is satisfiable; budget hits count as no."""
        return self.consistency(applied) is ProofOutcome.NOT_PROVED


def _staged_fixpoint(admissible: int, cache: _VerdictCache) -> list[int]:
    """Stage masks from the empty set up to the fixpoint, admitting only the
    rules of the `admissible` mask."""
    trace = [0]
    while todo := admissible & ~trace[-1]:
        proved, exhausted = cache.verdicts(trace[-1])[:2]
        stuck = exhausted & todo
        if stuck:
            raise _Undecided("prerequisite of rule %d not decided within budget"
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
    for aid in range(program.atom_count):
        got = session.entails_atom(aid)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            return None
        if got is ProofOutcome.PROVED:
            names.append(program.atom_names[aid])
    return tuple(sorted(names))


def _rules_word(mask: int) -> str:
    indices = sorted(_rules(mask))
    return "rule%s %s" % ("" if len(indices) == 1 else "s", ", ".join(map(str, indices)))


def verify(theory: DefaultTheory, chromosome, budget: ProofBudget = DEFAULT_BUDGET,
           program: ClauseProgram | None = None,
           _cache: _VerdictCache | None = None) -> ExtensionCertificate | Rejection:
    """Certify or reject the candidate theory named by a chromosome.

    The applied set is accepted exactly when it equals its own staged
    fixpoint, which makes the certificate sound and complete: certified
    candidates are extensions, and the generating set of every extension
    is certified.  Rejections name the first failure found, checking in
    order: undecided queries, an inconsistent candidate blocking its own
    justifications, individually refuted justifications, applied rules
    never admitted by the stages (ungrounded), and admissible rules the
    chromosome left unapplied.
    """
    cache = _cache or _VerdictCache(program or compile_theory(theory), budget)
    program = cache.program
    n = program.n_defaults
    if len(chromosome) != 2 * n:
        raise ValueError("chromosome length %d, expected %d" % (len(chromosome), 2 * n))
    first, second = gene_masks(chromosome)
    applied = first & ~second
    full = CandidateQuerySession(program, _rules(applied), cache.budget)
    refuted, undecided = _refuted(program, full)
    if undecided:
        i, j = undecided[0]
        return Rejection("undecided",
                         "justification %d of rule %d not decided within budget" % (j, i))
    try:
        trace = _staged_fixpoint(((1 << n) - 1) & ~refuted, cache)
    except _Undecided as stop:
        return Rejection("undecided", str(stop))
    fixpoint = trace[-1]
    sat = full.consistent()
    if sat is ProofOutcome.BUDGET_EXHAUSTED:
        return Rejection("undecided", "consistency of the candidate not decided within budget")
    consistent = sat is ProofOutcome.NOT_PROVED

    if fixpoint == applied:
        return ExtensionCertificate(_rules(applied), tuple([_rules(s) for s in trace]), True,
                                    consistent, _derived_atoms(program, full))

    missing = applied & ~fixpoint
    blocked = missing & refuted
    if blocked:
        if not consistent:
            about_w = "; the certain knowledge itself is inconsistent" \
                if cache.consistency(0) is ProofOutcome.PROVED else ""
            return Rejection("inconsistent",
                             "the candidate theory is inconsistent, refuting the "
                             "justifications of applied %s%s"
                             % (_rules_word(blocked), about_w))
        return Rejection("blocked-justification",
                         "the candidate theory refutes a justification of applied %s"
                         % _rules_word(blocked))
    if missing:
        circular = sum(1 << (i - 1) for i in sorted(_rules(missing))
                       if full.prereq_proved(i) is ProofOutcome.PROVED)
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

    Walks all applied sets, so the rule count is capped at 12.
    """
    program = compile_theory(theory)
    n = program.n_defaults
    if n > 12:
        raise ValueError("exhaustive enumeration is limited to 12 rules, got %d" % n)
    cache = _VerdictCache(program, budget)
    found: list[ExtensionCertificate] = []
    for mask in range(1 << n):
        got = verify(theory, chromosome_from_mask(n, mask), budget,
                     program=program, _cache=cache)
        if isinstance(got, ExtensionCertificate):
            found.append(got)
    found.sort(key=lambda c: (len(c.applied), tuple(sorted(c.applied))))
    return found
