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
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Clause, DefaultTheory
from .program import (ClauseProgram, active_clauses, applied_indices,
                      chromosome_from_applied, compile_theory)
from .prover import (DEFAULT_BUDGET, CandidateQuerySession, ProofBudget,
                     ProofOutcome, refute_clauses)


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


def _justifications_ok(program: ClauseProgram, session: CandidateQuerySession) -> list[bool]:
    """Per rule: no justification is refuted by the candidate theory."""
    ok = []
    for i in range(1, program.n_defaults + 1):
        good = True
        for j in range(1, program.justification_count(i) + 1):
            got = session.justification_refuted(i, j)
            if got is ProofOutcome.BUDGET_EXHAUSTED:
                raise _Undecided("justification %d of rule %d not decided within budget" % (j, i))
            if got is ProofOutcome.PROVED:
                good = False
                break
        ok.append(good)
    return ok


def _staged_fixpoint(program: ClauseProgram, justif_ok: list[bool],
                     budget: ProofBudget) -> tuple[frozenset[int], ...]:
    """Admission stages from the empty set up to the fixpoint."""
    stage: frozenset[int] = frozenset()
    trace = [stage]
    while True:
        session = CandidateQuerySession(program, stage, budget)
        grown = set(stage)
        for i in range(1, program.n_defaults + 1):
            if i in grown or not justif_ok[i - 1]:
                continue
            got = session.prereq_proved(i)
            if got is ProofOutcome.BUDGET_EXHAUSTED:
                raise _Undecided("prerequisite of rule %d not decided within budget" % i)
            if got is ProofOutcome.PROVED:
                grown.add(i)
        if len(grown) == len(stage):
            return tuple(trace)
        stage = frozenset(grown)
        trace.append(stage)


def _derived_atoms(program: ClauseProgram, base: list[Clause],
                   budget: ProofBudget) -> tuple[str, ...] | None:
    if program.atom_count > 64:
        return None
    names = []
    for aid in range(program.atom_count):
        got = refute_clauses(base + [Clause(frozenset(), frozenset((aid,)))], budget)
        if got is ProofOutcome.BUDGET_EXHAUSTED:
            return None
        if got is ProofOutcome.PROVED:
            names.append(program.atom_names[aid])
    return tuple(sorted(names))


def _rules_word(indices) -> str:
    return "rule%s %s" % ("" if len(indices) == 1 else "s",
                          ", ".join(str(i) for i in sorted(indices)))


def verify(theory: DefaultTheory, chromosome, budget: ProofBudget = DEFAULT_BUDGET,
           program: ClauseProgram | None = None) -> ExtensionCertificate | Rejection:
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
    if program is None:
        program = compile_theory(theory)
    n = program.n_defaults
    if len(chromosome) != 2 * n:
        raise ValueError("chromosome length %d, expected %d" % (len(chromosome), 2 * n))
    if any(bit not in (0, 1) for bit in chromosome):
        raise ValueError("chromosome bits must be 0 or 1")
    applied = applied_indices(chromosome)
    full = CandidateQuerySession(program, applied, budget)
    try:
        justif_ok = _justifications_ok(program, full)
        trace = _staged_fixpoint(program, justif_ok, budget)
    except _Undecided as stop:
        return Rejection("undecided", str(stop))
    fixpoint = trace[-1]
    base = active_clauses(program, chromosome, None)
    sat = refute_clauses(base, budget)
    if sat is ProofOutcome.BUDGET_EXHAUSTED:
        return Rejection("undecided", "consistency of the candidate not decided within budget")
    consistent = sat is ProofOutcome.NOT_PROVED

    if fixpoint == applied:
        atoms = _derived_atoms(program, base, budget)
        return ExtensionCertificate(applied, trace, True, consistent, atoms)

    missing = applied - fixpoint
    extra = fixpoint - applied
    blocked = sorted(i for i in missing if not justif_ok[i - 1])
    if blocked:
        if not consistent:
            wsat = refute_clauses(list(program.world), budget)
            about_w = "; the certain knowledge itself is inconsistent" \
                if wsat is ProofOutcome.PROVED else ""
            return Rejection("inconsistent",
                             "the candidate theory is inconsistent, refuting the "
                             "justifications of applied %s%s"
                             % (_rules_word(blocked), about_w))
        return Rejection("blocked-justification",
                         "the candidate theory refutes a justification of applied %s"
                         % _rules_word(blocked))
    if missing:
        circular = []
        for i in sorted(missing):
            got = full.prereq_proved(i)
            if got is ProofOutcome.PROVED:
                circular.append(i)
        if circular:
            detail = ("circular support: %s never admitted by the stages"
                      % _rules_word(circular))
        else:
            detail = "prerequisite of applied %s not derivable" % _rules_word(missing)
        return Rejection("ungrounded", detail)
    return Rejection("missing-applicable",
                     "%s applicable with respect to the candidate but not applied"
                     % _rules_word(extra))


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
    found: list[ExtensionCertificate] = []
    for mask in range(1 << n):
        applied = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        got = verify(theory, chromosome_from_applied(n, applied), budget, program=program)
        if isinstance(got, ExtensionCertificate):
            found.append(got)
    found.sort(key=lambda c: (len(c.applied), tuple(sorted(c.applied))))
    return found
