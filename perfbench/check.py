"""Answer checks made apart from gadel's prover and verifier.

Formulas are converted to clauses here, from the formula trees alone, and
every question is put to the small DPLL test below.  Nothing from
gadel.prover, gadel.program or gadel.verifier is used, so a fault there
cannot hide itself by also agreeing with the check.

A literal is a non-zero int: +k for atom k, -k for its negation.
"""

from __future__ import annotations

import re

from gadel.formulas import And, Atom, Not


def clauses(f, ids: dict, positive: bool = True) -> list[frozenset[int]]:
    """Clause form of f (of its negation when positive is False).

    Negation is pushed to the atoms and disjunction distributed over
    conjunction; tautological clauses are dropped.  ids maps atom names to
    positive ints and grows as new atoms appear.
    """
    if isinstance(f, Not):
        return clauses(f.operand, ids, not positive)
    if isinstance(f, Atom):
        k = ids.setdefault(f.name, len(ids) + 1)
        return [frozenset((k if positive else -k,))]
    left = clauses(f.left, ids, positive)
    right = clauses(f.right, ids, positive)
    if isinstance(f, And) == positive:
        return left + right
    out = []
    for a in left:
        for b in right:
            c = a | b
            if not any(-lit in c for lit in c):
                out.append(c)
    return out


def _assign(cls, lit):
    """Clauses left after making lit true, or None on an empty clause."""
    out = []
    for c in cls:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
            if not c:
                return None
        out.append(c)
    return out


def satisfiable(cls) -> bool:
    """DPLL: unit propagation, then a split on a literal of a shortest clause."""
    cls = list(cls)
    while cls:
        unit = next((c for c in cls if len(c) == 1), None)
        if unit is None:
            break
        (lit,) = unit
        cls = _assign(cls, lit)
        if cls is None:
            return False
    if not cls:
        return True
    lit = next(iter(min(cls, key=len)))
    for choice in (lit, -lit):
        rest = _assign(cls, choice)
        if rest is not None and satisfiable(rest):
            return True
    return False


class ExtensionCheck:
    """Reiter's conditions for one theory, asked of a claimed applied set."""

    def __init__(self, theory):
        self.ids: dict[str, int] = {}
        self.world = [c for f in theory.world for c in clauses(f, self.ids)]
        rules = theory.defaults
        self.consequent = [clauses(d.consequent, self.ids) for d in rules]
        self.not_prereq = [clauses(d.prerequisite, self.ids, False) for d in rules]
        self.justifs = [[clauses(j, self.ids) for j in d.justifications]
                        for d in rules]
        self.n = len(rules)

    def _base(self, applied) -> list:
        out = list(self.world)
        for i in sorted(applied):
            out += self.consequent[i - 1]
        return out

    def problem(self, applied, trace=None, atoms=None) -> str | None:
        """None when applied generates an extension, else what fails.

        Checks that W plus the applied consequents is consistent, that no
        applied justification is refuted, that every applied rule is
        admitted in a stage whose prerequisite follows from W and the
        earlier stages, and that no unapplied rule is applicable.  When
        given, the certificate's stage trace and extension atoms must
        equal the ones computed here.
        """
        applied = frozenset(applied)
        ext = self._base(applied)
        if not satisfiable(ext):
            return "W plus the applied consequents is inconsistent"

        def justified(i):
            return all(satisfiable(ext + j) for j in self.justifs[i - 1])

        def derivable(base, i):
            return not satisfiable(base + self.not_prereq[i - 1])

        for i in sorted(applied):
            if not justified(i):
                return "applied rule %d has a refuted justification" % i
        stage = frozenset()
        stages = [stage]
        while True:
            base = self._base(stage)
            grown = stage | {i for i in applied - stage if derivable(base, i)}
            if grown == stage:
                break
            stage = grown
            stages.append(stage)
        if stage != applied:
            return "applied rules %s are never admitted by the stages" % sorted(applied - stage)
        for i in range(1, self.n + 1):
            if i not in applied and derivable(ext, i) and justified(i):
                return "unapplied rule %d is applicable" % i
        if trace is not None and tuple(trace) != tuple(stages):
            return "stage trace differs from the stages computed here"
        if atoms is not None:
            want = sorted(name for name, k in self.ids.items()
                          if not satisfiable(ext + [frozenset((-k,))]))
            if sorted(atoms) != want:
                return "extension atoms differ from the ones computed here"
        return None


_ARC = re.compile(r"use_(\d+)_(\d+)\Z")


def rule_arcs(theory) -> dict[int, tuple[int, int]]:
    """Rule index -> arc, read from the use_u_v atom in each consequent."""
    out = {}
    for d in theory.defaults:
        stack = [d.consequent]
        while stack:
            f = stack.pop()
            if isinstance(f, Atom):
                m = _ARC.match(f.name)
                if m:
                    out[d.index] = (int(m.group(1)), int(m.group(2)))
            elif isinstance(f, Not):
                stack.append(f.operand)
            else:
                stack += [f.left, f.right]
    return out


def is_hamiltonian_cycle(n_vertices: int, arcs) -> bool:
    """Do the arcs form one directed cycle through all n vertices?"""
    succ = {}
    for u, v in arcs:
        if u in succ:
            return False
        succ[u] = v
    if len(succ) != n_vertices:
        return False
    here, seen = 1, set()
    for _ in range(n_vertices):
        if here in seen or here not in succ:
            return False
        seen.add(here)
        here = succ[here]
    return here == 1 and len(seen) == n_vertices
