"""Genetic search for extensions of propositional default theories."""

from .engine import (Exhausted, Found, GaParams, PenaltyTable, SearchOutcome,
                     UNIT_PENALTIES, evolve, fitness)
from .formulas import (And, Atom, Default, DefaultTheory, Formula, Not, Or,
                       ParseError, format_theory, make_theory, parse_theory)
from .program import ClauseProgram, chromosome_from_applied, compile_theory
from .prover import DEFAULT_BUDGET, ProofBudget, ProofOutcome
from .verifier import (ExtensionCertificate, Rejection, UndecidedError, certificate_json,
                       enumerate_extensions, verify)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "ClauseProgram", "Default", "DefaultTheory", "DEFAULT_BUDGET",
    "Exhausted", "ExtensionCertificate", "Formula", "Found", "GaParams", "Not",
    "Or", "ParseError", "PenaltyTable", "ProofBudget", "ProofOutcome",
    "Rejection", "SearchOutcome", "UNIT_PENALTIES", "UndecidedError", "certificate_json",
    "chromosome_from_applied", "compile_theory", "enumerate_extensions",
    "evolve", "fitness", "format_theory", "make_theory",
    "parse_theory", "verify",
]
