"""The benchmark's three workloads: inputs made from the seed, timed calls, checks.

``setup(name, seed, problems)`` builds a workload's theories and returns
its round: the list of operations one round performs, each a public gadel
call with a judge that checks its output apart from gadel.  Set-up does
everything the timed calls need first: it builds the theories, renames
their atoms with the seed, writes each with ``format_theory`` and reads it
back with ``parse_theory``, compiles it, and opens one empty-candidate
prover session per program (which builds the prover's lazy clause view).

The seed renames atoms on every workload.  Renaming changes atom ids, and
with them clause order inside the prover, but not the verdicts, so a GA
trajectory is the same under every seed: the GA seeds are fixed, and the
GA workloads' generation counts and digests do not depend on ``--seed``.
On verify-families the seed also shuffles rule order and draws two of the
digraphs (see families.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from gadel import bench, engine, formulas, program, prover, verifier
from gadel.formulas import Atom, Not, make_theory

import check
import families

PEOPLE_COMPOUND = (("man", "student"), ("woman", "student"))
PEOPLE_SINGLE = (("boy",), ("girl",), ("man",), ("woman",))
POLISH_SEEDS = range(5)
K5_SEEDS = range(20)


@dataclass
class Judged:
    failed: bool
    problem: str | None
    steps: int  # generations for a GA solve, candidate sets decided for an enumeration
    record: dict  # what the trajectory digest is taken over


@dataclass
class Op:
    label: str
    call: Callable[[], object]  # the timed public gadel call
    judge: Callable[[object], Judged]


def rename_atoms(theory, rng: random.Random):
    """The theory with fresh seeded atom names, and the map back to the old ones."""
    old = list(theory.atoms.names)
    fresh: set[str] = set()
    while len(fresh) < len(old):
        fresh.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)))
    new = sorted(fresh)
    rng.shuffle(new)
    to = dict(zip(old, new))

    def walk(f):
        if isinstance(f, Atom):
            return Atom(to[f.name])
        if isinstance(f, Not):
            return Not(walk(f.operand))
        return type(f)(walk(f.left), walk(f.right))

    renamed = make_theory(
        [walk(f) for f in theory.world],
        [(walk(d.prerequisite), [walk(j) for j in d.justifications], walk(d.consequent))
         for d in theory.defaults])
    return renamed, {v: k for k, v in to.items()}


def prepare(theory, rng: random.Random, problems: list[str]):
    """Set-up of one theory: rename, format, parse back, compile, open a session."""
    renamed, back = rename_atoms(theory, rng)
    parsed = formulas.parse_theory(formulas.format_theory(renamed))
    if parsed != renamed:
        problems.append("parse_theory(format_theory(t)) differs from t")
    compiled = program.compile_theory(parsed)
    prover.CandidateQuerySession(compiled, frozenset())
    return parsed, compiled, back


def _lazy_check(theory):
    made = []

    def get():
        if not made:
            made.append(check.ExtensionCheck(theory))
        return made[0]

    return get


def _certificate_record(cert, back) -> dict:
    atoms = cert.extension_atoms
    return {"applied": sorted(cert.applied),
            "trace": [sorted(stage) for stage in cert.trace],
            "grounded": cert.grounded, "consistent": cert.consistent,
            "extension_atoms": None if atoms is None else sorted(back[a] for a in atoms)}


def ga_op(label, theory, compiled, back, population, restart_after, seed,
          arcs=None) -> Op:
    """One evolve call; its certificate is checked, and for a digraph its tour."""
    params = engine.GaParams(population_size=population, restart_after=restart_after,
                             rng_seed=seed)
    checker = _lazy_check(theory)
    seen: dict = {}

    def judge(out) -> Judged:
        record = {"op": label, "seed": seed, "generations": out.generations_used,
                  "restarts": out.restarts_used}
        if not isinstance(out, engine.Found):
            record["outcome"] = "exhausted"
            return Judged(True, None, out.generations_used, record)
        cert = out.certificate
        chrom = out.chromosome
        record.update(outcome="found", chromosome=list(chrom),
                      certificate=_certificate_record(cert, back))
        key = (cert.applied, cert.trace, cert.extension_atoms)
        if key not in seen:
            seen[key] = checker().problem(cert.applied, cert.trace, cert.extension_atoms)
        problem = seen[key]
        applied = {i for i in range(1, len(chrom) // 2 + 1)
                   if (chrom[2 * i - 2], chrom[2 * i - 1]) == (1, 0)}
        if problem is None and applied != cert.applied:
            problem = "chromosome and certificate name different applied sets"
        if problem is None and arcs is not None:
            tour = [arcs[i] for i in cert.applied if i in arcs]
            if len(tour) != len(cert.applied) or not check.is_hamiltonian_cycle(5, tour):
                problem = "applied rules are not one Hamiltonian cycle"
        if problem is not None:
            problem = "%s seed %d: %s" % (label, seed, problem)
        return Judged(False, problem, out.generations_used, record)

    return Op("%s/seed%d" % (label, seed), lambda: engine.evolve(compiled, theory, params),
              judge)


def enumerate_op(label, theory, back, answer) -> Op:
    """One enumerate_extensions call; its applied sets must equal the closed form."""
    checker = _lazy_check(theory)
    seen: dict = {}

    def judge(certs) -> Judged:
        got = [c.applied for c in certs]
        problem = None
        if len(set(got)) != len(got) or set(got) != answer:
            problem = "%s: %d extensions found, %d expected" % (label, len(got), len(answer))
        for cert in certs:
            key = (cert.applied, cert.trace, cert.extension_atoms)
            if key not in seen:
                seen[key] = checker().problem(cert.applied, cert.trace, cert.extension_atoms)
            if problem is None and seen[key] is not None:
                problem = "%s: %s" % (label, seen[key])
        record = {"op": label, "extensions": [_certificate_record(c, back) for c in certs]}
        return Judged(False, problem, 1 << theory.n_defaults, record)

    return Op(label, lambda: verifier.enumerate_extensions(theory), judge)


def ga_breeding(seed: int, problems: list[str]) -> list[Op]:
    """Compound people sets at the criterion-4 parameters, then K5 twice."""
    rng = random.Random(seed)
    ops = []
    for facts in PEOPLE_COMPOUND:
        theory, compiled, back = prepare(bench.build_people(facts), rng, problems)
        ops.append(ga_op("+".join(facts), theory, compiled, back, 325, 500, 0))
    k5 = bench.build_hamiltonian(5, bench.complete_arcs(5))
    arcs = check.rule_arcs(k5)
    theory, compiled, back = prepare(k5, rng, problems)
    k5_ops = [ga_op("k5", theory, compiled, back, 100, 6, s, arcs) for s in K5_SEEDS]
    # two passes: the median of each K5 solve's two timings steadies solve_s_p50
    return ops + k5_ops + k5_ops


def people_polish(seed: int, problems: list[str]) -> list[Op]:
    """Single-fact people sets at the criterion-5 parameters."""
    rng = random.Random(seed)
    ops = []
    for facts in PEOPLE_SINGLE:
        theory, compiled, back = prepare(bench.build_people(facts), rng, problems)
        ops += [ga_op(facts[0], theory, compiled, back, 153, 6, s) for s in POLISH_SEEDS]
    return ops


def verify_families(seed: int, problems: list[str]) -> list[Op]:
    """Every generated family theory, enumerated once."""
    rng = random.Random(seed)
    ops = []
    for label, theory, answer in families.verify_families(seed):
        parsed, _compiled, back = prepare(theory, rng, problems)
        ops.append(enumerate_op(label, parsed, back, answer))
    return ops


WORKLOADS = {"ga-breeding": ga_breeding, "people-polish": people_polish,
             "verify-families": verify_families}
