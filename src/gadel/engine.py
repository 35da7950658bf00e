"""Genetic search for candidate extensions.

Each rule of the theory owns a gene pair; pair value (1,0) means "this rule
is applied".  A chromosome therefore names a candidate theory: certain
knowledge plus the consequents of its applied rules.  The fitness of a
chromosome charges a penalty for every rule whose gene pair disagrees with
what the candidate theory itself says about the rule (prerequisite
entailed? some justification refuted?).  A chromosome of fitness zero is
internally coherent, but coherence is not enough: circular chains of rules
can support each other without being derivable from the certain knowledge,
so the applied set of every zero-fitness candidate is handed to the
fixed-point verifier and only a certified candidate ends the search.

The gene-pair encoding lives in this module alone: `gene_masks` reads a
chromosome's pairs as two rule masks and `chromosome_from_mask` writes an
applied set back as pairs.  An applied set is a rule mask, bit i-1 for
rule i, and the verifier sees only that set, as rule indices.  The prover
verdicts behind a fitness depend only on it, so a search keeps them in one
`verifier._VerdictCache` keyed by the mask: one row of rule masks that
also holds the set's consistency outcome.  The verifier's stages read it
too.  A chromosome is scored by mask arithmetic: with gene masks `first`
and `second` (one bit of each rule's pair), the applied set is
`first & ~second`, the applicable set is `proved & ~refuted`, and only the
rules where the two differ are charged, lowest rule first.

The population is a set of distinct chromosomes, evaluated in sorted
order; a chromosome that survives from the generation before keeps its
report.  Each generation selects parents from the ranking, breeds offspring
from them until the set is full again, and tops up with fresh random
chromosomes when the survivors cannot produce enough distinct offspring,
so the collapsing of duplicates is what feeds exploration.  A run that
goes `restart_after` generations without a certified answer is reseeded
from scratch, preserving the generation counter.

Selection is rank-based but with two twists, both born from how the
penalty table treats contradictions.  A candidate theory that is
inconsistent proves everything, so every unapplied pair scores zero and
the candidate pays only for its applied rules: two rules with clashing
consequents already score better than any half-assembled honest candidate,
and such dead ends come in enough variations to fill every elite slot.
Half the parent slots are therefore reserved for the best candidates whose
theory is consistent.  The other twist: fitness depends on the applied set
only, and the three zero-penalty states of an unapplied pair would
otherwise fill the ranking with copies of one applied set in different
clothes, so each applied set provides at most one parent.

Breeding is paired with a polish step: once per distinct applied set, the
best satisfiable candidate is walked downhill by single-rule toggles
through satisfiable neighbours and the result joins the ranking.  On
funnel-shaped instances this ends the search within a few generations;
on plateaus the walk stops immediately and the population does the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass

from .formulas import DefaultTheory
from .program import ClauseProgram
from .prover import DEFAULT_BUDGET, ProofBudget
from .verifier import ExtensionCertificate, Rejection, _rules, _VerdictCache, verify

Chromosome = tuple[int, ...]
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit values to binary digits, for gene_masks


def gene_masks(chromosome: Chromosome) -> tuple[int, int]:
    """Rule masks (first, second) of the gene pairs: bit i-1 of each holds one
    bit of rule i's pair, so the applied set is first & ~second."""
    if not set(chromosome) <= {0, 1}:
        raise ValueError("chromosome bits must be 0 or 1")
    # one digit per bit, read backwards from the last pair: rule n's bit leads
    digits = bytes(chromosome).translate(_DIGITS)
    return int(digits[-2::-2] or b"0", 2), int(digits[::-2] or b"0", 2)


def chromosome_from_mask(n_defaults: int, applied: int) -> Chromosome:
    """Chromosome with gene pair (1,0) on the rules of a rule mask, (0,0) elsewhere."""
    # from a list: tuple() over a generator resizes, and resized tuples pile up on a free list
    return tuple([b for i in range(n_defaults) for b in (applied >> i & 1, 0)])


@dataclass(frozen=True, slots=True)
class PenaltyTable:
    """Positive finite weights for the six penalized gene/verdict combinations.

    Row naming follows the position in the 16-row gene/verdict grid:
    rows 2-4 penalize an applied rule that is not cleanly applicable,
    row 5 an (1,1) pair whose rule is applicable, row 9 the same for (0,1),
    row 13 the same for (0,0).
    """

    p2: float = 1.0
    p3: float = 1.0
    p4: float = 1.0
    p5: float = 1.0
    p9: float = 1.0
    p13: float = 1.0

    def __post_init__(self):
        for name in ("p2", "p3", "p4", "p5", "p9", "p13"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("penalty %s must be positive and finite" % name)


UNIT_PENALTIES = PenaltyTable()

# A search refuses a population of more genes than this (members times
# 2 n_defaults) before drawing one; the largest benchmark population, 325
# members on the 39-rule people theory, has 25,350.
MAX_POPULATION_GENES = 1 << 24


@dataclass(frozen=True, slots=True)
class FitnessReport:
    chromosome: Chromosome
    total: float
    applied: int  # rule mask, bit i-1 for rule i
    budget_hits: int


def fitness(program: ClauseProgram, chromosome: Chromosome,
            table: PenaltyTable = UNIT_PENALTIES,
            budget: ProofBudget = DEFAULT_BUDGET,
            _cache: _VerdictCache | None = None) -> FitnessReport:
    """Total penalty of a chromosome; 0 marks a coherent candidate."""
    if len(chromosome) != 2 * program.n_defaults:
        raise ValueError("chromosome length %d, expected %d"
                         % (len(chromosome), 2 * program.n_defaults))
    first, second = gene_masks(chromosome)
    applied = first & ~second
    cache = _cache if _cache is not None else _VerdictCache(program, budget)
    row = cache.verdicts(applied)
    return FitnessReport(chromosome, _penalty(table, first, second, row), applied,
                         row[1].bit_count() + len(row[3]))


def _penalty(table: PenaltyTable, first: int, second: int, row) -> float:
    """Rule-order sum of the penalty grid over gene masks, given their applied
    set's verdict row.

    A rule is charged exactly when being applied and being applicable
    (prerequisite proved, no justification refuted) disagree, so only those
    bits are visited, lowest rule first; the skipped terms are + 0.0 on a
    non-negative total and change no sum.
    """
    proved, _exhausted, refuted = row[:3]
    applied = first & ~second
    charged = applied ^ (proved & ~refuted)
    total = 0.0
    while charged:
        bit = charged & -charged
        charged ^= bit
        if applied & bit:
            total += (table.p2 if proved & bit else table.p3) if refuted & bit else table.p4
        else:  # applicable but unapplied: the pair is (1,1), (0,1) or (0,0)
            total += table.p5 if first & bit else table.p9 if second & bit else table.p13
    return total


@dataclass(frozen=True, slots=True)
class GaParams:
    population_size: int = 100
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    max_generations: int = 500
    restart_after: int = 6
    selection_fraction: float = 0.25
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.max_generations < 1 or self.restart_after < 1:
            raise ValueError("generation limits must be at least 1")
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ValueError("selection_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class Found:
    chromosome: Chromosome
    certificate: ExtensionCertificate
    generations_used: int
    restarts_used: int
    rejection_reasons: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Exhausted:
    best: FitnessReport
    generations_used: int
    restarts_used: int
    rejection_reasons: tuple[tuple[str, int], ...]


SearchOutcome = Found | Exhausted


def initial_population(n_defaults: int, population_size: int,
                       rng: random.Random) -> set[Chromosome]:
    """Random population of min(population_size, 4**n_defaults) distinct members."""
    width = 2 * n_defaults
    return _fill(set(), width, min(population_size, 1 << width), rng)


def _fill(population: set[Chromosome], width: int, target: int,
          rng: random.Random) -> set[Chromosome]:
    """Add random chromosomes of `width` bits until the set holds `target`."""
    while len(population) < target:
        population.add(tuple(rng.randrange(2) for _ in range(width)))
    return population


def _next_population(selected: list[Chromosome], n_defaults: int, params: GaParams,
                     rng: random.Random, target: int) -> set[Chromosome]:
    """Survivors plus bred offspring, topped up with random chromosomes.

    Offspring are drawn in rounds of shuffle-and-pair until the population
    is full again; each pair is crossed at a rule boundary with probability
    crossover_rate and each offspring has one random bit flipped with
    probability mutation_rate.  Duplicates collapse in the set, and a draw
    cap keeps small or converged pools from spinning forever.
    """
    width = 2 * n_defaults
    population = set(selected)
    draws = 0
    limit = 8 * max(target, 1)
    while len(population) < target and draws < limit and len(selected) >= 2:
        pool = list(selected)
        rng.shuffle(pool)
        for k in range(0, len(pool) - 1, 2):
            if len(population) >= target or draws >= limit:
                break
            a, b = pool[k], pool[k + 1]
            if n_defaults >= 2 and rng.random() < params.crossover_rate:
                cut = 2 * rng.randint(1, n_defaults - 1)  # between gene pairs
                a, b = a[:cut] + b[cut:], b[:cut] + a[cut:]
            for chrom in (a, b):
                draws += 1
                if chrom and rng.random() < params.mutation_rate:
                    bits = list(chrom)
                    bits[rng.randrange(width)] ^= 1
                    chrom = tuple(bits)
                if len(population) < target:
                    population.add(chrom)
    return _fill(population, width, target, rng)


def _descend(start: int, table: PenaltyTable, cache: _VerdictCache) -> int:
    """Steepest single-toggle walk downhill from an applied mask.

    Moves toggle one rule in or out and only satisfiable neighbours are
    eligible, so the walk cannot fall into the cheap inconsistent states
    the selection reserve exists for.  Equal-penalty moves are allowed
    (narrow ridges separate many near-extensions from the real one), a
    visited set stops cycling and the step cap bounds plateau wandering;
    the best state seen is returned.  A state scores as the chromosome with
    gene pair (1,0) on its rules and (0,0) elsewhere.
    """
    n = cache.program.n_defaults
    cur = start
    cur_total = _penalty(table, cur, 0, cache.verdicts(cur))
    best, best_total = cur, cur_total
    visited = {cur}
    for _ in range(2 * n):
        if best_total == 0:
            break
        choice = None
        for i in range(n):
            trial = cur ^ (1 << i)
            if trial in visited or not cache.consistent(trial):
                continue
            t = _penalty(table, trial, 0, cache.verdicts(trial))
            if t <= cur_total + 1e-12 and (choice is None or t < choice[0] - 1e-12):
                choice = (t, trial)
        if choice is None:
            break
        cur_total, cur = choice
        visited.add(cur)
        if cur_total < best_total - 1e-12:
            best, best_total = cur, cur_total
    return best


def _select_parents(reports: list[FitnessReport], keep: int,
                    cache: _VerdictCache) -> list[Chromosome]:
    """The best `keep` chromosomes, at most one per applied set, with half
    the slots reserved for candidates whose own theory is consistent.

    Without the reservation, applied sets with clashing consequents crowd
    out every candidate still assembling a real extension; without the
    one-per-applied-set rule, zero-penalty restylings of a single applied
    set do the same.
    """
    chosen: list[Chromosome] = []
    taken: set[Chromosome] = set()
    seen: set[int] = set()
    # (slots to fill, one per applied set, consistent theories only)
    for limit, per_set, reserved in (((keep + 1) // 2, True, True), (keep, True, False),
                                     (keep, False, False)):
        for rep in reports:
            if len(chosen) >= limit:
                break
            if rep.chromosome in taken:
                continue
            if per_set:
                if rep.applied in seen or (reserved and not cache.consistent(rep.applied)):
                    continue
                seen.add(rep.applied)
            taken.add(rep.chromosome)
            chosen.append(rep.chromosome)
    return chosen


def evolve(program: ClauseProgram, theory: DefaultTheory,
           params: GaParams = GaParams(),
           table: PenaltyTable = UNIT_PENALTIES,
           budget: ProofBudget = DEFAULT_BUDGET,
           on_generation=None) -> SearchOutcome:
    """Run the search until a certified extension appears or budgets run out.

    Identical arguments (including rng_seed) give an identical outcome; the
    optional on_generation callback receives (generation index, best
    penalty, mean penalty, cardinality, restarts) once per population.
    ValueError if a total of n_defaults penalties could overflow, or if the
    population would hold more than MAX_POPULATION_GENES genes.
    """
    n = program.n_defaults
    # twice the largest possible total, so rounding in the sum cannot reach inf
    if not math.isfinite(2 * n * max(astuple(table))):
        raise ValueError("penalty weights too large: a total over %d rules could overflow"
                         % n)
    genes = min(params.population_size, 1 << 2 * n) * 2 * n
    if genes > MAX_POPULATION_GENES:
        raise ValueError("population too large: %d members over %d rules hold %d genes, "
                         "more than %d" % (params.population_size, n, genes,
                                           MAX_POPULATION_GENES))
    rng = random.Random(params.rng_seed)
    cache = _VerdictCache(program, budget)
    keep = max(1, math.ceil(params.selection_fraction * params.population_size))
    population = initial_population(n, params.population_size, rng)
    generations = 0
    restarts = 0
    stalled = 0
    reasons: dict[str, int] = {}
    # verdict of verify() depends only on the applied set, so memoize it
    checked: dict[int, ExtensionCertificate | Rejection] = {}
    descended: set[int] = set()
    best: FitnessReport | None = None
    scored: dict[Chromosome, FitnessReport] = {}  # last generation's, reused for survivors

    while generations < params.max_generations:
        generations += 1
        reports = [scored.get(chrom) or fitness(program, chrom, table, budget, _cache=cache)
                   for chrom in sorted(population)]
        scored = {rep.chromosome: rep for rep in reports}
        reports.sort(key=lambda r: (r.total, r.chromosome))
        # polish the best satisfiable candidate, once per distinct start
        start = next((r.applied for r in reports if cache.consistent(r.applied)), None)
        if start is not None and start not in descended:
            descended.add(start)
            polished = _descend(start, table, cache)
            descended.add(polished)
            if polished != start:
                chrom = chromosome_from_mask(n, polished)
                reports.append(fitness(program, chrom, table, budget, _cache=cache))
                reports.sort(key=lambda r: (r.total, r.chromosome))
        if best is None or reports[0].total < best.total:
            best = reports[0]
        if on_generation is not None:
            mean = sum(r.total for r in reports) / len(reports)
            if math.isinf(mean):  # the sum overflowed, though every total is finite
                mean = sum(r.total / len(reports) for r in reports)
            on_generation(generations, reports[0].total, mean, len(reports), restarts)
        for rep in reports:
            if rep.total != 0:
                break
            outcome = checked.get(rep.applied)
            if outcome is None:
                outcome = verify(theory, _rules(rep.applied), budget, program=program,
                                 _cache=cache)
                checked[rep.applied] = outcome
            if isinstance(outcome, ExtensionCertificate):
                return Found(rep.chromosome, outcome, generations, restarts,
                             _reason_counts(reasons))
            reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
        stalled += 1
        if generations >= params.max_generations:
            break
        if stalled >= params.restart_after:
            population = initial_population(n, params.population_size, rng)
            restarts += 1
            stalled = 0
            continue
        selected = _select_parents(reports, keep, cache)
        width = 2 * n
        target = min(params.population_size, 1 << width)
        population = _next_population(selected, n, params, rng, target)

    assert best is not None
    return Exhausted(best, generations, restarts, _reason_counts(reasons))


def _reason_counts(reasons: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(reasons.items()))
