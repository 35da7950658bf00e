"""Genetic search for candidate extensions.

Each rule of the theory owns a gene pair; pair value (1,0) means "this rule
is applied".  A chromosome therefore names a candidate theory: certain
knowledge plus the consequents of its applied rules.  The fitness of a
chromosome charges a penalty for every rule whose gene pair disagrees with
what the candidate theory itself says about the rule (prerequisite
entailed? some justification refuted?).  A chromosome of fitness zero is
internally coherent, but coherence is not enough: circular chains of rules
can support each other without being derivable from the certain knowledge,
so every zero-fitness candidate is handed to the fixed-point verifier and
only a certified candidate ends the search.

An applied set is a rule mask, bit i-1 for rule i.  The prover verdicts
behind a fitness depend only on it, so a search keeps them in one
`verifier._VerdictCache` keyed by the mask: one row of rule masks, read
bit by bit here, that also holds the set's consistency outcome.  The
verifier's stages read it too.

The population is a set of distinct chromosomes, evaluated in sorted
order.  Each generation selects parents from the ranking, breeds offspring
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
from dataclasses import dataclass

from .formulas import DefaultTheory
from .program import Chromosome, ClauseProgram, chromosome_from_mask, gene_masks
from .prover import DEFAULT_BUDGET, ProofBudget
from .verifier import ExtensionCertificate, Rejection, _VerdictCache, verify


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


def pair_penalty(table: PenaltyTable, pair: tuple[int, int],
                 prereq_proved: bool, justif_refuted: bool) -> float:
    """Penalty of one rule given its gene pair and the two query verdicts."""
    if pair == (1, 0):
        if prereq_proved:
            return table.p2 if justif_refuted else 0.0
        return table.p3 if justif_refuted else table.p4
    # for every other pair only "applicable but not applied" is charged
    if prereq_proved and not justif_refuted:
        if pair == (1, 1):
            return table.p5
        if pair == (0, 1):
            return table.p9
        return table.p13
    return 0.0


@dataclass(frozen=True, slots=True)
class FitnessReport:
    chromosome: Chromosome
    total: float
    applied: int  # rule mask, bit i-1 for rule i
    budget_hits: int

    @property
    def hit_budget(self) -> bool:
        return self.budget_hits > 0


def fitness(program: ClauseProgram, chromosome: Chromosome,
            table: PenaltyTable = UNIT_PENALTIES,
            budget: ProofBudget = DEFAULT_BUDGET,
            _cache: _VerdictCache | None = None) -> FitnessReport:
    """Total penalty of a chromosome; 0 marks a coherent candidate."""
    if len(chromosome) != 2 * program.n_defaults:
        raise ValueError("chromosome length %d, expected %d"
                         % (len(chromosome), 2 * program.n_defaults))
    first, second = gene_masks(chromosome)
    cache = _cache if _cache is not None else _VerdictCache(program, budget)
    row = cache.verdicts(first & ~second)
    return FitnessReport(chromosome, _penalty(table, program.n_defaults, first, second, row),
                         first & ~second, row[3])


def _penalty(table: PenaltyTable, n: int, first: int, second: int, row) -> float:
    """Rule-order sum of pair_penalty over gene masks, given their applied set's row."""
    proved, _exhausted, refuted = row[:3]
    total = 0.0
    for i in range(n):
        total += pair_penalty(table, (first >> i & 1, second >> i & 1),
                              proved >> i & 1, refuted >> i & 1)
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
    zero_fitness_rejected: int
    rejection_reasons: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Exhausted:
    best: FitnessReport
    generations_used: int
    restarts_used: int
    zero_fitness_rejected: int
    rejection_reasons: tuple[tuple[str, int], ...]


SearchOutcome = Found | Exhausted


def initial_population(n_defaults: int, population_size: int,
                       rng: random.Random) -> set[Chromosome]:
    """Random population of min(population_size, 4**n_defaults) distinct members."""
    width = 2 * n_defaults
    target = min(population_size, 1 << width)
    population: set[Chromosome] = set()
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
    while len(population) < target:
        population.add(tuple(rng.randrange(2) for _ in range(width)))
    return population


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
    cur_total = _penalty(table, n, cur, 0, cache.verdicts(cur))
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
            t = _penalty(table, n, trial, 0, cache.verdicts(trial))
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
    reserve = (keep + 1) // 2
    for rep in reports:
        if len(chosen) >= reserve:
            break
        key = rep.applied
        if key not in seen and cache.consistent(key):
            seen.add(key)
            taken.add(rep.chromosome)
            chosen.append(rep.chromosome)
    for rep in reports:
        if len(chosen) >= keep:
            break
        if rep.chromosome in taken:
            continue
        key = rep.applied
        if key not in seen:
            seen.add(key)
            taken.add(rep.chromosome)
            chosen.append(rep.chromosome)
    if len(chosen) < keep:
        for rep in reports:
            if len(chosen) >= keep:
                break
            if rep.chromosome not in taken:
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
    """
    rng = random.Random(params.rng_seed)
    n = program.n_defaults
    cache = _VerdictCache(program, budget)
    keep = max(1, math.ceil(params.selection_fraction * params.population_size))
    population = initial_population(n, params.population_size, rng)
    generations = 0
    restarts = 0
    stalled = 0
    rejected = 0
    reasons: dict[str, int] = {}
    # verdict of verify() depends only on the applied set, so memoize it
    checked: dict[int, ExtensionCertificate | Rejection] = {}
    descended: set[int] = set()
    best: FitnessReport | None = None

    while generations < params.max_generations:
        generations += 1
        reports = [fitness(program, chrom, table, budget, _cache=cache)
                   for chrom in sorted(population)]
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
            on_generation(generations, reports[0].total, mean, len(reports), restarts)
        for rep in reports:
            if rep.total != 0:
                break
            outcome = checked.get(rep.applied)
            if outcome is None:
                outcome = verify(theory, rep.chromosome, budget, program=program,
                                 _cache=cache)
                checked[rep.applied] = outcome
            if isinstance(outcome, ExtensionCertificate):
                return Found(rep.chromosome, outcome, generations, restarts,
                             rejected, _reason_counts(reasons))
            rejected += 1
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
    return Exhausted(best, generations, restarts, rejected, _reason_counts(reasons))


def _reason_counts(reasons: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(reasons.items()))
