"""Generated default theories with closed-form extensions, for verify-families.

Each generator returns ``(theory, answer)``: the theory is built from the
public formula types, and ``answer`` is the exact set of applied-rule sets
(as frozensets of 1-based rule indices) of its extensions, worked out from
the family's shape and never by running gadel.  The shapes follow the
DeReS benchmark families (Cholewinski, Marek & Truszczynski, KR 1996):
Nixon diamonds, normal chains, odd and even cycles with Reiter's (1980)
no-extension odd cycle, a case-analysis family, and Hamiltonian cycles on
small digraphs.

``shuffle_rules`` permutes rule order with a seeded generator and maps the
answer along, so a seed changes the inputs but never the known answer.
"""

from __future__ import annotations

import itertools
import random

from gadel.bench import build_hamiltonian, complete_arcs
from gadel.formulas import Atom, Not, Or, make_theory

TRUE = Or(Atom("t"), Not(Atom("t")))  # prerequisite of rules that need none


def _product_answer(pairs):
    """One rule of every pair, in every combination."""
    return {frozenset(pick) for pick in itertools.product(*pairs)}


def nixon_diamonds(k: int):
    """k independent republican/quaker clashes: 2k rules, 2**k extensions."""
    world, defaults, pairs = [], [], []
    for i in range(1, k + 1):
        r, q, p = Atom("r%d" % i), Atom("q%d" % i), Atom("p%d" % i)
        world += [r, q]
        defaults += [(r, [Not(p)], Not(p)), (q, [p], p)]
        pairs.append((2 * i - 1, 2 * i))
    return make_theory(world, defaults), _product_answer(pairs)


def normal_chain(n: int):
    """a0, then a(i-1) : a(i) / a(i): one extension applying all n rules in n stages."""
    defaults = [(Atom("a%d" % (i - 1)), [Atom("a%d" % i)], Atom("a%d" % i))
                for i in range(1, n + 1)]
    return make_theory([Atom("a0")], defaults), {frozenset(range(1, n + 1))}


def cycle(n: int):
    """Rules ``: !x(i+1) / x(i)`` around a ring of n atoms.

    An even ring has two extensions, the odd- and the even-numbered rules;
    an odd ring has none, since every candidate blocks or misses a rule.
    """
    defaults = [(TRUE, [Not(Atom("x%d" % (i % n + 1)))], Atom("x%d" % i))
                for i in range(1, n + 1)]
    if n % 2:
        answer = set()
    else:
        answer = {frozenset(range(1, n + 1, 2)), frozenset(range(2, n + 1, 2))}
    return make_theory([], defaults), answer


def case_split(k: int):
    """k clashes whose prerequisite c(i) follows from W only by cases.

    W holds a(i) || b(i), a(i) -> c(i) and b(i) -> c(i); the rules are
    c(i) : d(i) / d(i) and c(i) : !d(i) / !d(i).  Every prerequisite needs
    a case split on a(i) || b(i), and the extensions take one rule of each
    clash: 2**k of them.
    """
    world, defaults, pairs = [], [], []
    for i in range(1, k + 1):
        a, b, c, d = (Atom("%s%d" % (s, i)) for s in "abcd")
        world += [Or(a, b), Or(Not(a), c), Or(Not(b), c)]
        defaults += [(c, [d], d), (c, [Not(d)], Not(d))]
        pairs.append((2 * i - 1, 2 * i))
    return make_theory(world, defaults), _product_answer(pairs)


def hamiltonian_cycles(n_vertices: int, arcs):
    """Directed Hamiltonian cycles by brute force over vertex orders.

    Returns the arc sets of all cycles through every vertex, each cycle
    once (vertex 1 fixed first).
    """
    arcs = set(arcs)
    found = []
    for rest in itertools.permutations(range(2, n_vertices + 1)):
        order = (1,) + rest
        hops = [(order[k], order[(k + 1) % n_vertices]) for k in range(n_vertices)]
        if all(h in arcs for h in hops):
            found.append(frozenset(hops))
    return found


def digraph(n_vertices: int, arcs):
    """gadel's Hamiltonian encoding of a digraph, answered by brute force.

    The encoding gives arc rules first, in sorted arc order, then one
    watchdog per vertex; an extension applies exactly the arc rules of one
    Hamiltonian cycle.
    """
    theory = build_hamiltonian(n_vertices, arcs)
    index = {arc: i for i, arc in enumerate(sorted(set(arcs)), start=1)}
    answer = {frozenset(index[a] for a in cyc)
              for cyc in hamiltonian_cycles(n_vertices, arcs)}
    return theory, answer


def random_digraph(rng: random.Random, n_vertices: int = 4, n_arcs: int = 8):
    """n_arcs distinct arcs of the complete digraph, drawn by rng."""
    return sorted(rng.sample(complete_arcs(n_vertices), n_arcs))


def shuffle_rules(theory, answer, rng: random.Random):
    """The same theory with its rules in a seeded order, and the mapped answer."""
    order = list(range(1, theory.n_defaults + 1))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order, start=1)}
    triples = [(d.prerequisite, d.justifications, d.consequent)
               for d in (theory.defaults[old - 1] for old in order)]
    shuffled = make_theory(theory.world, triples)
    mapped = {frozenset(new_index[i] for i in ext) for ext in answer}
    return shuffled, mapped


def verify_families(seed: int):
    """(name, theory, answer) rows of the verify-families workload.

    Every theory stays within enumerate_extensions' 12-rule cap.  The seed
    shuffles rule order and draws two random 4-vertex digraphs with 8 arcs;
    the family shapes and sizes are fixed.
    """
    rng = random.Random(seed)
    rows = [
        ("diamonds-6", *nixon_diamonds(6)),
        ("chain-12", *normal_chain(12)),
        ("cycle-11", *cycle(11)),
        ("cycle-12", *cycle(12)),
        ("case-split-6", *case_split(6)),
        ("two-loops", *digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3)])),
        ("k3", *digraph(3, complete_arcs(3))),
        ("digraph-a", *digraph(4, random_digraph(rng))),
        ("digraph-b", *digraph(4, random_digraph(rng))),
    ]
    return [(name, *shuffle_rules(theory, answer, rng))
            for name, theory, answer in rows]
