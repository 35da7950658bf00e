"""Benchmark theories, the cycle reduction, and batch running."""

import json
import random

import pytest

from gadel import bench
from gadel.bench import (batch_stats, build_hamiltonian, build_nixon,
                         build_people, complete_arcs, run_batch,
                         standard_suite, two_loops_demo)
from gadel.engine import GaParams
from gadel.program import compile_theory
from gadel.verifier import certificate_json, enumerate_extensions, verify
from oracles import raw_groups, tour_from_applied


def test_people_theory_shape():
    t = build_people(["boy"])
    assert len(t.world) == 24          # 23 taxonomy clauses plus the fact
    assert len(t.defaults) == 39
    assert compile_theory(t).atom_count == 51
    assert t.world[0].name == "boy"


def test_people_rejects_unknown_fact():
    with pytest.raises(ValueError):
        build_people(["dog"])


def test_nixon_shape():
    t = build_nixon()
    assert [f.name for f in t.world] == ["republican", "quaker"]
    assert t.n_defaults == 2


def test_triangle_has_two_cycles():
    arcs = complete_arcs(3)
    t = build_hamiltonian(3, arcs)
    assert t.n_defaults == len(arcs) + 3   # arc rules plus one watchdog each
    certs = enumerate_extensions(t)
    assert len(certs) == 2
    tours = sorted(tour_from_applied(3, arcs, c.applied) for c in certs)
    assert tours == [[1, 2, 3], [1, 3, 2]]


def test_path_graph_has_no_cycle():
    t = build_hamiltonian(3, [(1, 2), (2, 3)])
    assert enumerate_extensions(t) == []


def test_two_vertex_round_trip():
    arcs = [(1, 2), (2, 1)]
    certs = enumerate_extensions(build_hamiltonian(2, arcs))
    assert len(certs) == 1
    assert tour_from_applied(2, arcs, certs[0].applied) == [1, 2]


def test_two_loops_demo_has_no_extension():
    assert enumerate_extensions(two_loops_demo()) == []


def test_tour_from_applied_rejects_non_cycles():
    arcs = complete_arcs(3)
    assert tour_from_applied(3, arcs, set()) is None
    # arcs 1->2 and 1->3 leave vertex 1 twice
    first_out = [i + 1 for i, (u, v) in enumerate(arcs) if u == 1]
    assert tour_from_applied(3, arcs, set(first_out)) is None
    # a two-cycle misses vertex 3
    duo = {i + 1 for i, (u, v) in enumerate(arcs) if (u, v) in ((1, 2), (2, 1))}
    assert tour_from_applied(3, arcs, duo) is None


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        build_hamiltonian(1, [])
    with pytest.raises(ValueError):
        build_hamiltonian(3, [(1, 4)])
    with pytest.raises(ValueError):
        build_hamiltonian(3, [(2, 2)])


def test_hamiltonian_clause_count_is_the_compiled_total(monkeypatch):
    # build_hamiltonian counts compile_theory's clauses before it builds a
    # formula: at a cap equal to the to_cnf total the theory is built, one
    # below it is refused with that total
    rng = random.Random(3)
    digraphs = [(3, complete_arcs(3)), (5, complete_arcs(5)), (8, complete_arcs(8)),
                (4, [(1, 2), (2, 1), (3, 4), (4, 3)]), (3, [(1, 2), (2, 3)])]
    digraphs += [(7, [a for a in complete_arcs(7) if rng.random() < 0.4]) for _ in range(3)]
    totals = []
    for n, arcs in digraphs:
        world, conclusion, prereq, justif = raw_groups(build_hamiltonian(n, arcs))
        total = len(world) + sum(map(len, conclusion + prereq)) \
            + sum(len(group) for rows in justif for group in rows)
        totals.append(total)
        monkeypatch.setattr(bench, "MAX_PROGRAM_CLAUSES", total)
        build_hamiltonian(n, arcs)
        monkeypatch.setattr(bench, "MAX_PROGRAM_CLAUSES", total - 1)
        with pytest.raises(ValueError, match="has %d clauses in clause form, more than %d$"
                           % (total, total - 1)):
            build_hamiltonian(n, arcs)
        monkeypatch.undo()
    assert totals[1] == 257  # K5, the largest benchmark program


def test_run_batch_deterministic_and_certified():
    t = build_nixon()
    params = GaParams(population_size=16, max_generations=50, rng_seed=5)
    first = run_batch(t, params, repetitions=3, name="nixon")
    second = run_batch(t, params, repetitions=3, name="nixon")
    assert [r["seed"] for r in first] == [5, 6, 7]
    for a, b in zip(first, second):
        assert {**a, "wall_ms": 0.0} == {**b, "wall_ms": 0.0}
    for rec in first:
        assert rec["outcome"] == "found"
        replay = verify(t, rec["certificate"]["applied"])
        assert certificate_json(replay) == rec["certificate"]


def test_batch_stats_recomputation():
    t = build_nixon()
    params = GaParams(population_size=16, max_generations=50, rng_seed=0)
    records = run_batch(t, params, repetitions=4, name="nixon")
    stats = batch_stats(records)
    wins = [r["generations"] for r in records if r["outcome"] == "found"]
    assert stats["runs"] == 4
    assert stats["found"] == len(wins)
    assert stats["success_rate"] == len(wins) / 4
    assert stats["mean_generations"] == sum(wins) / len(wins)
    assert sum(n for _, n in stats["histogram"]) == len(wins)


def test_batch_stats_empty():
    stats = batch_stats([])
    assert stats == {"runs": 0, "found": 0, "success_rate": 0.0,
                     "mean_generations": None, "median_generations": None,
                     "histogram": []}


def test_record_and_stats_documents():
    t = build_nixon()
    params = GaParams(population_size=16, max_generations=50, rng_seed=0)
    records = run_batch(t, params, repetitions=1, name="nixon")
    doc = records[0]
    assert doc["problem"] == "nixon"
    assert doc["outcome"] == "found"
    assert doc["certificate"]["applied"] in ([1], [2])
    assert isinstance(doc["wall_ms"], float)
    assert json.loads(json.dumps(doc)) == doc
    sdoc = batch_stats(records)
    assert sdoc["runs"] == 1 and sdoc["found"] == 1
    assert sdoc["histogram"] == [[doc["generations"], 1]]
    assert json.loads(json.dumps(sdoc)) == sdoc


def test_record_counts_every_rejection():
    # two-loops has no extension, so every run rejects ungrounded candidates
    params = GaParams(population_size=60, max_generations=25)
    records = run_batch(two_loops_demo(), params, 3, name="two-loops")
    for rec in records:
        assert rec["outcome"] == "exhausted"
        assert "chromosome" not in rec and "certificate" not in rec
        assert dict(rec["rejection_reasons"]).get("ungrounded", 0) > 0
        assert rec["zero_fitness_rejected"] == sum(n for _, n in rec["rejection_reasons"])


def test_standard_suite_rows():
    rows = standard_suite()
    names = [name for name, _, _, _ in rows]
    assert names == ["nixon", "ham-triangle", "ham-two-loops"]
    for _, theory, params, reps in rows:
        assert theory.n_defaults >= 2
        assert reps >= 1
        assert params.rng_seed == 0
