"""Spans at gadel's layer boundaries, recorded from the benchmark's side.

The tracer replaces module-level names with timing wrappers: the names a
calling module looks up (``gadel.engine.fitness``, ``gadel.poptree.insert``,
``gadel.verifier.refute_clauses``, ...) and two methods of the prover's
session class.  Each call records a span (name, start, end, parent) in
memory; self time is a span's duration minus its direct children's.
Counters kept at the same boundaries give the cache and decision-path
ratios.  ``restore`` puts every original back.

A name a later version of gadel no longer has is skipped, and its figures
read 0.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("formulas", "program", "poptree", "engine", "prover", "verifier")

_S, _N = ("s", "lower"), ("count", "lower")
# name -> (unit, better) of every figure the traced run prints
PER_LAYER = {
    "formulas.parse_s": _S, "formulas.cnf_s": _S, "formulas.clauses": _N,
    "program.compile_s": _S, "program.applied_indices_calls": _N,
    "program.applied_indices_s": _S,
    "poptree.insert_calls": _N, "poptree.insert_s": _S, "poptree.contains_calls": _N,
    "poptree.contains_s": _S, "poptree.members_s": _S,
    "engine.generations": _N, "engine.fitness_calls": _N, "engine.fitness_self_s": _S,
    "engine.verdict_cache_hit_ratio": ("ratio", "higher"), "engine.consistent_calls": _N,
    "engine.consistency_cache_hit_ratio": ("ratio", "higher"),
    "engine.descend_calls": _N, "engine.descend_s": _S, "engine.breed_s": _S,
    "engine.select_s": _S,
    "prover.sessions": _N, "prover.session_init_s": _S, "prover.ask_calls": _N,
    "prover.ask_s": _S, "prover.engine_calls": _N, "prover.engine_s": _S,
    "prover.refute_clauses_calls": _N, "prover.refute_clauses_s": _S,
    "prover.shortcut_ratio": ("ratio", "higher"), "prover.budget_exhausted": _N,
    "verifier.verify_calls": _N, "verifier.verify_s": _S, "verifier.sessions": _N,
    "verifier.dedup_s": _S, "verifier.rejected_inconsistent": _N,
    "verifier.rejected_blocked-justification": _N, "verifier.rejected_ungrounded": _N,
    "verifier.rejected_missing-applicable": _N, "verifier.rejected_undecided": _N,
    **{"self_s." + module: _S for module in MODULES},
    "trace.overhead_pct": ("%", "lower"), "trace.spans": _N,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._mark = ([], [], [], Counter({"trace.spans": 0}))

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """fn timed as span `name`; after(result) runs outside the span."""
        nid = self._id(name)
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, after=None, listify=False) -> None:
        """Replace owner.attr by a traced wrapper, if owner has it."""
        if owner is None or attr not in vars(owner):
            return
        fn = getattr(owner, attr)
        if listify:  # a generator: time the whole walk, not its creation
            gen = fn
            fn = lambda *args, **kwargs: list(gen(*args, **kwargs))  # noqa: E731
        self._replace(owner, attr, self.wrap(name, fn, after))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace owner.attr by a wrapper that only counts its calls."""
        if owner is None or attr not in vars(owner):
            return
        fn, counts = getattr(owner, attr), self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, counted)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- figures -----------------------------------------------------------

    def mark(self) -> None:
        """Remember the figures so far: the set-up part of a traced run."""
        self._mark = (list(self.calls), list(self.total), list(self.self_time),
                      Counter(self.counts, **{"trace.spans": len(self.span_start)}))

    def per_round(self, rounds: int) -> tuple[dict, Counter]:
        """Figures for the marked set-up plus one of the `rounds` rounds after it.

        Returns {span name: (calls, total s, self s)} and the counters.
        """
        calls, total, self_time, counts = self._mark

        def part(now, before, nid):
            then = before[nid] if nid < len(before) else 0
            return then + (now[nid] - then) / rounds

        spans = {name: (part(self.calls, calls, nid), part(self.total, total, nid),
                        part(self.self_time, self_time, nid))
                 for nid, name in enumerate(self.names)}
        now = Counter(self.counts, **{"trace.spans": len(self.span_start)})
        out = Counter({key: counts[key] + (value - counts[key]) / rounds
                       for key, value in now.items()})
        return spans, out

    def write(self, stem: Path) -> None:
        """Spans to <stem>.bin (four arrays back to back), index to <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(stem.with_suffix(".bin"), "wb") as out:
            for arr in arrays:
                arr.tofile(out)
        meta = {"spans": len(self.span_start), "names": self.names,
                "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                "counts": dict(self.counts)}
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


def _module(name: str):
    try:
        return importlib.import_module("gadel." + name)
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    formulas, program, poptree, engine, prover, verifier = map(_module, MODULES)
    counts = tracer.counts
    exhausted = getattr(getattr(prover, "ProofOutcome", None), "BUDGET_EXHAUSTED", None)

    def outcome(result):
        if result is exhausted:
            counts["prover.budget_exhausted"] += 1

    def clause_count(result):
        counts["formulas.clauses"] += len(result)

    def fitness_report(result):
        counts["prover.budget_exhausted"] += getattr(result, "budget_hits", 0)

    def verdict(result):
        reason = getattr(result, "reason", None)
        if reason is not None:
            counts["verifier.rejected_" + reason] += 1

    # formulas and program: parsing, clause conversion, compilation
    tracer.patch(formulas, "parse_theory", "formulas.parse")
    tracer.patch(formulas, "format_theory", "formulas.format")
    for attr in ("to_cnf", "negate_to_cnf"):
        tracer.patch(program, attr, "formulas.cnf", clause_count)
    tracer.patch(program, "compile_theory", "program.compile")
    tracer.patch(verifier, "compile_theory", "program.compile")
    for owner in (engine, verifier, prover):
        tracer.patch(owner, "applied_indices", "program.applied_indices")
    # poptree, as the engine looks it up
    tracer.patch(poptree, "insert", "poptree.insert")
    tracer.patch(poptree, "contains", "poptree.contains")
    tracer.patch(poptree, "members", "poptree.members", listify=True)
    # engine
    tracer.patch(engine, "evolve", "engine.evolve")
    tracer.patch(engine, "fitness", "engine.fitness", fitness_report)
    tracer.patch(engine, "_descend", "engine.descend")
    tracer.patch(engine, "initial_population", "engine.breed")
    tracer.patch(engine, "_next_population", "engine.breed")
    tracer.patch(engine, "_select_parents", "engine.select")
    tracer.patch(getattr(engine, "_VerdictCache", None), "consistent", "engine.consistent")
    tracer.count_calls(engine, "CandidateQuerySession", "engine.sessions")
    tracer.patch(engine, "refute_clauses", "prover.refute_clauses", outcome)
    tracer.count_calls(engine, "refute_clauses", "engine.consistency_misses")
    tracer.patch(engine, "verify", "verifier.verify", verdict)
    # prover
    session = getattr(prover, "CandidateQuerySession", None)
    tracer.patch(session, "__init__", "prover.session_init")
    tracer.patch(session, "ask", "prover.ask", outcome)
    tracer.patch(prover, "_engine", "prover.engine")
    # verifier
    tracer.count_calls(verifier, "CandidateQuerySession", "verifier.sessions")
    tracer.patch(verifier, "refute_clauses", "prover.refute_clauses", outcome)
    tracer.patch(verifier, "verify", "verifier.verify", verdict)
    tracer.patch(verifier, "th_equal", "verifier.th_equal")
    tracer.patch(verifier, "enumerate_extensions", "verifier.enumerate")


def _hit_ratio(misses: float, attempts: float) -> float:
    """1 - misses / attempts; 0 when nothing was attempted."""
    return 1.0 - misses / attempts if attempts else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer figures for one set-up plus one round, and the base of each ratio.

    The traced part of a run is one set-up, marked, then `rounds` identical
    rounds, whose figures are divided by `rounds`; so a count is exact
    whenever the rounds repeat exactly.
    """
    spans, counts = tracer.per_round(rounds)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def count(name):
        return counts[name]

    fitness_calls = calls("engine.fitness")
    consistent_calls = calls("engine.consistent")
    decisions = calls("prover.ask") + calls("prover.refute_clauses")
    m = {
        "formulas.parse_s": total("formulas.parse"),
        "formulas.cnf_s": total("formulas.cnf"),
        "formulas.clauses": count("formulas.clauses"),
        "program.compile_s": self_s("program.compile"),
        "program.applied_indices_calls": calls("program.applied_indices"),
        "program.applied_indices_s": total("program.applied_indices"),
        "poptree.insert_calls": calls("poptree.insert"),
        "poptree.insert_s": total("poptree.insert"),
        "poptree.contains_calls": calls("poptree.contains"),
        "poptree.contains_s": total("poptree.contains"),
        "poptree.members_s": total("poptree.members"),
        "engine.generations": count("engine.generations"),
        "engine.fitness_calls": fitness_calls,
        "engine.fitness_self_s": self_s("engine.fitness"),
        "engine.verdict_cache_hit_ratio": _hit_ratio(count("engine.sessions"), fitness_calls),
        "engine.consistent_calls": consistent_calls,
        "engine.consistency_cache_hit_ratio":
            _hit_ratio(count("engine.consistency_misses"), consistent_calls),
        "engine.descend_calls": calls("engine.descend"),
        "engine.descend_s": total("engine.descend"),
        "engine.breed_s": self_s("engine.breed"),
        "engine.select_s": total("engine.select"),
        "prover.sessions": calls("prover.session_init"),
        "prover.session_init_s": total("prover.session_init"),
        "prover.ask_calls": calls("prover.ask"),
        "prover.ask_s": total("prover.ask"),
        "prover.engine_calls": calls("prover.engine"),
        "prover.engine_s": total("prover.engine"),
        "prover.refute_clauses_calls": calls("prover.refute_clauses"),
        "prover.refute_clauses_s": total("prover.refute_clauses"),
        "prover.shortcut_ratio": _hit_ratio(calls("prover.engine"), decisions),
        "prover.budget_exhausted": count("prover.budget_exhausted"),
        "verifier.verify_calls": calls("verifier.verify"),
        "verifier.verify_s": total("verifier.verify"),
        "verifier.sessions": count("verifier.sessions"),
        "verifier.dedup_s": total("verifier.th_equal"),
    }
    for reason in ("inconsistent", "blocked-justification", "ungrounded",
                   "missing-applicable", "undecided"):
        m["verifier.rejected_" + reason] = count("verifier.rejected_" + reason)
    m["trace.spans"] = count("trace.spans")
    for module in MODULES:
        m["self_s." + module] = sum(s for name, (_c, _t, s) in spans.items()
                                    if name.split(".", 1)[0] == module)
    bases = {
        "engine.verdict_cache_hit_ratio": "1 - %g sessions built by engine / %g fitness calls"
        % (count("engine.sessions"), fitness_calls),
        "engine.consistency_cache_hit_ratio": "1 - %g refute_clauses calls / %g consistent calls"
        % (count("engine.consistency_misses"), consistent_calls),
        "prover.shortcut_ratio": "1 - %g case-splitting searches / %g decisions "
        "(ask plus refute_clauses)" % (calls("prover.engine"), decisions),
    }
    return m, bases
