"""Exit codes and output formats of the command line front end."""

import json
import subprocess
import sys

import pytest

from gadel.bench import batch_stats, complete_arcs, run_batch
from gadel.cli import CSV_HEADER, _params_from_args, build_parser, main
from gadel.engine import GaParams
from gadel.formulas import MAX_CLAUSES, parse_theory
from gadel.program import MAX_PROGRAM_CLAUSES
from gadel.verifier import enumerate_extensions

NIXON = ("w: republican.\n"
         "w: quaker.\n"
         "d: republican : !pacifist / !pacifist.\n"
         "d: quaker : pacifist / pacifist.\n")

# no chromosome of this rule reaches fitness zero
SELF_BLOCK = "d: true_ || !true_ : b / !b.\n"


@pytest.fixture
def nixon_file(tmp_path):
    path = tmp_path / "nixon.dt"
    path.write_text(NIXON)
    return str(path)


def test_solve_human_output(nixon_file, capsys):
    code = main(["solve", nixon_file, "--pop-size", "16", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "extension found in" in out
    assert "applied defaults:" in out


def test_solve_json_record(nixon_file, capsys):
    code = main(["solve", nixon_file, "--pop-size", "16", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "nixon"
    assert doc["outcome"] == "found"
    assert doc["seed"] == 0
    assert doc["certificate"]["applied"] in ([1], [2])


def test_solve_csv_record(nixon_file, capsys):
    code = main(["solve", nixon_file, "--pop-size", "16", "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("nixon,0,found,")


def test_solve_trace_goes_to_stderr(nixon_file, capsys):
    code = main(["solve", nixon_file, "--pop-size", "16", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("gen 1 best=")


def test_solve_reports_failure(tmp_path, capsys):
    path = tmp_path / "blocked.dt"
    path.write_text(SELF_BLOCK)
    code = main(["solve", str(path), "--pop-size", "8", "--max-gens", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no certified extension within 3 generations" in out


def test_solve_says_when_the_extension_is_inconsistent(tmp_path, capsys):
    path = tmp_path / "clash.dt"
    path.write_text("w: a.\nw: !a.\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "extension found in" in out
    assert "the extension is inconsistent" in out
    assert main(["solve", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["consistent"] is False


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_non_finite_penalty_is_a_usage_error(nixon_file, capsys, weight):
    code = main(["solve", nixon_file, "--penalties", "1,1,1,1,1," + weight])
    assert code == 2
    assert "penalty p13 must be positive and finite" in capsys.readouterr().err


def test_penalty_total_overflow_is_a_usage_error(tmp_path, capsys):
    # each weight is finite, but 39 of them sum past the largest float
    path = tmp_path / "man.dt"
    assert main(["gen", "people", "--facts", "man", "-o", str(path)]) == 0
    capsys.readouterr()
    code = main(["solve", str(path), "--penalties", ",".join(["1e308"] * 6), "--trace"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "gadel: penalty weights too large: a total over 39 rules could overflow\n"


def test_huge_population_is_a_usage_error(tmp_path, nixon_file, capsys):
    # refused before a member is drawn: 10^8 members of 78 genes each
    path = tmp_path / "man.dt"
    assert main(["gen", "people", "--facts", "man", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--pop-size", "100000000"]) == 2
    assert capsys.readouterr().err == (
        "gadel: population too large: 100000000 members over 39 rules hold 7800000000 "
        "genes, more than 16777216\n")
    # two rules have only 16 distinct chromosomes, so the size is capped first
    assert main(["solve", nixon_file, "--pop-size", "100000000"]) == 0


def test_trace_mean_stays_finite_when_the_sum_overflows(tmp_path, capsys):
    # every chromosome of the one rule pays one weight of 8e307: each total is
    # finite (and so is twice it), but the four of a generation sum past the
    # largest float
    path = tmp_path / "blocked.dt"
    path.write_text(SELF_BLOCK)
    code = main(["solve", str(path), "--pop-size", "4", "--max-gens", "2",
                 "--penalties", ",".join(["8e307"] * 6), "--trace"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 2
    for line in lines:
        fields = dict(f.split("=") for f in line.split()[2:])
        assert float(fields["mean"]) == float(fields["best"]) == 8e307


def test_check_accepts_extension(nixon_file, capsys):
    code = main(["check", nixon_file, "--applied", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["applied"] == [2]
    assert doc["extension_atoms"] == ["pacifist", "quaker", "republican"]


def test_check_rejects_clash(nixon_file, capsys):
    code = main(["check", nixon_file, "--applied", "1,2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("rejected (inconsistent)")


def test_check_rejects_bad_index(nixon_file, capsys):
    code = main(["check", nixon_file, "--applied", "0,9"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1,,2", "1,b", "2.0"])
def test_check_rejects_a_malformed_index_list(nixon_file, capsys, text):
    assert main(["check", nixon_file, "--applied", text]) == 2
    err = capsys.readouterr().err
    assert "--applied wants comma-separated rule indices, got %r" % text in err
    assert "invalid literal" not in err


def test_gen_people_round_trip(tmp_path, capsys):
    out_path = tmp_path / "people.dt"
    code = main(["gen", "people", "--facts", "man,student", "-o", str(out_path)])
    assert code == 0
    assert "25 world formulas, 39 defaults" in capsys.readouterr().out
    theory = parse_theory(out_path.read_text())
    assert len(theory.world) == 25      # two facts plus the taxonomy
    assert theory.n_defaults == 39


def test_gen_people_unknown_fact(capsys):
    assert main(["gen", "people", "--facts", "dog"]) == 2
    assert "unknown fact" in capsys.readouterr().err


def test_gen_ham_round_trip(tmp_path, capsys):
    edges = tmp_path / "triangle.edges"
    edges.write_text("# both directions of a triangle\n"
                     "1 2\n2 3\n3 1\n1 3\n3 2\n2 1\n")
    out_path = tmp_path / "triangle.dt"
    code = main(["gen", "ham", "--vertices", "3", "--edges", str(edges),
                 "-o", str(out_path)])
    assert code == 0
    theory = parse_theory(out_path.read_text())
    assert theory.n_defaults == 9
    assert len(enumerate_extensions(theory)) == 2


def test_gen_ham_bad_edges_line(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("1 2\n2 3 4\n")
    assert main(["gen", "ham", "--vertices", "3", "--edges", str(edges)]) == 2
    assert "edges file line 2" in capsys.readouterr().err


def test_gen_ham_non_integer_vertex(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("1 2\n# a comment\nw: a.\n")
    assert main(["gen", "ham", "--vertices", "3", "--edges", str(edges)]) == 2
    err = capsys.readouterr().err
    assert "edges file line 3: expected two integer vertices 'u v', got 'w: a.'" in err
    assert "invalid literal" not in err


def test_oversized_hamiltonian_is_a_usage_error(tmp_path, capsys):
    # refused by the clause count before a formula is built: built, either
    # theory would exhaust the memory of a small machine
    edges = tmp_path / "arcs.edges"
    edges.write_text("")
    assert main(["gen", "ham", "--vertices", "100000000", "--edges", str(edges)]) == 2
    assert capsys.readouterr().err == (
        "gadel: Hamiltonian theory of 100000000 vertices and 0 arcs has 300000002 clauses "
        "in clause form, more than 16384\n")
    for n, clauses, code in [(150, 9990902, 2), (19, 18527, 2), (18, 15662, 0)]:
        edges.write_text("".join("%d %d\n" % arc for arc in complete_arcs(n)))
        out_path = tmp_path / "k.dt"
        assert main(["gen", "ham", "--vertices", str(n), "--edges", str(edges),
                     "-o", str(out_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("gadel: Hamiltonian theory of %d vertices and %d arcs has %d "
                           "clauses in clause form, more than 16384\n"
                           % (n, n * (n - 1), clauses))
    # K18 is written, and its 15,662 clauses are within the program cap
    assert parse_theory(out_path.read_text()).n_defaults == 18 * 17 + 18


def test_bench_json_deterministic(nixon_file, capsys):
    argv = ["bench", nixon_file, "--reps", "3", "--pop-size", "16", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["stats"]["found"] == 3
    assert len(first["records"]) == 3
    for doc in (first, second):
        for rec in doc["records"]:
            rec["wall_ms"] = 0.0
    assert first == second


def _masked(doc):
    """A JSON document with every run record's wall_ms set to 0."""
    for rec in doc.get("records", [doc]):
        rec["wall_ms"] = 0.0
    return doc


def test_json_output_is_the_run_batch_record(nixon_file, capsys):
    params = GaParams(population_size=16)
    assert main(["solve", nixon_file, "--pop-size", "16", "--seed", "3", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    records = run_batch(parse_theory(NIXON), GaParams(population_size=16, rng_seed=3), 1,
                        name="nixon")
    assert _masked(printed) == _masked(records[0])
    assert main(["bench", nixon_file, "--reps", "3", "--pop-size", "16", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    records = run_batch(parse_theory(NIXON), params, 3, name="nixon")
    doc = {"problem": "nixon", "records": records, "stats": batch_stats(records)}
    assert _masked(printed) == _masked(doc)


def test_bench_exit_one_when_nothing_found(tmp_path, capsys):
    path = tmp_path / "blocked.dt"
    path.write_text(SELF_BLOCK)
    code = main(["bench", str(path), "--reps", "2", "--pop-size", "8",
                 "--max-gens", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4              # header, two rows, summary


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_without_repetitions_is_a_usage_error(nixon_file, capsys, reps):
    assert main(["bench", nixon_file, "--reps", reps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gadel: repetitions must be at least 1, got %s\n" % reps


def test_missing_file_is_a_usage_error(capsys):
    assert main(["solve", "/no/such/file.dt"]) == 2
    assert capsys.readouterr().err.startswith("gadel: ")


def test_parse_error_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.dt"
    path.write_text("w: a &&.\n")
    assert main(["solve", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_deep_nesting_is_a_usage_error(tmp_path, capsys):
    # a fresh interpreter, so the recursion limit is Python's default
    deep = tmp_path / "deep.dl"
    deep.write_text("w: " + "!" * 3000 + "a.\n")
    got = subprocess.run([sys.executable, "-m", "gadel.cli", "check",
                          "--applied", "", str(deep)], capture_output=True, text=True)
    assert got.returncode == 2
    assert "Traceback" not in got.stderr
    assert "nested deeper than" in got.stderr
    parens = tmp_path / "parens.dl"
    parens.write_text("w: " + "(" * 3000 + "a" + ")" * 3000 + ".\n")
    assert main(["check", "--applied", "", str(parens)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_long_chain_is_a_usage_error(tmp_path):
    # a fresh interpreter, so the recursion limit is Python's default
    flat = tmp_path / "flat.dl"
    flat.write_text("w: " + " && ".join("a%d" % k for k in range(3000)) + ".\n")
    got = subprocess.run([sys.executable, "-m", "gadel.cli", "check",
                          "--applied", "", str(flat)], capture_output=True, text=True)
    assert got.returncode == 2
    assert "Traceback" not in got.stderr
    assert "levels deep (line 1, column" in got.stderr


def test_clause_blowup_is_a_usage_error(tmp_path, capsys):
    # (a0 && b0) || ... || (a15 && b15) has 2^16 clauses in clause form
    dnf = tmp_path / "dnf.dl"
    dnf.write_text("w: " + " || ".join("a%d && b%d" % (k, k) for k in range(16)) + ".\n")
    assert main(["check", "--applied", "", str(dnf)]) == 2
    assert "more than %d clauses" % MAX_CLAUSES in capsys.readouterr().err
    # D0 && ... && D7, each Dk a 12-pair DNF of 2^12 clauses: no single
    # product passes the cap, but the conjunction has 32,768 clauses
    dnfs = ["(%s)" % " || ".join("a%d_%d && b%d_%d" % (k, p, k, p) for p in range(12))
            for k in range(8)]
    dnf.write_text("w: " + " && ".join(dnfs) + ".\n")
    assert main(["check", "--applied", "", str(dnf)]) == 2
    assert "more than %d clauses" % MAX_CLAUSES in capsys.readouterr().err


def test_theory_clause_total_is_a_usage_error(tmp_path, capsys):
    # ten lines, each a 12-pair DNF of 4,096 clauses under the per-formula
    # cap, would compile to 40,960 world clauses; compilation stops early
    lines = ["w: %s.\n" % " || ".join("a%d_%d && b%d_%d" % (k, p, k, p) for p in range(12))
             for k in range(10)]
    path = tmp_path / "wide.dl"
    path.write_text("".join(lines))
    assert main(["check", "--applied", "", str(path)]) == 2
    assert "more than %d clauses" % MAX_PROGRAM_CLAUSES in capsys.readouterr().err
    # the same lines below the total cap compile
    path.write_text("".join(lines[:2]) + "d: a0_0 : / c.\n")
    assert main(["check", "--applied", "", str(path)]) == 0


def test_module_entry_point(nixon_file):
    got = subprocess.run([sys.executable, "-m", "gadel.cli", "check",
                          nixon_file, "--applied", "1"],
                         capture_output=True, text=True)
    assert got.returncode == 0
    assert json.loads(got.stdout)["applied"] == [1]


def test_ga_defaults_are_ga_params_defaults():
    for command in ("solve", "bench"):
        assert _params_from_args(build_parser().parse_args([command, "t.dt"])) == GaParams()


def test_import_loads_no_code_generating_modules():
    # -S: a site hook may import typing itself, before gadel does
    got = subprocess.run([sys.executable, "-S", "-c",
                          "import sys, gadel.cli; print(sorted({'dataclasses', 'inspect', "
                          "'typing'} & set(sys.modules)))"],
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"
