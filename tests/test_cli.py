import csv
import json
from fractions import Fraction

import pytest

import leafspan.cli
from leafspan import build_digraph
from leafspan.certificates import PIPELINES, packing_upper_bound
from leafspan.cli import ALGORITHMS, CSV_HEADER, main
from leafspan.solvers import max_leaves
from leafspan.verify import verify_solution


def run(*argv):
    return main(list(argv))


def gen_random(tmp_path, name="inst.json", n=12, p=0.3, seed=2):
    path = tmp_path / name
    code = run(
        "gen", "--generator", "random",
        "--n", str(n), "--p", str(p), "--seed", str(seed),
        "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_solve_verify_round_trip(tmp_path):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "maxleaves",
               "--input", str(inst), "--output", str(sol)) == 0
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_algorithm_verifies(tmp_path, algo):
    inst = tmp_path / "adv.json"
    assert run("gen", "--generator", "adversarial", "--k", "2",
               "--out", str(inst)) == 0
    sol = tmp_path / f"{algo}.json"
    assert run("solve", "--algo", algo,
               "--input", str(inst), "--output", str(sol)) == 0
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    five = gen_random(tmp_path, "five.json", n=5)
    assert json.loads(five.read_text())["n"] == 5
    default = tmp_path / "default.json"
    assert run("gen", "--generator", "random", "--out", str(default)) == 0
    assert json.loads(default.read_text())["n"] == 10
    with pytest.raises(SystemExit) as info:
        run("solve", "--algo", "no-such-algorithm")
    assert info.value.code == 2
    assert run("gen", "--generator", "random", "--out", str(default)) == 0


def test_solve_writes_dot(tmp_path):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    dot = tmp_path / "sol.dot"
    assert run("solve", "--algo", "maxleaves", "--input", str(inst),
               "--output", str(sol), "--dot", str(dot)) == 0
    assert dot.read_text().startswith("digraph")


def test_tampered_solution_fails_verify(tmp_path, capsys):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol))
    obj = json.loads(sol.read_text())
    parent = obj["parent"]
    victim = next(i for i, p in enumerate(parent) if p is not None)
    parent[victim] = victim  # self-parent breaks the arborescence
    sol.write_text(json.dumps(obj))
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 1
    assert "verify:" in capsys.readouterr().err


def test_tampered_leaf_count_fails_verify(tmp_path):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol))
    obj = json.loads(sol.read_text())
    obj["leaf_count"] += 1
    sol.write_text(json.dumps(obj))
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 1


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("solve", "--algo", "no-such-algo",
            "--input", "x", "--output", "y")
    assert info.value.code == 2


def test_parse_error_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "maxleaves",
               "--input", str(bad), "--output", str(sol)) == 3
    assert run("solve", "--algo", "maxleaves",
               "--input", str(tmp_path / "missing.json"),
               "--output", str(sol)) == 3


def test_exact_guard_exits_2(tmp_path):
    inst = gen_random(tmp_path, n=200, p=0.3, seed=1)
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "exact",
               "--input", str(inst), "--output", str(sol)) == 2


def test_bench_csv(tmp_path):
    indir = tmp_path / "instances"
    indir.mkdir()
    gen_random(indir, "a.json", n=10, p=0.3, seed=3)
    gen_random(indir, "b.json", n=14, p=0.1, seed=4)
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves,expansion2", "--csv", str(out)) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5  # header + 2 instances x 2 algorithms
    for row in rows[1:]:
        record = dict(zip(CSV_HEADER, row))
        assert record["opt"] != ""  # small instances stay within the oracle
        assert "/" in record["ratio"] or record["ratio"].isdigit()


def test_bench_large_instance_leaves_opt_empty(tmp_path):
    indir = tmp_path / "instances"
    indir.mkdir()
    gen_random(indir, "big.json", n=400, p=0.05, seed=5)
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves", "--csv", str(out)) == 0
    with open(out, newline="") as handle:
        record = list(csv.DictReader(handle))[0]
    assert record["opt"] == "" and record["ratio"] == ""


def test_bench_rejects_unknown_algorithm(tmp_path):
    indir = tmp_path / "instances"
    indir.mkdir()
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves,bogus", "--csv", str(out)) == 2


def test_bench_missing_directory_exits_3(tmp_path):
    assert run("bench", "--input-dir", str(tmp_path / "nope"),
               "--csv", str(tmp_path / "out.csv")) == 3


def test_bench_deterministic_modulo_timing(tmp_path):
    indir = tmp_path / "instances"
    indir.mkdir()
    gen_random(indir, "a.json", n=12, p=0.2, seed=6)

    def snapshot(name):
        out = tmp_path / name
        assert run("bench", "--input-dir", str(indir),
                   "--algos", ",".join(ALGORITHMS), "--csv", str(out)) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            row.pop("millis")
        return rows

    assert snapshot("one.csv") == snapshot("two.csv")


@pytest.mark.parametrize("flags", [["--generator", "random", "--n", "0"],
                                   ["--generator", "adversarial", "--k", "0"]])
def test_gen_out_of_range_exits_2_with_one_error_line(tmp_path, capsys, flags):
    assert run("gen", *flags, "--out", str(tmp_path / "x.json")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


def solved(tmp_path, algo, n=200, p=0.05, seed=7):
    inst = gen_random(tmp_path, n=n, p=p, seed=seed)
    sol = tmp_path / f"{algo}.json"
    assert run("solve", "--algo", algo, "--input", str(inst), "--output", str(sol)) == 0
    return inst, sol, json.loads(sol.read_text())


def verify_diagnostics(capsys, inst, sol, obj):
    sol.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 1
    err = capsys.readouterr().err
    assert "verify:" in err and "Traceback" not in err
    return err


def test_forged_phases_and_bounds_fail_verify(tmp_path, capsys):
    # every vertex in phase T and every bound "1": the phase statistics and
    # bounds recompute consistently, but 1 is below the leaf count
    inst, sol, obj = solved(tmp_path, "maxleaves")
    obj["phase"] = [2] * len(obj["parent"])
    rep = obj["report"]
    rep.update(N1=0, k1=0, N2=0, k2=0, lb_lemma1="1", ub_lemma2="1", ub_lemma3="1")
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "ub_lemma2 >= leaf_count" in err and "ub_lemma3 >= leaf_count" in err
    mismatches = [line for line in err.splitlines() if "recomputation" in line]
    assert mismatches == ["verify: report certificate_ok is True, recomputation gives False"]


def test_forged_claimed_alpha_fails_verify(tmp_path, capsys):
    inst, sol, obj = solved(tmp_path, "w3dm-greedy")
    rep = obj["report"]
    assert rep["claimed_alpha"] == "3"
    nk = [rep[key] for key in ("N1", "k1", "N2", "k2", "N3", "k3")]
    rep.update(claimed_alpha="1", ub_lemma5=str(packing_upper_bound(*nk, Fraction(1))))
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "claimed_alpha" in err


def test_non_rational_claimed_alpha_fails_verify(tmp_path, capsys):
    inst, sol, obj = solved(tmp_path, "w3dm-greedy", n=30, p=0.2, seed=1)
    obj["report"]["claimed_alpha"] = "abc"
    assert "claimed_alpha" in verify_diagnostics(capsys, inst, sol, obj)


@pytest.mark.parametrize("algorithm", ["w3dm-mine", ["maxleaves"]])
def test_verify_rejects_unknown_algorithm(tmp_path, capsys, algorithm):
    inst, sol, obj = solved(tmp_path, "w3dm-exact", n=12, p=0.3, seed=2)
    obj["report"]["algorithm"] = algorithm
    assert "unknown algorithm" in verify_diagnostics(capsys, inst, sol, obj)


@pytest.mark.parametrize("change", [
    {"version": 1},
    {"parent": [True]},
    {"parent": ["0"]},
    {"phase": [False]},
    {"phase": [0.0]},
    {"phase": None},
])
def test_malformed_solution_exits_3(tmp_path, capsys, change):
    inst, sol, obj = solved(tmp_path, "maxleaves", n=12, p=0.3, seed=2)
    for key, value in change.items():
        obj[key] = value if not isinstance(value, list) else value + obj[key][1:]
    sol.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if "version" in change:
        assert "unsupported solution version" in err


def test_bench_header_lists_every_bound_and_certificate_ok():
    bounds = {b for p in PIPELINES.values() for b in p.bounds}
    assert bounds == {"lb_lemma1", "ub_lemma2", "ub_lemma3", "lb_baseline",
                      "lb_lemma4", "ub_lemma5"}
    assert bounds | {"certificate_ok"} <= set(CSV_HEADER)


def test_bench_runs_the_oracle_once_per_instance(tmp_path, monkeypatch):
    calls = []
    oracle = leafspan.cli.exact_max_leaves

    def spy(d, *args):
        calls.append(d)
        return oracle(d, *args)

    monkeypatch.setattr(leafspan.cli, "exact_max_leaves", spy)
    indir = tmp_path / "instances"
    indir.mkdir()
    gen_random(indir, "a.json", n=10, p=0.3, seed=3)
    gen_random(indir, "b.json", n=14, p=0.1, seed=4)
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir), "--algos",
               "maxleaves,expansion2,w3dm-greedy", "--csv", str(out)) == 0
    assert len(calls) == 2
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["certificate_ok"] for r in rows] == ["True"] * 6
    assert all(r["lb_lemma4"] and r["ub_lemma5"] for r in rows[2::3])


def test_boolean_forgery_fails_verify(tmp_path, capsys):
    inst = tmp_path / "path.json"
    inst.write_text('{"version":1,"n":3,"root":0,"arcs":[[0,1],[1,2]]}')
    sol = tmp_path / "f.json"
    assert run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol)) == 0
    obj = json.loads(sol.read_text())
    assert (obj["leaf_count"], obj["report"]["certificate_ok"], obj["report"]["k1"]) == (1, True, 0)
    obj["leaf_count"] = True
    obj["report"].update(leaf_count=True, certificate_ok=1, k1=False)
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "verify: leaf_count is True" in err
    for key in ("leaf_count", "certificate_ok", "k1"):
        assert f"verify: report {key} is" in err


@pytest.mark.parametrize("bad", ["minus_one", "n", "n_plus_5", "non_host_tail"])
def test_bad_parent_entry_fails_verify(tmp_path, capsys, bad):
    inst, sol, obj = solved(tmp_path, "maxleaves", n=12, p=0.3, seed=2)
    d = leafspan.cli.read_instance(inst)
    n = d.vertex_count
    parent = obj["parent"]
    victim = next(v for v, p in enumerate(parent) if p is not None)
    if bad == "non_host_tail":
        tail = next(u for u in range(n) if u != victim and u not in d.in_adj[victim])
    else:
        tail = {"minus_one": -1, "n": n, "n_plus_5": n + 5}[bad]
    parent[victim] = tail
    assert "parent array invalid" in verify_diagnostics(capsys, inst, sol, obj)


@pytest.mark.parametrize("tail", [True, 1.0])
def test_library_verify_rejects_non_integer_parents(tail):
    # read_solution rejects these in files; verify_solution takes a dict as is
    d = build_digraph(5, 0, [(0, 1), (1, 2), (1, 3), (1, 4), (0, 2)])
    t, report = max_leaves(d)
    assert t.parent == [None, 0, 1, 1, 1]
    solution = {"version": 2, "parent": t.parent, "phase": report.phase,
                "leaf_count": report.leaf_count, "report": report.to_dict()}
    assert verify_solution(d, solution) == []
    solution["parent"] = [None, 0, tail, tail, tail]
    assert verify_solution(d, solution) == [
        f"parent array invalid: arc ({tail}, 2) not in host digraph"]
