import csv
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_gen_with_subnormal_p_exits_0(tmp_path):
    inst = gen_random(tmp_path, n=10, p=1e-320)
    assert len(json.loads(inst.read_text())["arcs"]) == 9


def test_commands_are_looked_up_when_main_runs(tmp_path, monkeypatch):
    gen_random(tmp_path)  # builds the cached parser
    calls = []
    monkeypatch.setattr(leafspan.cli, "_cmd_solve", lambda args: calls.append(args) or 0)
    assert run("solve", "--algo", "maxleaves", "--input", str(tmp_path / "missing.json"),
               "--output", str(tmp_path / "sol.json")) == 0
    assert len(calls) == 1


_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import leafspan.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runtime_imports_only_the_standard_library():
    # a diff, not a scan: site .pth files may preload third-party modules
    path = [str(Path(leafspan.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=env,
                         capture_output=True, text=True, check=True).stdout
    new = json.loads(out)
    assert "leafspan.cli" in new
    allowed = sys.stdlib_module_names | {"leafspan"}
    assert [m for m in new if m.partition(".")[0] not in allowed] == []


def test_solve_writes_dot(tmp_path):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    dot = tmp_path / "sol.dot"
    assert run("solve", "--algo", "maxleaves", "--input", str(inst),
               "--output", str(sol), "--dot", str(dot)) == 0
    assert dot.read_text().startswith("digraph instance {")


def solve_into(tmp_path, inst, prefix):
    sol, dot = tmp_path / f"{prefix}sol.json", tmp_path / f"{prefix}sol.dot"
    assert run("solve", "--algo", "maxleaves", "--input", str(inst),
               "--output", str(sol), "--dot", str(dot)) == 0
    return sol, dot


def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    fresh = [gen_random(tmp_path, "fresh.json")]
    fresh += solve_into(tmp_path, fresh[0], "fresh-")
    stale = [tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "sol.dot"]
    for old, new in zip(stale, fresh):
        old.write_bytes(b"x" * (3 * len(new.read_bytes())))
    gen_random(tmp_path, "inst.json")
    solve_into(tmp_path, stale[0], "")
    for old, new in zip(stale, fresh):
        assert old.read_bytes() == new.read_bytes()


def test_writing_to_a_device_exits_0(tmp_path):
    inst = gen_random(tmp_path)
    assert run("gen", "--generator", "random", "--out", os.devnull) == 0
    assert run("solve", "--algo", "maxleaves", "--input", str(inst),
               "--output", os.devnull, "--dot", os.devnull) == 0


def test_writers_never_empty_a_file_before_rewriting_it(tmp_path, monkeypatch):
    # the output bytes are the same either way; only the open flags show
    # whether the file was truncated to zero, which costs a disk flush on ext4
    opened = []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for _ in range(2):  # the second round rewrites every file
        inst = gen_random(tmp_path)
        sol, dot = solve_into(tmp_path, inst, "")
    paths = [path for path, _ in opened]
    assert [paths.count(str(p)) for p in (inst, sol, dot)] == [2, 2, 2]
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


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


def test_bench_keeps_every_row_when_an_exact_run_is_refused(tmp_path, capsys):
    indir = tmp_path / "instances"
    indir.mkdir()
    gen_random(indir, "big.json", n=40, p=0.4, seed=1)
    gen_random(indir, "small.json", n=10, p=0.3, seed=1)
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves,exact", "--csv", str(out)) == 0
    assert capsys.readouterr().err == (
        "bench: big.json exact refused: search space exceeds 100000000 parent functions\n")
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["instance"], r["algorithm"], r["n"]) for r in rows] == [
        ("big.json", "maxleaves", "40"), ("big.json", "exact", "40"),
        ("small.json", "maxleaves", "10"), ("small.json", "exact", "10")]
    assert [key for key in CSV_HEADER if rows[1][key]] == ["instance", "algorithm", "n"]
    assert rows[0]["leaves"] and rows[0]["opt"] == ""
    assert rows[3]["leaves"] == rows[3]["opt"] and rows[3]["certificate_ok"] == "True"


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
    {"version": 2.0},
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


@pytest.fixture
def collector():
    """Sets the cyclic collector on or off for a test and restores it after."""
    was_enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("algo", ["maxleaves", "expansion2", "w3dm-greedy"])
def test_commands_run_no_collections(tmp_path, collector, algo):
    # the containers of a 2000-vertex job would trigger gen-0 collections;
    # with the collector paused inside main there are none
    inst = gen_random(tmp_path, n=2000, p=0.002, seed=11)
    sol = tmp_path / "sol.json"
    commands = [["solve", "--algo", algo, "--input", str(inst), "--output", str(sol)],
                ["verify", "--instance", str(inst), "--solution", str(sol)]]
    in_main = [False]
    starts = []

    def count(phase, info):
        # re-enabled, the collector runs at the next allocation after main
        if phase == "start" and in_main[0]:
            starts.append(info["generation"])

    collector(True)
    gc.callbacks.append(count)
    try:
        for argv in commands:
            in_main[0] = True
            code = main(argv)
            in_main[0] = False
            assert code == 0
    finally:
        gc.callbacks.remove(count)
    assert starts == []


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """An instance, its solution, a forged solution, one too large for the
    exact methods, and a bench directory holding both instances."""
    root = tmp_path_factory.mktemp("commands")
    bench = root / "bench"
    bench.mkdir()
    inst = gen_random(bench, "small.json")
    big = gen_random(bench, "big.json", n=40, p=0.4, seed=1)
    sol, forged = root / "sol.json", root / "forged.json"
    assert run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol)) == 0
    obj = json.loads(sol.read_text())
    obj["parent"][obj["parent"].index(None)] = 0  # the root gets a parent
    forged.write_text(json.dumps(obj))
    return {"dir": root, "bench": bench, "inst": inst, "big": big, "sol": sol, "forged": forged}


# name: (exit code, command line over the command_files paths)
COMMANDS = {
    "gen": (0, "gen --generator random --n 50 --out {dir}/new.json"),
    "gen-out-of-range": (2, "gen --generator random --n 0 --out {dir}/none.json"),
    **{f"solve-{algo}": (0, f"solve --algo {algo} --input {{inst}} --output {{dir}}/{algo}.json")
       for algo in ALGORITHMS},
    "solve-exact-refused": (2, "solve --algo exact --input {big} --output {dir}/refused.json"),
    "solve-missing-input": (3, "solve --algo maxleaves --input {dir}/missing.json "
                               "--output {dir}/missing-sol.json"),
    "verify": (0, "verify --instance {inst} --solution {sol}"),
    "verify-failing": (1, "verify --instance {inst} --solution {forged}"),
    "bench": (0, f"bench --input-dir {{bench}} --algos {','.join(ALGORITHMS)} --csv {{dir}}/out.csv"),
}


def command(command_files, name):
    code, template = COMMANDS[name]
    return code, [word.format(**command_files) for word in template.split()]


@pytest.mark.parametrize("name", COMMANDS)
def test_commands_leave_no_cyclic_garbage(command_files, collector, name):
    # what makes pausing the collector in main safe: reference counting
    # alone frees everything a command allocates
    code, argv = command(command_files, name)
    gc.collect()
    collector(False)
    assert run(*argv) == code
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state(command_files, monkeypatch, collector, enabled):
    for name in COMMANDS:
        code, argv = command(command_files, name)
        collector(enabled)
        assert run(*argv) == code
        assert gc.isenabled() is enabled, name

    seen = []

    def fail(path):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    # the command itself runs with the collector paused, whatever the caller set
    monkeypatch.setattr(leafspan.cli, "read_instance", fail)
    collector(enabled)
    with pytest.raises(RuntimeError):
        run(*command(command_files, "solve-maxleaves")[1])
    assert gc.isenabled() is enabled
    assert seen == [False]
