import argparse
import csv
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import leafspan.cli
import leafspan.graph
from leafspan import (
    Branching,
    Digraph,
    UndirectedGraphInstance,
    build_digraph,
    read_instance,
    reduce_independent_set,
    write_instance,
)
from leafspan.certificates import PIPELINES, SolveReport, packing_upper_bound
from leafspan.cli import ALGORITHMS, CSV_HEADER, build_parser, main
from leafspan.solvers import max_leaves
from leafspan.verify import verify_solution
from oracles import brute_force_max_independent_set, instance_v1, is_t_branching, phase_prefixes


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
    # gen writes format 2: head lists, not arc pairs
    text = inst.read_text(encoding="utf-8")
    assert '"version":2' in text and "out" in json.loads(text)
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


def test_complete_dag_solves_and_verifies_within_the_guards(tmp_path):
    # p = 1: every forward pair is an arc; only exact's search space is over its guard
    inst = gen_random(tmp_path, "dense.json", n=60, p=1)
    for algo in ALGORITHMS:
        sol = tmp_path / f"{algo}.json"
        code = run("solve", "--algo", algo, "--input", str(inst), "--output", str(sol))
        if algo == "exact":
            assert code == 2
        else:
            assert code == 0
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
    assert sum(map(len, json.loads(inst.read_text())["out"])) == 9


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


def package_env():
    """The environment of a child Python that imports this package from its source tree."""
    path = [str(Path(leafspan.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_runtime_imports_only_the_standard_library():
    # a diff, not a scan: site .pth files may preload third-party modules
    out = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=package_env(),
                         capture_output=True, text=True, check=True).stdout
    new = json.loads(out)
    assert "leafspan.cli" in new
    allowed = sys.stdlib_module_names | {"leafspan"}
    assert [m for m in new if m.partition(".")[0] not in allowed] == []


def test_every_exported_name_resolves():
    names = leafspan.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(leafspan, name)] == []
    namespace: dict = {}
    exec("from leafspan import *", namespace)  # a fresh namespace
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)


def test_readme_library_example_runs(capsys):
    # README's python blocks, in order and in one namespace, as a reader pastes them
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.S | re.M)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    report, tree = namespace["report"], namespace["tree"]
    assert report.certificate_ok and tree.is_spanning_arborescence()
    assert capsys.readouterr().out.startswith(f"{report.leaf_count} ")


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
    assert run("bench", "--input-dir", str(tmp_path), "--algos", "maxleaves",
               "--csv", os.devnull) == 0


def test_writers_never_empty_a_file_before_rewriting_it(tmp_path, monkeypatch):
    # the output bytes are the same either way; only the open flags show
    # whether the file was truncated to zero, which costs a disk flush on ext4
    opened = []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    indir, csv_path = tmp_path / "instances", tmp_path / "bench.csv"
    indir.mkdir()
    for _ in range(2):  # the second round rewrites every file
        inst = gen_random(indir)
        sol, dot = solve_into(tmp_path, inst, "")
        assert run("bench", "--input-dir", str(indir), "--algos", "maxleaves",
                   "--csv", str(csv_path)) == 0
    # reads open through os.open too; count only the opens for writing
    paths = [path for path, flags in opened if flags & (os.O_WRONLY | os.O_RDWR)]
    assert [paths.count(str(p)) for p in (inst, sol, dot, csv_path)] == [2, 2, 2, 2]
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


def test_a_solve_and_verify_round_builds_no_codec_and_opens_each_read_once(
        tmp_path, monkeypatch):
    inst = gen_random(tmp_path)
    sol = tmp_path / "sol.json"
    built, reads = [], []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        if not flags & (os.O_WRONLY | os.O_RDWR):
            reads.append(os.fspath(path))
        return os_open(path, flags, *args, **kwargs)

    def counted(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return wrapper

    for codec in (json.JSONDecoder, json.JSONEncoder):
        monkeypatch.setattr(codec, "__init__", counted(codec.__init__))
    monkeypatch.setattr(os, "open", spy)
    assert run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol)) == 0
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0
    assert built == []
    assert reads == [str(inst), str(inst), str(sol)]


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


def test_failed_certificate_exits_1_and_writes_a_solution_verify_refuses(
        tmp_path, capsys, monkeypatch):
    inst = gen_random(tmp_path, n=40, p=0.1, seed=0)
    sol = tmp_path / "sol.json"
    trees = []

    def one_phase(d):
        # the solver's own tree, but every vertex filed in phase 0, so F1 and
        # F2 are the whole tree and neither is a t-branching
        t, _ = max_leaves(d)
        trees.append(t)
        return t, SolveReport.certify(PIPELINES["maxleaves"], t, [0] * d.vertex_count)

    monkeypatch.setattr(leafspan.cli, "max_leaves", one_phase)
    capsys.readouterr()
    assert run("solve", "--algo", "maxleaves", "--input", str(inst), "--output", str(sol)) == 1
    assert capsys.readouterr().err == f"certificate failed for {inst}\n"
    assert json.loads(sol.read_text())["parent"] == trees[0].parent
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"verify: certificate inequality fails: {name}"
        for name in ("F1 is a 3-branching", "F2 is a 2-branching")]


def test_usage_error_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run("solve", "--algo", "no-such-algo",
            "--input", "x", "--output", "y")
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: leafspan solve")


def parse_spy(monkeypatch):
    """The prog of every parser whose parse_known_args runs, in call order."""
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return progs


@pytest.mark.parametrize("name", ["gen", "solve-maxleaves", "verify", "bench"])
def test_each_command_is_parsed_once_by_its_own_parser(command_files, monkeypatch, name):
    code, argv = command(command_files, name)
    progs = parse_spy(monkeypatch)
    assert run(*argv) == code
    assert progs == [f"leafspan {argv[0]}"]


@pytest.mark.parametrize(
    "argv, usage",
    [
        pytest.param([], "usage: leafspan [-h]", id="no-argv"),
        pytest.param(["sol"], "usage: leafspan [-h]", id="unknown-command"),
        pytest.param(["solve", "--algo", "maxleaves", "--input", "x"],
                     "usage: leafspan solve", id="missing-option"),
        pytest.param(["solve", "--algo", "maxleaves", "--input", "x", "--output", "y",
                      "--bogus", "1"], "usage: leafspan solve", id="unrecognized-option"),
    ],
)
def test_usage_errors_exit_2_with_the_usage_of_the_failing_parser(capsys, argv, usage):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage) and "Traceback" not in err
    if "--bogus" in argv:
        assert "leafspan solve: error: unrecognized arguments: --bogus 1" in err


@pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"], ["verify", "--help"]])
def test_help_matches_the_top_level_route_and_exits_0(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    # the top-level parser hands a command's arguments to that command's
    # parser, so both routes must print the same help
    for parse in (main, build_parser()[0].parse_args):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(" ".join(["usage: leafspan", *argv[:-1], "[-h]"]))
    if argv == ["-h"]:
        assert "{gen,solve,verify,bench}" in texts[0]


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "maxleaves",
               "--input", str(bad), "--output", str(sol)) == 3
    assert run("solve", "--algo", "maxleaves",
               "--input", str(tmp_path / "missing.json"),
               "--output", str(sol)) == 3
    bad.write_text('{"version":1,"n":2,"root":0,"arcs":[[0,1]],"weights":[0,-1]}')
    capsys.readouterr()
    assert run("solve", "--algo", "maxleaves",
               "--input", str(bad), "--output", str(sol)) == 3
    err = capsys.readouterr().err
    assert "weights must be nonnegative integers" in err and "Traceback" not in err


# each body stops at the fault named, not at an earlier check, and a body
# with two faults pins which one is named: both formats check the arcs before
# the weights; this table is the only copy of these bodies, and CI's run of
# the installed command checks exit code 3 with one cyclic instance
MALFORMED_INSTANCES = {
    "v1-arcs-not-iterable": ('"version":1,"n":2,"root":0,"arcs":5',
                             "arcs 5 must be iterable"),
    "v1-n-bool": ('"version":1,"n":true,"root":0,"arcs":[[0,1]]',
                  "vertex_count must be an integer >= 1, got True"),
    "v1-no-root": ('"version":1,"n":2,"arcs":[[0,1]]', "root None out of range [0, 2)"),
    "v1-weights-not-iterable": ('"version":1,"n":2,"root":0,"arcs":[[0,1]],"weights":7',
                                "weights 7 must be iterable"),
    "v2-weights-not-iterable": ('"version":2,"n":2,"root":0,"out":[[1],[]],"weights":7',
                                "weights 7 must be iterable"),
    "v1-bad-arc-and-weights": ('"version":1,"n":3,"root":0,"arcs":[[0,1],[0,9]],"weights":7',
                               "arc (0, 9) is not a pair of distinct integer vertex ids in [0, 3)"),
    "v2-bad-head-and-weights": ('"version":2,"n":3,"root":0,"out":[[1,9],[2],[]],"weights":7',
                                "arc (0, 9) is not a pair of distinct integer vertex ids in [0, 3)"),
    # a version 1 file names the fault of its sorted lists, whatever the arc order
    "v1-later-self-loop-listed-first": (
        '"version":1,"n":3,"root":0,"arcs":[[2,2],[0,9],[0,1],[1,2]]',
        "arc (0, 9) is not a pair of distinct integer vertex ids in [0, 3)"),
    "v2-later-self-loop": ('"version":2,"n":3,"root":0,"out":[[1,9],[2],[2]]',
                           "arc (0, 9) is not a pair of distinct integer vertex ids in [0, 3)"),
    # NaN and ±Infinity are not JSON numbers, so the read refuses them before
    # any arc order counts; 1e999 is a number, read as inf, which is out of range
    "v1-nan-head": ('"version":1,"n":3,"root":0,"arcs":[[0,NaN],[0,9],[0,1],[1,2]]',
                    "invalid JSON: NaN is not a JSON number"),
    "v1-nan-head-listed-second": ('"version":1,"n":3,"root":0,"arcs":[[0,9],[0,NaN],[0,1],[1,2]]',
                                  "invalid JSON: NaN is not a JSON number"),
    "v2-infinite-weight": ('"version":2,"n":2,"root":0,"out":[[1],[]],"weights":[0,Infinity]',
                           "invalid JSON: Infinity is not a JSON number"),
    "v1-overflowing-head": ('"version":1,"n":3,"root":0,"arcs":[[0,1e999],[0,1],[1,2]]',
                            "arc (0, inf) is not a pair of distinct integer vertex ids in [0, 3)"),
    "v1-bad-tail": ('"version":1,"n":3,"root":0,"arcs":[[0,1],[9,0],[1,2]]',
                    "arc (9, 0) is not a pair of distinct integer vertex ids in [0, 3)"),
    "v1-too-few-arcs-and-weights": ('"version":1,"n":3,"root":0,"arcs":[[0,1]],"weights":7',
                                    "1 arcs cannot span 3 vertices"),
    "v2-too-few-heads-and-weights": ('"version":2,"n":3,"root":0,"out":[[1],[],[]],"weights":7',
                                     "1 arcs cannot span 3 vertices"),
    "v1-duplicate-arc-and-weights": (
        '"version":1,"n":3,"root":0,"arcs":[[0,1],[0,1],[1,2]],"weights":7',
        "duplicate arc (0, 1)"),
    "v2-duplicate-arc-and-weights": ('"version":2,"n":3,"root":0,"out":[[1,1],[2],[]],"weights":7',
                                     "duplicate arc (0, 1)"),
    "v2-out-not-list": ('"version":2,"n":3,"root":0,"out":5',
                        "out must be a list of head lists, got 5"),
    "v2-descending": ('"version":2,"n":3,"root":0,"out":[[2,1],[],[]]',
                      "heads of 0 are not ascending: 1 after 2"),
    "v2-self-loop": ('"version":2,"n":1,"root":0,"out":[[0]]',
                     "arc (0, 0) is not a pair of distinct integer vertex ids in [0, 1)"),
    "v2-duplicate-arc": ('"version":2,"n":2,"root":0,"out":[[1,1],[]]', "duplicate arc (0, 1)"),
    "v2-short-out": ('"version":2,"n":3,"root":0,"out":[[1]]', "out has length 1, expected 3"),
    "v2-cycle": ('"version":2,"n":3,"root":0,"out":[[1],[2],[1]]',
                 "input contains a directed cycle"),
    "v2-second-source": ('"version":2,"n":4,"root":0,"out":[[1],[3],[3],[]]',
                         "vertex 2 unreachable from root 0"),
}


@pytest.mark.parametrize("fault", list(MALFORMED_INSTANCES))
def test_malformed_instance_exits_3_with_one_line_from_solve_and_verify(tmp_path, capsys, fault):
    # solve validates the instance with the heap pass, verify with the list
    # pass: both must name the same fault in the same line
    body, message = MALFORMED_INSTANCES[fault]
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "maxleaves", "--input", str(gen_random(tmp_path)),
               "--output", str(sol)) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{" + body + "}")
    capsys.readouterr()
    assert run("solve", "--algo", "maxleaves", "--input", str(bad),
               "--output", str(tmp_path / "bad.sol.json")) == 3
    solve_err = capsys.readouterr().err
    assert run("verify", "--instance", str(bad), "--solution", str(sol)) == 3
    verify_err = capsys.readouterr().err
    assert solve_err == verify_err == f"error: {bad}: {message}\n"


def test_exact_guard_exits_2(tmp_path):
    inst = gen_random(tmp_path, n=200, p=0.3, seed=1)
    sol = tmp_path / "sol.json"
    assert run("solve", "--algo", "exact",
               "--input", str(inst), "--output", str(sol)) == 2


@pytest.mark.parametrize("algo, message", [
    ("exact", "search space exceeds 100000000 parent functions"),
    ("w3dm-exact", "60 sets exceeds guard of 40"),
])
def test_exact_solvers_refuse_over_their_guards_with_one_line(tmp_path, capsys, algo, message):
    inst = gen_random(tmp_path, n=200, p=0.01, seed=0)
    capsys.readouterr()
    assert run("solve", "--algo", algo, "--input", str(inst),
               "--output", str(tmp_path / "sol.json")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exact_solve_of_an_independent_set_reduction_finds_its_maximum(tmp_path):
    # the best leaf weight of the reduction is the graph's maximum independent set
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6), (5, 7), (6, 7),
             (1, 6), (0, 7)]
    g = UndirectedGraphInstance.build(8, edges)
    inst, sol = tmp_path / "mis.json", tmp_path / "mis.sol.json"
    write_instance(reduce_independent_set(g), inst)
    assert run("solve", "--algo", "exact", "--input", str(inst), "--output", str(sol)) == 0
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0
    best, _ = brute_force_max_independent_set(g)
    assert json.loads(sol.read_text())["report"]["leaf_weight"] == best == 3


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


def test_bench_exact_row_on_a_weighted_instance_maximises_leaf_weight(tmp_path):
    # opt is the leaf-count optimum, so the exact row, which maximises leaf
    # weight here, can have fewer leaves than opt and a ratio above 1
    indir = tmp_path / "instances"
    indir.mkdir()
    arcs = [(1, 2), (1, 4), (2, 3), (3, 0), (4, 0), (4, 2), (4, 3)]
    write_instance(build_digraph(5, 1, arcs, [0, 3, 0, 1, 3]), indir / "w.json")
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves,exact", "--csv", str(out)) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["algorithm"], r["leaves"], r["opt"], r["ratio"]) for r in rows] == [
        ("maxleaves", "3", "3", "1"), ("exact", "2", "3", "3/2")]


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    indir = tmp_path / "instances"
    indir.mkdir()
    out = tmp_path / "bench.csv"
    assert run("bench", "--input-dir", str(indir),
               "--algos", "maxleaves,bogus", "--csv", str(out)) == 2
    assert capsys.readouterr().err == "error: unknown algorithm 'bogus' in --algos\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux opens a directory for reading")
def test_a_directory_given_as_a_file_exits_3_with_one_line(tmp_path, capsys):
    # os.read raises EISDIR, which names no file, so the line ends at the reason
    inst = gen_random(tmp_path)
    sol, _ = solve_into(tmp_path, inst, "")
    directory, missing = tmp_path / "dir", tmp_path / "missing.json"
    directory.mkdir()
    capsys.readouterr()
    for argv in (["solve", "--algo", "maxleaves", "--input", str(directory), "--output", str(sol)],
                 ["verify", "--instance", str(directory), "--solution", str(sol)],
                 ["verify", "--instance", str(inst), "--solution", str(directory)]):
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"error: cannot read {directory}: [Errno 21] Is a directory\n"
    assert run("verify", "--instance", str(inst), "--solution", str(missing)) == 3
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: {str(missing)!r}\n")


def test_bench_missing_directory_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert run("bench", "--input-dir", str(missing),
               "--csv", str(tmp_path / "out.csv")) == 3
    assert capsys.readouterr().err == f"error: --input-dir {missing} is not a directory\n"


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

    rows = snapshot("one.csv")
    assert rows == snapshot("two.csv")
    # every row is certified and has a ratio, and the exact row's ratio is 1
    assert [r["algorithm"] for r in rows] == list(ALGORITHMS)
    assert all(r["certificate_ok"] == "True" and r["ratio"] for r in rows)
    assert [r["ratio"] for r in rows if r["algorithm"] == "exact"] == ["1"]


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
    # bounds recompute consistently, but 1 is below the leaf count, and the
    # root's entry must stay 0
    inst, sol, obj = solved(tmp_path, "maxleaves")
    obj["phase"] = [2] * len(obj["parent"])
    rep = obj["report"]
    rep.update(N1=0, k1=0, N2=0, k2=0, matching_size=0,
               lb_lemma1="1", ub_lemma2="1", ub_lemma3="1")
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "ub_lemma2 >= leaf_count" in err and "ub_lemma3 >= leaf_count" in err
    mismatches = [line for line in err.splitlines() if "recomputation" in line]
    root = obj["parent"].index(None)
    assert mismatches == [f"verify: phase[{root}] is 2, recomputation gives 0",
                          "verify: report certificate_ok is True, recomputation gives False"]


@pytest.mark.parametrize("value", [999, "lots", None])
def test_forged_matching_size_fails_verify(tmp_path, capsys, value):
    # None stands for a report without the key
    inst, sol, obj = solved(tmp_path, "maxleaves", n=40, p=0.1, seed=0)
    rep = obj["report"]
    assert rep["matching_size"] == 1
    if value is None:
        del rep["matching_size"]
    else:
        rep["matching_size"] = value
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert err == f"verify: report matching_size is {value!r}, recomputation gives 1\n"


def recertified(inst, obj, algo):
    """``obj`` as a forger would rewrite it: the phase array and the report
    recomputed from its arrays, with certificate_ok forged true."""
    d = read_instance(inst)
    report = SolveReport.certify(PIPELINES[algo], Branching.from_parents(d, obj["parent"]),
                                 obj["phase"])
    return {**obj, "phase": report.phase, "leaf_count": report.leaf_count,
            "report": {**report.to_dict(), "certificate_ok": True}}


@pytest.mark.parametrize("recompute", [False, True], ids=["as_solved", "recertified"])
def test_forest_fails_verify(tmp_path, capsys, recompute):
    # one vertex cut loose: the parent array is a forest, which the bounds
    # do not cover, and a report recomputed from it hides everything else
    inst, sol, obj = solved(tmp_path, "maxleaves", n=40, p=0.1, seed=0)
    victim = next(v for v, p in enumerate(obj["parent"]) if p is not None)
    obj["parent"][victim] = None
    if recompute:
        obj = recertified(inst, obj, "maxleaves")
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "verify: certificate inequality fails: T is a spanning arborescence\n" in err
    if recompute:
        assert err.splitlines() == [
            "verify: report certificate_ok is True, recomputation gives False",
            "verify: certificate inequality fails: T is a spanning arborescence"]


@pytest.mark.parametrize("recompute", [False, True], ids=["as_solved", "recertified"])
def test_phases_that_are_not_t_branchings_fail_verify(tmp_path, capsys, recompute):
    # every arc in phase F1: F1 and F2 are the whole tree, whose vertices of
    # out-degree 1 make neither a 3- nor a 2-branching
    inst, sol, obj = solved(tmp_path, "maxleaves", n=40, p=0.1, seed=0)
    obj["phase"] = [0] * len(obj["phase"])
    if recompute:
        obj = recertified(inst, obj, "maxleaves")
    failures = [line for line in verify_diagnostics(capsys, inst, sol, obj).splitlines()
                if line.startswith("verify: certificate inequality fails:")]
    assert failures[:2] == ["verify: certificate inequality fails: F1 is a 3-branching",
                            "verify: certificate inequality fails: F2 is a 2-branching"]


@pytest.mark.parametrize("algo, vertex, children, identity", [
    ("maxleaves", 12, [9, 11, 22, 33], "2 * matching_size == (N2 - k2) - (N1 - k1)"),
    ("w3dm-greedy", 8, [4, 24, 31], "2 * selected_pairs == (N3 - k3) - (N2 - k2)"),
], ids=["maxleaves", "w3dm-greedy"])
def test_expansion_moved_into_the_pairs_phase_fails_verify(
        tmp_path, capsys, algo, vertex, children, identity):
    # move one expansion of F1 (maxleaves) or F2 (w3dm) into the next
    # phase, a 2-branching: every phase stays a t-branching and the report
    # is recomputed to match, but that phase now costs one leaf for more
    # than two arcs
    inst, sol, obj = solved(tmp_path, algo, n=40, p=0.1, seed=0)
    pipeline, phase = PIPELINES[algo], obj["phase"]
    moved = [v for v, p in enumerate(obj["parent"]) if p == vertex]
    assert moved == children and len({phase[v] for v in moved}) == 1
    for v in moved:
        phase[v] += 1
    d = read_instance(inst)
    phases = phase_prefixes(d, obj["parent"], phase, len(pipeline.phases))
    assert all(is_t_branching(f, t_min) for f, (_, t_min) in zip(phases, pipeline.phases))
    obj["report"] = {**SolveReport.certify(pipeline, phases[-1], phase).to_dict(),
                     "certificate_ok": True}
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert err.splitlines() == ["verify: report certificate_ok is True, recomputation gives False",
                                f"verify: certificate inequality fails: {identity}"]


@pytest.mark.parametrize("algo", ["maxleaves", "w3dm-greedy", "expansion2"])
def test_forged_root_phase_fails_verify(tmp_path, capsys, algo):
    # the root has no parent, so no phase is rebuilt differently: only the
    # phase array itself can show the forgery
    inst, sol, obj = solved(tmp_path, algo, n=40, p=0.1, seed=3)
    root = obj["parent"].index(None)
    obj["phase"][root] = 1
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert err == f"verify: phase[{root}] is 1, recomputation gives 0\n"


PHASE_FAULTS = {
    "count": lambda phase: phase[:2] + [3] + phase[3:],
    "seven": lambda phase: phase[:2] + [7] + phase[3:],
    "minus_one": lambda phase: phase[:2] + [-1] + phase[3:],
    "short": lambda phase: phase[:-1],
    "true": lambda phase: phase[:2] + [True] + phase[3:],
    "float": lambda phase: phase[:2] + [2.0] + phase[3:],
}


@pytest.mark.parametrize("fault", list(PHASE_FAULTS))
def test_phase_outside_its_pipelines_range_fails_verify(tmp_path, capsys, fault):
    # vertex 2 of this maxleaves solution is in T, index 2 of three phases;
    # an index out of [0, 3) or an array of the wrong length is named as
    # such, in a file and in a solution handed to verify_solution
    inst, sol, obj = solved(tmp_path, "maxleaves", n=30, p=0.1, seed=0)
    assert obj["phase"][2] == 2 and len(obj["phase"]) == 30
    obj["phase"] = PHASE_FAULTS[fault](obj["phase"])
    message = "phase must be 30 indices in [0, 3)"
    assert verify_solution(read_instance(inst), obj) == [message]
    assert verify_diagnostics(capsys, inst, sol, obj) == f"verify: {message}\n"


def test_forged_claimed_alpha_fails_verify(tmp_path, capsys):
    inst, sol, obj = solved(tmp_path, "w3dm-greedy")
    rep = obj["report"]
    assert rep["claimed_alpha"] == "3"
    nk = [rep[key] for key in ("N1", "k1", "N2", "k2", "N3", "k3")]
    rep.update(claimed_alpha="1", ub_lemma5=str(packing_upper_bound(*nk, Fraction(1))))
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert "claimed_alpha" in err


def test_report_keys_not_recomputed_fail_verify(tmp_path, capsys):
    # bounds of another pipeline added to a maxleaves report once verified;
    # a key outside "report" stays open for what verify does not certify
    inst, sol, obj = solved(tmp_path, "maxleaves", n=200, p=0.02, seed=3)
    obj["telemetry"] = {"solve_s": 0.1}
    sol.write_text(json.dumps(obj))
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0
    obj["report"].update(ub_lemma5="1", claimed_alpha="1", lb_lemma4="999999")
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert err.splitlines() == [f"verify: report {key} is not recomputed for maxleaves"
                                for key in ("ub_lemma5", "claimed_alpha", "lb_lemma4")]


def test_non_rational_claimed_alpha_fails_verify(tmp_path, capsys):
    inst, sol, obj = solved(tmp_path, "w3dm-greedy", n=30, p=0.2, seed=1)
    obj["report"]["claimed_alpha"] = "abc"
    assert "claimed_alpha" in verify_diagnostics(capsys, inst, sol, obj)


@pytest.mark.parametrize("algorithm", ["w3dm-mine", ["maxleaves"]])
def test_verify_rejects_unknown_algorithm(tmp_path, capsys, algorithm):
    inst, sol, obj = solved(tmp_path, "w3dm-exact", n=12, p=0.3, seed=2)
    obj["report"]["algorithm"] = algorithm
    assert "unknown algorithm" in verify_diagnostics(capsys, inst, sol, obj)


@pytest.mark.parametrize("version", [1, 2.0, "x" * 100_000],
                         ids=["version-1", "version-2.0", "version-long"])
def test_malformed_solution_exits_3(tmp_path, capsys, version):
    inst, sol, obj = solved(tmp_path, "maxleaves", n=12, p=0.3, seed=2)
    obj["version"] = version
    sol.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 3
    err = capsys.readouterr().err
    assert err == f"error: {sol}: unsupported solution version {version!r:.40}\n"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constant_in_a_solution_exits_3(tmp_path, capsys, constant):
    inst, sol, obj = solved(tmp_path, "maxleaves", n=12, p=0.3, seed=2)
    obj["leaf_count"] = float(constant)
    sol.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 3
    err = capsys.readouterr().err
    assert err == f"error: {sol}: invalid JSON: {constant} is not a JSON number\n"


@pytest.mark.parametrize("change, line", [
    # entries of the wrong type, the root's first: True and 1.0 stand for
    # the tail 1 of real host arcs, and still fail
    ({"parent": [True]}, "parent array invalid: arc (True, 0) not in host digraph"),
    ({"parent": ["0"]}, "parent array invalid: arc ('0', 0) not in host digraph"),
    ({"parent": [None, 0, True, True, True]},
     "parent array invalid: arc (True, 2) not in host digraph"),
    ({"parent": [None, 0, 1.0, 1.0, 1.0]},
     "parent array invalid: arc (1.0, 2) not in host digraph"),
    ({"phase": [False]}, "phase must be 5 indices in [0, 3)"),
    ({"phase": [0.0]}, "phase must be 5 indices in [0, 3)"),
    ({"phase": None}, "phase must be 5 indices in [0, 3)"),
], ids=["parent-true", "parent-string", "parent-true-tail", "parent-float-tail",
        "phase-false", "phase-float", "phase-null"])
def test_malformed_solution_array_fails_verify(tmp_path, capsys, change, line):
    # a version 2 file is checked by verify_solution alone, so the file and
    # the same dict handed to the library print the same line
    d = build_digraph(5, 0, [(0, 1), (1, 2), (1, 3), (1, 4), (0, 2)])
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    write_instance(d, inst)
    t, report = max_leaves(d)
    assert t.parent == [None, 0, 1, 1, 1]
    obj = {"version": 2, "parent": t.parent, "phase": report.phase,
           "leaf_count": report.leaf_count, "report": report.to_dict()}
    assert verify_solution(d, obj) == []
    for key, value in change.items():
        obj[key] = value if value is None else value + obj[key][len(value):]
    assert verify_solution(d, obj) == [line]
    assert verify_diagnostics(capsys, inst, sol, obj) == f"verify: {line}\n"


BIG = "x" * 100_000
CUT_LINES = {  # the line a 100 kB string in each field prints
    "leaf_count": f"leaf_count is {'x' * 40}, recount gives 9",
    "algorithm": f"unknown algorithm '{'x' * 39} in report",
    "report-value": f"report N1 is '{'x' * 39}, recomputation gives 12",
    "report-key": f"report {'x' * 40} is not recomputed for maxleaves",
    "parent": f"parent array invalid: arc ('{'x' * 58} not in host digraph",
}


@pytest.mark.parametrize("field", list(CUT_LINES))
def test_verify_cuts_every_file_value_it_echoes(tmp_path, capsys, field):
    # a 100 kB string in any field a diagnostic echoes prints a short line
    inst, sol, obj = solved(tmp_path, "maxleaves", n=12, p=0.3, seed=2)
    report = obj["report"]
    if field == "leaf_count":
        obj["leaf_count"] = BIG
    elif field == "algorithm":
        report["algorithm"] = BIG
    elif field == "report-value":
        report["N1"] = BIG
    elif field == "report-key":
        report[BIG] = 0
    else:
        obj["parent"][0] = BIG
    err = verify_diagnostics(capsys, inst, sol, obj)
    assert f"verify: {CUT_LINES[field]}\n" in err
    assert max(map(len, err.splitlines())) < 200


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


@pytest.mark.parametrize("solution", [None, [], "x"], ids=["none", "list", "string"])
def test_library_verify_rejects_a_solution_that_is_not_a_dict(solution):
    # once a bare AttributeError from solution.get
    d = build_digraph(2, 0, [(0, 1)])
    assert verify_solution(d, solution) == [
        f"solution must be an object, got {type(solution).__name__}"]


@pytest.mark.parametrize("shape", ["random", "hub"])
def test_solve_and_verify_never_build_in_adj(tmp_path, monkeypatch, shape):
    # out_adj is the only copy of the arcs these commands read: attach
    # gathers the in-neighbors of the vertices it attaches, and verify looks
    # each tree arc up in its tail's head list, bisected on the hub's
    inst = tmp_path / "inst.json"
    if shape == "random":
        gen_random(tmp_path, "inst.json", n=400, p=0.01, seed=3)
    else:  # root 0 fans out to 40 candidates with two private heads each
        arcs = [(0, v) for v in range(1, 41)] + [(v, 39 + 2 * v + j) for v in range(1, 41)
                                                   for j in (0, 1)]
        write_instance(build_digraph(121, 0, arcs), inst)

    def refuse(d):
        raise AssertionError("in_adj built")

    monkeypatch.setattr(Digraph, "in_adj", property(refuse))
    for algo in ("maxleaves", "expansion2", "w3dm-greedy"):
        sol = tmp_path / f"{algo}.json"
        assert run("solve", "--algo", algo, "--input", str(inst), "--output", str(sol)) == 0
        assert run("verify", "--instance", str(inst), "--solution", str(sol)) == 0
        phase = json.loads(sol.read_text())["phase"]
        # the random instance leaves vertices for attach, whose phase is T's
        attaches = phase.count(len(PIPELINES[algo].phases) - 1)
        assert attaches > 0 if shape == "random" else attaches == 0, attaches


def test_verify_runs_no_heap_pass_but_solve_needs_it(tmp_path, monkeypatch):
    # verify checks that the instance is a rooted DAG with the list pass and
    # reads no topological order; solve walks the order the heap pass builds
    inst = gen_random(tmp_path, n=12, p=0.3, seed=2)
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(instance_v1(read_instance(inst))))
    for algo in ALGORITHMS:
        assert run("solve", "--algo", algo, "--input", str(inst),
                   "--output", str(tmp_path / f"{algo}.json")) == 0

    def refuse(*args):
        raise AssertionError("heap pass run")

    monkeypatch.setattr(leafspan.graph, "heapq", SimpleNamespace(heappop=refuse, heappush=refuse))
    for algo in ALGORITHMS:
        for path in (inst, v1):
            assert run("verify", "--instance", str(path),
                       "--solution", str(tmp_path / f"{algo}.json")) == 0
    with pytest.raises(AssertionError, match="heap pass run"):
        run("solve", "--algo", "maxleaves", "--input", str(inst),
            "--output", str(tmp_path / "again.json"))


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


FAIL_ON_LOCALE_ENCODING = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]


@pytest.mark.parametrize("name", ["gen", "solve-maxleaves", "verify", "bench"])
def test_commands_never_use_the_locale_encoding(command_files, name):
    # an open() or read_text() without an encoding raises EncodingWarning here
    code, argv = command(command_files, name)
    done = subprocess.run([sys.executable, *FAIL_ON_LOCALE_ENCODING, "-m", "leafspan.cli", *argv],
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr


def instance_with_provenance(tmp_path, encoding):
    path = tmp_path / f"{encoding}.json"
    body = '{"version":2,"n":2,"root":0,"out":[[1],[]],"provenance":"caf\u00e9"}'
    path.write_bytes(body.encode(encoding))
    return path


def test_a_latin_1_byte_exits_3(tmp_path, capsys):
    inst = instance_with_provenance(tmp_path, "latin-1")
    assert b"\xe9" in inst.read_bytes()
    assert run("solve", "--algo", "maxleaves", "--input", str(inst),
               "--output", str(tmp_path / "sol.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {inst}: 'utf-8' codec can't decode byte 0xe9")


def test_a_byte_order_mark_exits_3_as_invalid_json(tmp_path, capsys):
    inst = instance_with_provenance(tmp_path, "utf-8-sig")
    assert inst.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run("verify", "--instance", str(inst), "--solution", str(inst)) == 3
    assert capsys.readouterr().err.startswith(f"error: {inst}: invalid JSON: Unexpected UTF-8 BOM")
