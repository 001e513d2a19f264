"""Mutation fuzzing of instance and solution files.

Each example starts from a valid file and applies a few mutations: a field
or array entry dropped, retyped or duplicated (bools, floats, strings,
nested lists, objects, nulls), an array truncated, or an arc appended that
is out of range, a self-loop or a repeat.  An instance starts from the
version 2 or the version 1 text of a base graph, so both readers are
fuzzed.  `read_instance` must return a `Digraph` or raise `ParseError`, and
`leafspan verify` must exit with one of its documented codes (0, 1, 2, 3)
without a traceback.  Hypothesis runs derandomized, so every run tries the
same examples.
"""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from leafspan import (  # noqa: E402
    Digraph,
    ParseError,
    UndirectedGraphInstance,
    gen_random_rooted_dag,
    read_instance,
    reduce_independent_set,
    write_instance,
)
from leafspan.cli import ALGORITHMS, main  # noqa: E402
from oracles import instance_v1  # noqa: E402

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

IDS = st.integers(-2, 14)
JUNK = st.one_of(
    st.booleans(),
    st.none(),
    IDS,
    st.floats(-2, 14),
    st.text(max_size=3),
    st.lists(IDS, max_size=3),
    st.tuples(IDS, IDS).map(list),
    IDS.map(lambda v: [v, v]),
    st.lists(st.lists(IDS, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), IDS, max_size=2),
)


def _containers(value, out):
    """Every object and array inside ``value``, outermost first."""
    if isinstance(value, (dict, list)):
        out.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


def mutate(data, obj):
    """Apply one to three random mutations to the JSON value ``obj`` in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        # the top level half the time, so its fields are not drowned out
        # by the many arcs and array entries
        if data.draw(st.booleans()):
            target = obj
        else:
            target = data.draw(st.sampled_from(_containers(obj, [])))
        if isinstance(target, dict):
            action = data.draw(st.sampled_from(["drop", "retype", "add"]))
            if action == "add" or not target:
                target[data.draw(st.text(max_size=8))] = data.draw(JUNK)
                continue
            key = data.draw(st.sampled_from(sorted(target)))
            if action == "drop":
                del target[key]
            else:
                target[key] = data.draw(JUNK)
            continue
        action = data.draw(st.sampled_from(["drop", "retype", "duplicate", "truncate", "append"]))
        if action == "append" or not target:
            target.append(data.draw(JUNK))
            continue
        i = data.draw(st.integers(0, len(target) - 1))
        if action == "drop":
            del target[i]
        elif action == "retype":
            target[i] = data.draw(JUNK)
        elif action == "duplicate":
            target.insert(i, copy.deepcopy(target[i]))
        else:
            del target[i:]


@pytest.fixture(scope="module")
def instance_texts(tmp_path_factory):
    """Valid instance texts, a version 2 and a version 1 text of each of two
    graphs: a random DAG and a vertex-weighted reduction."""
    directory = tmp_path_factory.mktemp("fuzz_instances")
    graphs = [
        gen_random_rooted_dag(8, 0.3, 1),
        reduce_independent_set(UndirectedGraphInstance.build(3, [(0, 1), (1, 2)])),
    ]
    texts = []
    for i, d in enumerate(graphs):
        path = directory / f"{i}.json"
        write_instance(d, path, provenance="fuzz base")
        texts.append(path.read_text())
        texts.append(json.dumps(dict(instance_v1(d), provenance="fuzz base")))
    return texts


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """An instance file and one solution text per algorithm."""
    directory = tmp_path_factory.mktemp("fuzz_solutions")
    instance = directory / "instance.json"
    write_instance(gen_random_rooted_dag(12, 0.3, 2), instance)
    texts = []
    for algo in ALGORITHMS:
        path = directory / f"{algo}.json"
        args = ["solve", "--algo", algo, "--input", str(instance), "--output", str(path)]
        assert main(args) == 0
        texts.append(path.read_text())
    return instance, texts


@settings(FUZZ, max_examples=2 * FUZZ.max_examples)  # as many per format as before
@given(data=st.data())
def test_mutated_instance_parses_or_raises_parse_error(tmp_path, instance_texts, data):
    obj = json.loads(data.draw(st.sampled_from(instance_texts)))
    mutate(data, obj)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    try:
        d = read_instance(path)
    except ParseError:
        return
    assert isinstance(d, Digraph)


@FUZZ
@given(data=st.data())
def test_mutated_solution_exits_with_a_documented_code(tmp_path, capsys, solved, data):
    instance, texts = solved
    obj = json.loads(data.draw(st.sampled_from(texts)))
    mutate(data, obj)
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["verify", "--instance", str(instance), "--solution", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
