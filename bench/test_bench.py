"""Tests of the benchmark itself: generators, tracing, checks, metric names."""

import json
from pathlib import Path

import pytest

import harness
import leafspan.cli
import leafspan.instances
import leafspan.solvers
from leafspan import gen_adversarial_family, write_instance
from tracing import TARGETS, Tracer, _largest_component
from workloads import ALL_ALGOS, SMALL_OVER_GUARD, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def instance_bytes(tmp_path, workload, seed):
    out = []
    for name, d in WORKLOADS[workload][0](seed):
        path = tmp_path / f"{workload}-{seed}-{name}.json"
        write_instance(d, path)
        out.append(path.read_bytes())
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    first = instance_bytes(tmp_path, workload, 7)
    assert instance_bytes(tmp_path, workload, 7) == first
    assert instance_bytes(tmp_path, workload, 8) != first


def matching_calls(monkeypatch, workload):
    """Arguments of every max_matching call made by maxleaves on the workload."""
    calls = []
    original = leafspan.solvers.max_matching

    def spy(vertex_count, edges):
        calls.append((vertex_count, list(edges)))
        return original(vertex_count, edges)

    monkeypatch.setattr(leafspan.solvers, "max_matching", spy)
    for _, d in WORKLOADS[workload][0](3):
        leafspan.solvers.max_leaves(d)
    return calls


def test_hub_fanout_matching_components_all_have_two_vertices(monkeypatch):
    [(vertex_count, edges)] = matching_calls(monkeypatch, "hub-fanout")
    touched = {v for e in edges for v in e}
    assert edges and len(touched) == 2 * len(edges)
    assert _largest_component(vertex_count, edges) == 2


def test_giant_matching_has_one_giant_component(monkeypatch):
    [(vertex_count, edges)] = matching_calls(monkeypatch, "giant-matching")
    touched = {v for e in edges for v in e}
    assert _largest_component(vertex_count, edges) >= 0.9 * len(touched)


def test_small_exact_has_a_fixed_refusal_count_and_all_algorithms(tmp_path):
    _, algos = WORKLOADS["small-exact"]
    assert algos == ALL_ALGOS
    for seed in (3, 4):
        jobs, _, _ = harness.setup("small-exact", seed, tmp_path)
        assert sum(j[3] == ("refused",) for j in jobs) == SMALL_OVER_GUARD


def test_wrappers_install_record_and_remove(tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.assert_clean()
        assert leafspan.cli.main is not originals[(leafspan.cli, "main")]
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        tracer.job = ("test", 0)
        leafspan.instances.write_instance(gen_adversarial_family(2), inst)
        for algo in ("maxleaves", "w3dm-greedy", "w3dm-exact", "exact"):
            assert leafspan.cli.main(["solve", "--algo", algo, "--input", str(inst),
                                      "--output", str(sol)]) == 0
            assert leafspan.cli.main(["verify", "--instance", str(inst),
                                      "--solution", str(sol)]) == 0
    finally:
        tracer.remove()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    tracer.assert_clean()
    names = {name for name, *_ in tracer.spans}
    assert names == {name for _, _, name in TARGETS}
    spans = tracer.durations(lambda job: job == ("test", 0))
    assert spans["cli.main"][2] == 8
    assert all(own <= total + 1e-9 for total, own, _ in spans.values())
    assert tracer.counts["instances.instance_bytes"] == 8 * inst.stat().st_size


def tiny(seed):
    return [(f"adv{k}", gen_adversarial_family(k)) for k in (1, 2, 3)]


def run_tiny(monkeypatch, capsys, traced):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", (tiny, ALL_ALGOS))
    code = harness.run("tiny", 1, 0, traced, 0.01)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("traced, key", [(False, "end_to_end"), (True, "per_layer")])
def test_command_emits_exactly_the_listed_metrics(monkeypatch, capsys, traced, key):
    code, result = run_tiny(monkeypatch, capsys, traced)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    Tracer().assert_clean()


def test_golden_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(harness, "load_golden", lambda w, s: {"exact": {"leaves": 0}})
    code, result = run_tiny(monkeypatch, capsys, False)
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_bound_below_optimum_is_caught():
    jobs = [("a", "a.json", "exact", ("ok",)), ("a", "a.json", "maxleaves", ("ok",))]

    def solution(algo, leaves, **report):
        report.update(leaf_count=leaves, certificate_ok=True, algorithm=algo)
        return json.dumps({"leaf_count": leaves, "report": report}).encode()

    first = {
        "outcomes": ["ok", "ok"],
        "bytes": [solution("exact", 12), solution("maxleaves", 10,
                                                   ub_lemma2="11", ub_lemma3="13")],
    }
    problems, _, _ = harness.check_first_pass(jobs, first)
    assert list(problems) == [1] and "upper bound" in problems[1]


def test_prediction_map_names_only_emitted_metrics():
    predictions = json.loads((ROOT / "bench" / "predictions.json").read_text())
    layers = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(WORKLOADS)
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    for workload in workloads:
        assert str(predictions["held_out_seed"]) in golden[workload]
    for p in predictions["predictions"]:
        assert p["layer"] in layers
        assert set(p["moves"]) <= e2e
        assert set(p["on"]) | set(p.get("no_change_on", [])) <= workloads


def test_speed_scales_each_job_by_the_bursts_around_it(monkeypatch):
    import reference

    now = [0.0]
    monkeypatch.setattr(reference, "clock", lambda: now[0])
    monkeypatch.setattr(reference, "measure", iter([0.05, 0.06, 0.04, 0.12]).__next__)
    monkeypatch.setattr(reference, "SHARE", 0.01)
    speed = reference.Speed()
    marks = []
    for t in (0.0, 10.0, 10.0, 20.0):  # before job 0, twice between jobs, after job 1
        now[0] = t
        marks.append(speed.keep_up())
    # the unit runs until it has taken 1 % of the elapsed time, at least once
    assert speed.samples == [0.05, 0.06, 0.04, 0.12]
    assert marks == [0, 1, 2, 3]
    # each side takes whole bursts until it has three samples or runs out
    assert speed.factor(0, 1) == reference.NOMINAL_S / 0.055  # .05 | .06 .04 .12
    monkeypatch.setattr(reference, "SIDE_SAMPLES", 1)
    assert speed.factor(0, 1) == reference.NOMINAL_S / 0.055  # .05 | .06
    # burst 2 is empty, so the work between bursts 1 and 2 uses burst 3 after it
    assert speed.factor(1, 2) == reference.NOMINAL_S / 0.06  # .06 | .04 .12
