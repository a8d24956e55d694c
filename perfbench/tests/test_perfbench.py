"""Self-tests of the benchmark: golden checking, self time, traced requests.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(run.SRC))
from abelcodes import cli  # noqa: E402

SMALL = ["15", "--weights", "--distribution", "--verify", "--format", "json", "--threads", "1"]


@pytest.fixture(scope="module")
def small_answer() -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(SMALL)
    return {"exit": code, "report": json.loads(buf.getvalue())}


def test_golden_file_has_every_workload_with_its_exit_code():
    recorded = golden.load()
    assert set(recorded) == set(run.WORKLOADS)
    assert {name: g["exit"] for name, g in recorded.items()} == {
        "enum_165": 0,
        "levels_675": 0,
        "split_225": 3,
    }
    assert all(g["verify"] == {"passed": True, "failing": []} for g in recorded.values())


def test_correct_answer_passes_and_format_changes_do_not_count(small_answer):
    tally = run.Tally(golden.checked_content(small_answer["exit"], small_answer["report"]))
    assert tally.check(small_answer)
    reworded = copy.deepcopy(small_answer)
    for entry in reworded["report"]["weights"].values():
        entry["min_weight"]["notes"] = ["reworded"]
        entry["extra_field"] = 1
    for check in reworded["report"]["verify"]["checks"]:
        check["detail"] = "reworded"
    assert tally.check(reworded)
    assert (tally.attempted, tally.failed) == (2, 0)


def _corrupt_distribution(answer):
    dist = next(iter(answer["report"]["distributions"].values()))
    key = next(iter(dist))
    dist[key] += 1


def _corrupt_min_weight(answer):
    entry = next(iter(answer["report"]["weights"].values()))
    entry["min_weight"]["min_weight"] += 1


def _corrupt_dimension(answer):
    next(iter(answer["report"]["weights"].values()))["dimension"] += 1


def _corrupt_verify(answer):
    answer["report"]["verify"]["checks"][0]["passed"] = False
    answer["report"]["verify"]["passed"] = False


def _corrupt_exit(answer):
    answer["exit"] = 4


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_distribution, _corrupt_min_weight, _corrupt_dimension, _corrupt_verify, _corrupt_exit],
)
def test_corrupted_answer_counts_as_failed(small_answer, corrupt):
    tally = run.Tally(golden.checked_content(small_answer["exit"], small_answer["report"]))
    bad = copy.deepcopy(small_answer)
    corrupt(bad)
    assert not tally.check(bad)
    assert not tally.check(None)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_self_time_on_a_synthetic_span_tree():
    # (id, name, start, end, parent, attrs)
    tree = [
        (0, "root", 0.0, 10.0, None, None),
        (1, "a", 1.0, 4.0, 0, None),
        (2, "a", 2.0, 3.0, 1, None),  # nested in a span of the same name
        (3, "b", 3.5, 6.0, 0, None),  # overlaps its sibling from 3.5 to 4.0
        (4, "c", 7.0, 7.25, 0, None),
        (5, "c", 8.0, 8.5, 3, None),  # lies outside its parent: not counted
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 0.25))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(0.25)
    assert selfs[5] == pytest.approx(0.5)


def test_layer_totals_count_nested_same_name_spans_once():
    tree = [
        (0, spans.ROOT_SPAN, 0.0, 10.0, None, None),
        (1, "idempotents.build", 1.0, 5.0, 0, None),
        (2, "idempotents.build", 2.0, 3.0, 1, None),
        (3, "group_algebra.mul", 2.0, 2.5, 2, None),
        (4, "idempotents.verify_axioms", 6.0, 8.0, 0, None),
        (5, "group_algebra.mul", 6.0, 7.0, 4, None),
        (6, "group_algebra.translate", 6.0, 6.5, 5, None),
        (7, "gf2.rank", 8.0, 8.5, 0, {"rows_in": 10, "rows_kept": 4}),
        (8, "codes.scan", 8.5, 9.0, 0, {"words": 7, "hist": False, "code": "x"}),
        (9, "codes.scan", 9.0, 9.5, 0, {"words": 7, "hist": True, "code": "x"}),
        (10, "codes.minimum_weight", 9.5, 9.6, 0, {"exact": False}),
        (11, "codes.weight_distribution", 9.6, 9.7, 0, {"raised": "BudgetExceededError"}),
    ]
    m = spans.layer_metrics(tree, n_labels=2)
    assert m["idempotents.build.total_s"] == pytest.approx(4.0)
    assert m["idempotents.verify_axioms.products"] == 1
    assert m["group_algebra.mul.calls"] == 2
    assert m["group_algebra.mul.self_s"] == pytest.approx(0.5 + 0.5)
    assert m["gf2.rank.useful_ratio"] == pytest.approx(0.4)
    assert m["codes.scan.words"] == 14
    assert m["codes.scan.useful_ratio"] == pytest.approx(0.5)
    assert m["codes.scan.min_words_per_s"] == pytest.approx(14.0)
    assert m["codes.budget.refusals"] == 2


def test_span_key_is_the_same_for_every_basis_of_a_span():
    assert spans.span_key([0b1100, 0b0110]) == spans.span_key([0b1010, 0b0110])
    assert spans.span_key([0b1100, 0b0110]) != spans.span_key([0b1100, 0b0111])


def test_benchmark_json_declares_exactly_the_measured_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = set(spans.layer_metrics([], n_labels=1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "correct_frac"
    }


def test_traced_request_returns_the_same_checked_content(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    plain = run.request("small", trace=False)
    path = tmp_path / "small.jsonl"
    traced = run.request("small", trace=True, spans_path=path)
    assert golden.checked_content(traced["exit"], traced["report"]) == golden.checked_content(
        plain["exit"], plain["report"]
    )
    recorded = spans.load(str(path))
    names = {s[1] for s in recorded}
    assert names == {spans.ROOT_SPAN} | {layer[0] for layer in spans.LAYERS}
    roots = [s for s in recorded if s[4] is None]
    assert [s[1] for s in roots] == [spans.ROOT_SPAN]
    metrics = spans.layer_metrics(recorded, n_labels=len(traced["report"]["group"]["labels"]))
    assert metrics["codes.ideal_basis.calls_per_label"] == 5.0
    assert metrics["group_algebra.translate.calls"] > 0


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "enum_165", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_peak_rss_grows_with_the_memory_a_worker_touches():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import worker\n"
        "before = worker.peak_rss_kb()\n"
        "ballast = b'x' * (8 << 20)\n"
        "print(before, worker.peak_rss_kb())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(run.HERE)], capture_output=True, text=True, check=True
    )
    before, after = map(int, out.stdout.split())
    assert after - before >= 7 * 1024


def test_worker_peak_rss_excludes_the_parent_memory(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    ballast = b"x" * (64 << 20)
    assert worker.peak_rss_kb() > len(ballast) // 1024
    result = run.request("small", trace=False)
    assert 0 < result["peak_rss_kb"] < len(ballast) // 1024
    del ballast


def test_worker_that_never_gets_ready_is_stopped(monkeypatch, tmp_path):
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(run, "WORKER", hang)
    monkeypatch.setattr(run, "SETUP_TIMEOUT", 0.5)
    with pytest.raises(run.WorkerError, match="not ready"):
        run.measure_setup()
