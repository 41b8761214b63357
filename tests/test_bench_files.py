"""The committed benchmark trajectory: every BENCH_*.json at the root,
written by tools/bench_history.py, parses, names exactly the workloads
and end-to-end metrics that BENCHMARK.json declares, and holds correct
runs of BENCHMARK.json's run length on seeds 1-5."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))
SEEDS = range(1, 6)


def test_the_trajectory_has_files():
    assert len(FILES) >= 2


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_names_the_declared_workloads_and_metrics(path):
    """Each file's summary covers the declared workloads and metrics, no
    more and no fewer, each summary is the median and quartiles of the
    raw series lines it keeps, and every raw line is a correct run of
    run_seconds on one of seeds 1-5."""
    doc = json.loads(path.read_text())
    assert path.name == "BENCH_%s.json" % doc["label"]
    for key in ("revision", "src_tree", "python", "cpu_count", "seconds"):
        assert doc[key], key
    workloads = [w["name"] for w in BENCH["workloads"]]
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert sorted(doc["metrics"]) == sorted(workloads)
    assert {row["workload"] for row in doc["raw"]} == set(workloads)
    assert doc["seconds"] == BENCH["run_seconds"]
    for row in doc["raw"]:
        assert row["seconds"] == BENCH["run_seconds"], row["workload"]
        assert row["result"]["correct"], (row["workload"], row["seed"])
    for workload, metrics in doc["metrics"].items():
        assert set(metrics) == set(units), workload
        rows = [row for row in doc["raw"] if row["workload"] == workload]
        assert sorted(row["seed"] for row in rows) == list(SEEDS), workload
        raw = [row["result"]["metrics"] for row in rows]
        for name, stats in metrics.items():
            values = sorted(r[name]["value"] for r in raw)
            assert stats["unit"] == units[name]
            assert stats["n"] == len(values), (workload, name)
            q1, _, q3 = statistics.quantiles(values, n=4)
            assert (stats["q1"], stats["median"], stats["q3"]) == (
                q1, statistics.median(values), q3), (workload, name)


def test_bench_history_refuses_a_repeated_label(monkeypatch, capsys):
    """A LABEL given twice exits 2 with a message before any revision is
    unpacked."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_history
    monkeypatch.setattr(bench_history, "unpack",
                        lambda rev, dest: pytest.fail("unpacked " + rev))
    with pytest.raises(SystemExit) as exc:
        bench_history.main(["pr1=HEAD", "pr1=HEAD~1"])
    assert exc.value.code == 2
    assert "each LABEL is given once" in capsys.readouterr().err


@pytest.mark.parametrize("rev", ("nosuchrev", "HEAD:src"))
def test_bench_history_refuses_a_revision_without_the_benchmark(monkeypatch,
                                                                capsys, rev):
    """A REV that names no tree holding src/ and perfbench/series.py, or
    no revision at all, exits 2 with a message before any revision is
    unpacked, the good one given first included."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_history
    monkeypatch.setattr(bench_history, "unpack",
                        lambda rev, dest: pytest.fail("unpacked " + rev))
    with pytest.raises(SystemExit) as exc:
        bench_history.main(["pr1=HEAD", "pr0=" + rev])
    assert exc.value.code == 2
    assert "pr0=%s: " % rev in capsys.readouterr().err
