"""Self-tests of the benchmark: each check rejects a deliberately
corrupted output, and the command prints a well-formed report.

    python3 -m pytest -q kgbench/test_kgbench.py

Starts one local Ray session of 2 CPUs for a small ``kg_full`` run, plus
two benchmark subprocesses (under a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [ROOT, BENCH_DIR]

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def graph_run(tmp_path_factory):
    """A real ``kg_full`` output over 80 replay pages."""
    import ray
    base = tmp_path_factory.mktemp("kgbench")
    corpus = inputs.build(str(base / "in"), 80, 1200, seed=5)
    out = str(base / "out")
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             log_to_driver=False, object_store_memory=512 * 1024 ** 2)
    try:
        from ie_ray.pipelines.kg import kg_full
        kg_full(corpus.fixture_dir, out)
    finally:
        ray.shutdown()
    triples = checks.read_dir(os.path.join(out, "triples"))
    quarantine = checks.read_dir(os.path.join(out, "quarantine"))
    return corpus, out, triples, quarantine


def _alias(corpus):
    return os.path.join(corpus.fixture_dir, "alias_table.parquet")


def test_clean_output_passes(graph_run):
    corpus, out, triples, quarantine = graph_run
    rep = checks.check_triples(corpus, [triples, quarantine], exact_gold=True,
                               empty_dropped=True)
    assert rep.problems == []
    assert rep.pages_kept == len(corpus.text_groups)
    assert rep.precision == rep.recall == 1.0
    g = checks.check_graph(out, _alias(corpus))
    assert g.problems == []
    assert g.nodes > 0 and g.edges > 0


def test_dropped_triple_rejected(graph_run):
    corpus, _, triples, quarantine = graph_run
    good = pc.is_in(triples.column("kind"), value_set=pa.array(["arg"]))
    i = pc.index(good, True).as_py()
    dropped = pa.concat_tables([triples.slice(0, i), triples.slice(i + 1)])
    rep = checks.check_triples(corpus, [dropped, quarantine], exact_gold=True,
                               empty_dropped=True)
    assert rep.problems


def test_changed_edge_count_rejected(graph_run):
    corpus, out, _, _ = graph_run
    edges = checks.read_dir(os.path.join(out, "edges"))
    n = edges.column("n").to_pylist()
    n[0] += 1
    edges = edges.set_column(edges.column_names.index("n"), "n",
                             pa.array(n, type=pa.int64()))
    g = checks.check_graph(out, _alias(corpus), edges=edges)
    assert any(p.startswith("edges:") for p in g.problems)


def test_relabelled_aka_endpoint_rejected(graph_run):
    corpus, out, triples, _ = graph_run
    kinds = triples.column("kind").to_pylist()
    assert "aka" in kinds
    obj_id = triples.column("obj_id").to_pylist()
    obj_id[kinds.index("aka")] = "E99999"
    bad = triples.set_column(triples.column_names.index("obj_id"), "obj_id",
                             pa.array(obj_id, type=pa.string()))
    g = checks.check_graph(out, _alias(corpus), triples=bad)
    assert any(p.startswith("aka endpoints") for p in g.problems)


def test_report_from_root_dir():
    """Launched from ``/`` with no PYTHONPATH, stdout holds the report
    alone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", "replay-1200", "--seed", "3", "--seconds", "1",
           "--trace", "0", "--pages", "60"]
    res = subprocess.run(cmd, cwd="/", env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=170)
    assert res.returncode == 0, res.stderr[-2000:]
    lines = res.stdout.splitlines()
    assert len(lines) == 1, res.stdout
    report = json.loads(lines[0])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"]:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_without_engine_fails(tmp_path):
    """Holding only BENCHMARK.json and the benchmark's files, the command
    exits non-zero and prints no report."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "kgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "kgbench/run.py", "--workload",
                          "replay-1200", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""
