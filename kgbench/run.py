"""KG-flagship benchmark: one workload per invocation.

    python3 kgbench/run.py --workload replay-1200 --seed 1 --seconds 20 --trace 0

Runs from any working directory.  Generates the workload's input from
``--seed`` under ``.kgbench_work/`` at the repository root, starts a local
Ray session of 2 CPUs, runs whole ``kg_triples`` passes over that input
until ``--seconds`` have passed, checks every pass's output, and prints one JSON
report as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics (see README.md).

Everything else, Ray's own output included, goes to standard error.
"""

from __future__ import annotations

import os
import sys

# fd 1 is kept for the report alone: Ray's raylet and workers inherit the
# process's stdout and write warnings there even when their logs are not
# forwarded
_REPORT_FD = os.dup(1)
os.dup2(2, 1)
sys.stdout = sys.stderr

import argparse          # noqa: E402
import json              # noqa: E402
import logging           # noqa: E402
import shutil            # noqa: E402
import signal            # noqa: E402
import statistics        # noqa: E402
import threading         # noqa: E402
import time              # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NUM_CPUS = 2             # fixed; never derived from nproc (see README.md)
OBJECT_STORE_BYTES = 768 * 1024 ** 2
SETUP_SAMPLES = 3
TIMEOUT_S = 170
# Ray's unix sockets live under its temp dir; their paths must stay below
# 108 bytes, and the session directory below the temp dir takes up to ~65
_MAX_RAY_TMP = 42

WORKLOADS = {
    # name: (pages, pool_size, cold parser and probe pages)
    "replay-1200": (10000, 1200, False),
    "cold-20k": (360, 20000, True),
}
WARM_PAGES = 40          # untimed warm-up pass before the rounds
LAYER_PAGES = 2000
MIN_PR_COLD = 0.80


def log(msg: str) -> None:
    print("[kgbench] %s" % msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# process-tree RSS
# ---------------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid) -> str:
    with open("/proc/%s/stat" % pid) as f:
        return f.read().rsplit(")", 1)[1]     # fields after the command


def descendants(root: int) -> list:
    """Pids of every live descendant of ``root``, from /proc."""
    children: dict = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                fields = _stat(d).split()
            except OSError:
                continue
            if fields[0] != "Z":
                children.setdefault(int(fields[1]), []).append(int(d))
    out, todo = [], list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_rss_bytes(root: int) -> int:
    """Summed RSS of ``root`` and all its descendants."""
    total = 0
    for pid in [root] + descendants(root):
        try:
            with open("/proc/%d/statm" % pid) as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


def stop_ray(grace_s: float = 15.0) -> None:
    """``ray.shutdown()``, then wait until every process the session
    started has ended (workers outlive their raylet briefly); kill what is
    left after ``grace_s``."""
    if "ray" not in sys.modules:
        return
    pids = descendants(os.getpid())
    sys.modules["ray"].shutdown()
    deadline = time.monotonic() + grace_s
    while True:
        alive = []
        for pid in pids:
            try:
                if _stat(pid).split()[0] != "Z":
                    alive.append(pid)
            except OSError:
                pass
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            return
        pids = alive
        time.sleep(0.1)


class RssSampler:
    """Peak of ``tree_rss_bytes`` over a window, sampled every 0.1 s."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self.peak = tree_rss_bytes(os.getpid())
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss_bytes(os.getpid()))


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

def ray_init(work: str) -> None:
    import ray
    kwargs = {}
    if len(work) <= _MAX_RAY_TMP:
        kwargs["_temp_dir"] = work
    else:
        log("checkout path too long for Ray's sockets; Ray keeps its "
            "default temp dir")
    ray.init(address="local", num_cpus=NUM_CPUS, num_gpus=0,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             log_to_driver=False, logging_level=logging.ERROR,
             namespace="kgbench", **kwargs)


def setup(work: str, import_s: float) -> float:
    """Engine import time plus the median of ``SETUP_SAMPLES`` session
    starts; the last session stays up."""
    samples = []
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        ray_init(work)
        samples.append(time.perf_counter() - t0)
        if i < SETUP_SAMPLES - 1:
            stop_ray()
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    log("setup: import %.2f s, ray.init %s" % (import_s, ["%.2f" % s
                                                         for s in samples]))
    return import_s + statistics.median(samples)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def triples_pass(fixture_dir: str):
    """Consume ``kg_triples`` to the last batch: (wall, batches)."""
    from ie_ray.pipelines.kg import kg_triples
    t0 = time.perf_counter()
    tables = list(kg_triples(fixture_dir).iter_batches(
        batch_format="pyarrow", batch_size=None))
    return time.perf_counter() - t0, tables


def full_pass(fixture_dir: str, out_dir: str):
    from ie_ray.pipelines.kg import kg_full
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    kg_full(fixture_dir, out_dir)
    return time.perf_counter() - t0


def check_triples(corpus, tables, cold: bool, empty_dropped: bool = False):
    import checks
    return checks.check_triples(corpus, tables, exact_gold=not cold,
                                min_pr=MIN_PR_COLD if cold else 0.0,
                                empty_dropped=empty_dropped)


def check_full(corpus, out_dir: str, cold: bool):
    import checks
    tables = [checks.read_dir(os.path.join(out_dir, d))
              for d in ("triples", "quarantine")]
    rep = check_triples(corpus, tables, cold, empty_dropped=True)
    g = checks.check_graph(out_dir, os.path.join(corpus.fixture_dir,
                                                 "alias_table.parquet"),
                           triples=tables[0])
    return rep, g


class Tally:
    """Operations attempted and failed, and the problems seen."""

    def __init__(self, corpus):
        self.per_pass = 1 + len(corpus.probe_hashes)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, rep, graph=None) -> None:
        self.attempted += self.per_pass
        self.failed += rep.probe_failed
        self.problems += rep.problems + (graph.problems if graph else [])


def run_round(corpus, tally: Tally, cold: bool):
    """One checked ``kg_triples`` pass: (wall, report, peak rss)."""
    with RssSampler() as rss:
        wall, tables = triples_pass(corpus.fixture_dir)
    rep = check_triples(corpus, tables, cold)
    tally.add(rep)
    return wall, rep, rss.peak


def traced_round(corpus, work: str, tally: Tally, cold: bool,
                 untraced_wall: float) -> dict:
    """``kg_full`` with every layer traced, its output checked; returns the
    Ray-side per-layer metrics."""
    import tracing
    out = os.path.join(work, "traced")
    with tracing.patched() as trace:
        wall = full_pass(corpus.fixture_dir, out)
        worker = trace.worker_spans()
    rep, g = check_full(corpus, out, cold)
    shutil.rmtree(out, ignore_errors=True)
    tally.add(rep, g)

    tri_start = trace.span("kg.triples")[1]
    # kg_full materializes the triples before canonicalization starts
    triples_wall = trace.span("canon.components")[1] - tri_start
    m = {}
    for stage in tracing.STAGES:
        m["kg.%s_s" % stage] = sum(e - s for n, s, e, *_ in worker
                                   if n == stage)
    stage_sum = sum(m["kg.%s_s" % s] for s in tracing.STAGES)
    pc_ends = [e for n, s, e, *_ in worker if n == "parse_compose"]
    m["kg.stage_sum_s"] = stage_sum
    m["kg.busy_ratio"] = stage_sum / (triples_wall * NUM_CPUS)
    m["kg.first_batch_s"] = min(pc_ends) - tri_start
    m["kg.triples_wall_s"] = triples_wall
    m["kg.full_wall_s"] = wall
    labels = trace.span("canon.components")[3]
    m["canon.s"] = trace.seconds("canon.")
    m["canon.components"] = len({r["component"] for r in labels.take_all()})
    m["graph.build_s"] = trace.seconds("graph.build_")
    m["graph.write_s"] = trace.seconds("graph.write")
    m["graph.nodes"] = g.nodes
    m["graph.edges"] = g.edges
    m["graph.bytes_written"] = g.bytes_written
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_ratio"] = triples_wall / untraced_wall - 1
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if "us_per_" in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".precision", ".recall")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=0,
                    help="override the workload's page count (self-tests)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "ie_ray")):
        log("engine package ie_ray not found next to %s" % BENCH_DIR)
        return 2
    sys.path[:0] = [ROOT, BENCH_DIR]
    # Ray's workers inherit this environment: they import ie_ray (and the
    # trace wrappers) without help from the caller's PYTHONPATH or cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, BENCH_DIR] + [p for p in os.environ.get("PYTHONPATH", "")
                             .split(os.pathsep) if p])
    n_pages, pool, cold = WORKLOADS[args.workload]
    n_pages = args.pages or n_pages
    if cold:
        os.environ["IE_RAY_COLD_PARSER"] = "1"
    else:
        os.environ.pop("IE_RAY_COLD_PARSER", None)

    work = os.path.join(ROOT, ".kgbench_work", "%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def on_alarm(signum, frame):
        raise TimeoutError("run exceeded %d s" % TIMEOUT_S)

    def on_term(signum, frame):
        raise SystemExit(128 + signum)
    # both unwind through the finally below, which stops the Ray session
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(TIMEOUT_S)

    try:
        # engine import, timed before anything else loads Ray
        t0 = time.perf_counter()
        import ray.data                  # noqa: F401
        import ie_ray.pipelines.kg       # noqa: F401
        import ie_ray.stages.graph       # noqa: F401
        import ie_ray.stages.link        # noqa: F401
        import_s = time.perf_counter() - t0
        import inputs
        t0 = time.perf_counter()
        corpus = inputs.build(os.path.join(work, "in"), n_pages, pool,
                              args.seed, probe=cold)
        warm = inputs.build(os.path.join(work, "warm"), WARM_PAGES, pool,
                            args.seed)
        log("%s: %d pages, %d en, unique sentence ratio %.3f, dup share "
            "%.3f, built in %.1f s" % (args.workload, corpus.n_pages,
                                       len(corpus.en_pages),
                                       corpus.unique_sentence_ratio,
                                       corpus.dup_share,
                                       time.perf_counter() - t0))
        setup_s = setup(work, import_s)
        # the first pass of a session spawns Ray's worker processes (about
        # 5 s at 2 CPUs); an untimed small pass pays that before the rounds
        triples_pass(warm.fixture_dir)

        tally = Tally(corpus)
        walls, peaks, goods = [], [], []
        start = time.perf_counter()
        while True:
            wall, rep, peak = run_round(corpus, tally, cold)
            walls.append(wall)
            peaks.append(peak)
            goods.append(rep.good_rows)
            log("round %d: wall %.2f s, %d good rows, peak rss %.0f MB, "
                "%d problems" % (len(walls), wall, rep.good_rows,
                                 peak / 2 ** 20, len(rep.problems)))
            # a traced run needs one untraced round to compare against
            if args.trace or time.perf_counter() - start >= args.seconds:
                break
        wall = statistics.median(walls)
        if args.trace == 0:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "wall_s": metric(wall, "s"),
                "pages_per_s": metric(corpus.n_pages / wall, "1/s"),
                "triples_per_s": metric(statistics.median(
                    g / w for g, w in zip(goods, walls)), "1/s"),
                "peak_rss_mb": metric(max(peaks) / 2 ** 20, "MB"),
            }
        else:
            import layers
            m = traced_round(corpus, work, tally, cold, wall)
            m.update(layers.run(corpus.fixture_dir, cold, LAYER_PAGES))
            m["quality.precision"] = rep.precision
            m["quality.recall"] = rep.recall
            m["quality.sentences_mismatched"] = rep.mismatched
            metrics = {k: metric(v, unit_of(k)) for k, v in sorted(m.items())}
        for p in tally.problems[:20]:
            log("CHECK FAILED: %s" % p)
        report = {"correct": not tally.problems,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics}
    finally:
        signal.alarm(0)
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))      # .kgbench_work, when empty
        except OSError:
            pass
    os.write(_REPORT_FD, (json.dumps(report) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
