"""OIPA benchmark: warm, repeated timings of MRR sketch building and search.

    python3 perfbench/run.py --workload sketch_deep --seed 1 --seconds 10 --trace 0

Run from the repository root.  One run starts a local Spark session, warms
the JVM with one untimed ``prepare`` of the workload's sketch and numpy with
one untimed sweep, then times rounds of

* ``sketch_s``: one ``harness.prepare`` after ``clear_cache()``;
* ``search_s``: on that sketch, one BAB and one BAB-P call at β/α=0.3 and
  three passes of the β/α=0.5 vary-k sweep (122 search calls);

until ``--seconds`` have passed and at least two rounds have run, and
reports the median of each.  Interleaving spreads each operation's samples
over the whole run, since CPU speed on a shared host can drift by 2x over
tens of seconds.  The per-call times are kept in the raw record; one call's
median is too noisy to gate on (see README.md).  It then checks the outputs (``checks.py``) and prints one
JSON line as the last line of standard output.  With ``--trace 1`` it
instead makes one traced round and prints the per-layer metrics
(``tracing.py``).  Both modes write the raw figures to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


def _process_age() -> float:
    """Seconds since this process started (Linux /proc, 10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


AGE0, PC0 = _process_age(), time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks as C  # noqa: E402


@dataclass(frozen=True)
class Workload:
    dataset: str
    theta: int


WORKLOADS = {
    # lastfm_lite's reverse BFS runs ~29 levels deep: the per-level Spark job
    # chain of sample_mrr_sets dominates (89 jobs for 20,522 memberships).
    "sketch_deep": Workload("lastfm_lite", 2000),
    # tweet_lite gives about as many memberships (20,316) in 25 jobs: fixed
    # costs, per-row costs and build_index dominate.
    "sketch_shallow": Workload("tweet_lite", 5000),
}
N_PIECES = 3  # ℓ; prepare adds the topic-agnostic IM piece as piece ℓ
SAMPLE_SEED = 101  # prepare's default: pieces, roots (seed + 1) and coins
K = 50
SEARCH_RATIO = 0.3
SWEEP_RATIO = 0.5
SWEEP_K = tuple(range(10, 101, 10))
EPS = 0.5
GAP_TOL = 0.01
MAX_POPS = 200
MIN_ROUNDS = 2
SWEEPS_PER_ROUND = 3  # vary_k sweep passes per round, 0.13-0.3 s each
FORWARD_TRIALS = 100
FORWARD_SEEDS = 10  # seed-set size, drawn from the top-50 out-degree vertices
DRIVER_MEMORY = "2g"


def start_spark(tmp: Path):
    """A local session with ``jobs/_common.build_session``'s settings, the
    master pinned to this process's CPUs, shuffle partitions equal to the
    thread count, no progress bar and all scratch files under ``tmp``."""
    threads = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{threads}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(threads))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the JVM's gateway server exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# -- the timed operations ------------------------------------------------------


def build_sketch(spark, cfg, theta):
    from repro.experiments import harness

    harness.clear_cache()  # otherwise prepare returns its cached result
    t = time.perf_counter()
    prep = harness.prepare(spark, cfg, n_pieces=N_PIECES, theta=theta, seed=SAMPLE_SEED)
    return prep, time.perf_counter() - t


def search(prep, progressive: bool):
    from repro.core import bab
    from repro.core.adoption import LogisticModel

    return bab.branch_and_bound(
        prep.index,
        LogisticModel.from_ratio(SEARCH_RATIO),
        K,
        progressive=progressive,
        eps=EPS,
        gap_tol=GAP_TOL,
        max_pops=MAX_POPS,
    )


def sweep(prep) -> list[tuple[str, int, object]]:
    """The vary_k cells at β/α=0.5: (method, k, result) for 40 calls."""
    from repro.core import bab, baselines
    from repro.core.adoption import LogisticModel

    model = LogisticModel.from_ratio(SWEEP_RATIO)
    rows = []
    for k in SWEEP_K:
        rows.append(("IM", k, baselines.im_baseline(prep.im_cov, prep.index, model, k)))
        rows.append(("TIM", k, baselines.tim_baseline(prep.index, model, k)))
        for method, progressive in (("BAB", False), ("BAB-P", True)):
            r = bab.branch_and_bound(
                prep.index,
                model,
                k,
                progressive=progressive,
                eps=EPS,
                gap_tol=GAP_TOL,
                max_pops=MAX_POPS,
            )
            rows.append((method, k, r))
    return rows


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def membership_counts(prep) -> tuple:
    rows = prep.mrr_df.groupBy("piece").count().collect()
    return tuple(sorted((r["piece"], r["count"]) for r in rows))


def signature(r) -> tuple:
    plan = tuple(sorted((j, tuple(sorted(s))) for j, s in r.plan.items()))
    extra = (r.upper_bound, r.gap, r.pops, r.evals) if hasattr(r, "pops") else ()
    return (plan, r.utility) + extra


# -- output checks -------------------------------------------------------------


def run_checks(cfg, wl, res, counts, seed) -> list[str]:
    """Every output check of checks.py; returns the failure messages."""
    from repro.core.adoption import LogisticModel, estimate_au_spark
    from repro.diffusion.simulate import ForwardSimulator
    from repro.graphs.generator import promoter_pool, social_graph_pandas
    from repro.graphs.topics import uniform_piece

    failures = []

    def attempt(fn, *a, **kw):
        try:
            fn(*a, **kw)
        except C.CheckFailed as e:
            failures.append(str(e))

    n_graphs = N_PIECES + 1
    prep = res["prep"]
    memb = prep.mrr_df.toPandas()
    pool = promoter_pool(cfg)
    # prepare draws the θ roots uniformly from V with seed + 1 (sample_roots).
    roots = np.random.default_rng(SAMPLE_SEED + 1).integers(0, cfg.n, size=wl.theta)
    attempt(C.check_rows, memb, n_vertices=cfg.n, theta=wl.theta, n_graphs=n_graphs)
    attempt(C.check_roots, memb, roots, n_graphs=n_graphs)
    attempt(C.check_index, prep.index.pieces + [prep.im_cov], memb, pool)
    attempt(C.check_same, "membership_counts", counts)

    edges = social_graph_pandas(cfg)
    sim = ForwardSimulator(edges, np.vstack([prep.pieces, uniform_piece(cfg.n_topics)]), cfg.n)
    outdeg = np.bincount(edges["src"].to_numpy(), minlength=cfg.n)
    top = np.argsort(-outdeg, kind="stable")[:50]
    rng = np.random.default_rng(seed)
    seeds = sorted(int(v) for v in rng.choice(top, size=FORWARD_SEEDS, replace=False))
    for j in range(n_graphs):
        trial_seeds = rng.integers(0, 2**32, size=FORWARD_TRIALS)
        trials = [sim.spread(seeds, j, trials=1, seed=int(s)) for s in trial_seeds]
        hits = C.rr_hits(memb, seeds, j)
        attempt(C.check_forward, hits, trials, n_vertices=cfg.n, theta=wl.theta, label=f"piece {j}")

    searches, sweeps = res["searches"], res["sweeps"]
    attempt(C.check_same, "search_repeat", [[signature(r) for r in pair] for pair in searches])
    attempt(C.check_same, "sweep_repeat", [[signature(r) for _, _, r in rows] for rows in sweeps])
    r_bab, r_babp = searches[0]
    for model_ratio, rows in (
        (SEARCH_RATIO, [("BAB", K, r_bab), ("BAB-P", K, r_babp)]),
        (SWEEP_RATIO, sweeps[0]),
    ):
        model = LogisticModel.from_ratio(model_ratio)
        aus = C.au_duckdb(
            memb,
            [r.plan for _, _, r in rows],
            alpha=model.alpha,
            beta=model.beta,
            n_vertices=cfg.n,
            theta=wl.theta,
        )
        for (method, k, r), au in zip(rows, aus):
            label = f"{method} k={k} β/α={model_ratio}"
            attempt(C.check_plan, r.plan, k=k, pool=pool, n_pieces=N_PIECES, label=label)
            attempt(C.check_utility, r.utility, au, label=label)
            if hasattr(r, "upper_bound"):
                attempt(C.check_bound, r.utility, r.upper_bound, r.gap, label=label)
    for method in ("IM", "TIM"):
        rows = [r for m, _, r in sweeps[0] if m == method]
        attempt(C.check_monotone, [r.utility for r in rows], label=method)
    im_seed_sets = [set().union(*r.plan.values()) for m, _, r in sweeps[0] if m == "IM"]
    attempt(C.check_nested, im_seed_sets, label="IM")

    model = LogisticModel.from_ratio(SEARCH_RATIO)
    au = estimate_au_spark(prep.mrr_df, r_bab.plan, model, n_vertices=cfg.n, theta=wl.theta)
    attempt(C.check_utility, r_bab.utility, au, label="BAB (estimate_au_spark)")
    return failures


# -- runs ----------------------------------------------------------------------


def median(xs):
    return float(statistics.median(xs))


def untraced(spark, cfg, wl, seconds: float, counts: list) -> dict:
    setup_s = AGE0 + time.perf_counter() - PC0
    searches, sweeps, times = [], [], {"sketch": [], "bab": [], "babp": [], "sweep": []}
    t0 = time.perf_counter()
    while len(searches) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        prep, dt = build_sketch(spark, cfg, wl.theta)
        times["sketch"].append(dt)
        counts.append(membership_counts(prep))
        r_bab, dt_bab = timed(search, prep, False)
        r_babp, dt_babp = timed(search, prep, True)
        times["bab"].append(dt_bab)
        times["babp"].append(dt_babp)
        searches.append((r_bab, r_babp))
        for _ in range(SWEEPS_PER_ROUND):
            rows, dt_sweep = timed(sweep, prep)
            times["sweep"].append(dt_sweep)
            sweeps.append(rows)

    sweep_rounds = np.reshape(times["sweep"], (len(searches), SWEEPS_PER_ROUND)).sum(axis=1)
    rounds = np.asarray(times["bab"]) + np.asarray(times["babp"]) + sweep_rounds
    metrics = {
        "setup_s": (setup_s, "s"),
        "sketch_s": (median(times["sketch"]), "s"),
        "search_s": (median(rounds), "s"),
    }
    raw = {f"{k}_s": v for k, v in times.items()}
    attempted = 3 * len(searches) + 4 * len(SWEEP_K) * len(sweeps)
    return dict(prep=prep, searches=searches, sweeps=sweeps, metrics=metrics, raw=raw, attempted=attempted)


def traced(spark, cfg, wl, counts: list) -> dict:
    from tracing import Tracer

    tracer = Tracer(spark.sparkContext)
    with tracer.installed():
        prep, sketch_dt = build_sketch(spark, cfg, wl.theta)
        tracer.enter("done")
        counts.append(membership_counts(prep))
        tracer.scope = "search.bab"
        r_bab, dt_bab = timed(search, prep, False)
        tracer.scope = "search.babp"
        r_babp, dt_babp = timed(search, prep, True)
        tracer.scope = "sweep"
        rows, dt_sweep = timed(sweep, prep)
    phases = tracer.phase_seconds()
    acc = tracer.acc

    from repro.core.adoption import LogisticModel, estimate_au_spark

    tracer.enter("au_spark")
    t = time.perf_counter()
    estimate_au_spark(
        prep.mrr_df, r_bab.plan, LogisticModel.from_ratio(SEARCH_RATIO), n_vertices=cfg.n, theta=wl.theta
    )
    au_spark_s = time.perf_counter() - t
    tracer.enter("other")
    piece_edges = tracer.piece_edges_df.count()
    memb = prep.mrr_df.toPandas()
    rr_sizes = memb.groupby(["piece", "sample_id"]).size()
    coverages = prep.index.pieces + [prep.im_cov]
    index_bytes = prep.index.promoter_pool.nbytes + sum(
        c.promoters.nbytes + c.indptr.nbytes + c.samples.nbytes for c in coverages
    )
    graphs_jobs = tracer.spark_counts("graphs")[0]
    rr_jobs, rr_stages, rr_tasks = tracer.spark_counts("rr_sets")
    mrr_jobs = tracer.spark_counts("mrr")[0]
    au_jobs = tracer.spark_counts("au_spark")[0]

    m = {
        "graphs.build_s": (phases["graphs"], "s"),
        "graphs.jobs": (graphs_jobs, "count"),
        "graphs.edges": (prep.edge_count, "count"),
        "graphs.piece_edges": (piece_edges, "count"),
        "rr_sets.sample_s": (phases["rr_sets"], "s"),
        "rr_sets.jobs": (rr_jobs, "count"),
        "rr_sets.stages": (rr_stages, "count"),
        "rr_sets.tasks": (rr_tasks, "count"),
        "rr_sets.memberships": (len(memb), "count"),
        "rr_sets.memberships_per_s": (len(memb) / phases["rr_sets"], "1/s"),
        "rr_sets.rr_size_mean": (len(memb) / (wl.theta * (N_PIECES + 1)), "vertices"),
        "rr_sets.rr_size_max": (int(rr_sizes.max()), "vertices"),
        "mrr.build_index_s": (phases["mrr"], "s"),
        "mrr.jobs": (mrr_jobs, "count"),
        "mrr.index_entries": (sum(len(c.samples) for c in coverages), "count"),
        "mrr.index_bytes": (index_bytes, "bytes"),
    }
    for name, r, dt in (("bab", r_bab, dt_bab), ("babp", r_babp, dt_babp)):
        bound_s = acc[f"search.{name}.bound_s"]
        m |= {
            f"search.{name}.pops": (r.pops, "count"),
            f"search.{name}.bound_calls": (int(acc[f"search.{name}.bound_calls"]), "count"),
            f"search.{name}.tau_evals": (r.evals, "count"),
            f"search.{name}.tau_evals_per_s": (r.evals / bound_s, "1/s"),
            f"search.{name}.gap": (r.gap, "ratio"),
            f"search.{name}.bound_s": (bound_s, "s"),
            f"search.{name}.heap_s": (dt - bound_s, "s"),
        }
    m |= {
        "sweep.bound_calls": (int(acc["sweep.bound_calls"]), "count"),
        "sweep.bound_s": (acc["sweep.bound_s"], "s"),
        "adoption.estimate_au_calls": (
            int(acc["search.bab.estimate_au_calls"] + acc["search.babp.estimate_au_calls"]),
            "count",
        ),
        "adoption.estimate_au_s": (
            acc["search.bab.estimate_au_s"] + acc["search.babp.estimate_au_s"],
            "s",
        ),
        "adoption.au_spark_s": (au_spark_s, "s"),
        "adoption.au_spark_jobs": (au_jobs, "count"),
        "baselines.im_s": (acc["sweep.im_s"], "s"),
        "baselines.tim_s": (acc["sweep.tim_s"], "s"),
        "traced.sketch_s": (sketch_dt, "s"),
        "traced.search_bab_s": (dt_bab, "s"),
        "traced.search_babp_s": (dt_babp, "s"),
        "traced.sweep_s": (dt_sweep, "s"),
    }
    return dict(
        prep=prep,
        searches=[(r_bab, r_babp)],
        sweeps=[rows],
        metrics=m,
        raw={"phases": phases},
        attempted=3 + 4 * len(SWEEP_K),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    tempfile.tempdir = str(tmp)  # pyspark's gateway handshake files
    spark = None
    try:
        spark = start_spark(tmp)
        from repro.experiments import harness

        cfg = harness.dataset_config(wl.dataset)
        warm, _ = build_sketch(spark, cfg, wl.theta)  # JVM warm-up (cold pass)
        counts = [membership_counts(warm)]
        sweep(warm)  # numpy warm-up
        del warm
        if args.trace:
            res = traced(spark, cfg, wl, counts)
        else:
            res = untraced(spark, cfg, wl, args.seconds, counts)
        t = time.perf_counter()
        failures = run_checks(cfg, wl, res, counts, args.seed)
        res["raw"]["checks_s"] = time.perf_counter() - t
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = res["metrics"]
    if not args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, raw=res["raw"], failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
