"""Shared runner for the table jobs.

Each ``jobs/run_<table>.py`` is a thin ``spark-submit`` wrapper around a
table generator from :mod:`repro.experiments.tables`.  Results print as
markdown and are written to ``results/<table>.md`` for EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """Mirror conftest.py's session settings for standalone jobs.

    PYSPARK_SUBMIT_ARGS must be set before the JVM gateway launches
    (getOrCreate), since spark.driver.memory is not honoured post-launch.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.conf.set(
        "spark.sql.shuffle.partitions",
        os.environ.get("SPARK_SHUFFLE_PARTITIONS", str(spark.sparkContext.defaultParallelism)),
    )
    return spark


def run_table_job(table: str) -> None:
    from repro.experiments import tables as T

    parser = argparse.ArgumentParser(description=f"Reproduce table {table}")
    parser.add_argument(
        "--scale", choices=["full", "bench"], default="full",
        help="full = EXPERIMENTS.md scale, bench = reduced sweep",
    )
    parser.add_argument("--out", default=None, help="output markdown path")
    args = parser.parse_args()

    scale = T.FULL if args.scale == "full" else T.BENCH
    spark = build_session(f"repro-{table}")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        rows = T.TABLES[table](spark, scale)
    finally:
        spark.stop()
    md = T.rows_to_markdown(rows)
    print(md)
    out = args.out or str(
        pathlib.Path(__file__).resolve().parent.parent / "results" / f"{table}.md"
    )
    pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
    pathlib.Path(out).write_text(f"# {table} ({args.scale} scale)\n\n{md}\n")
    print(f"\nwritten: {out}", file=sys.stderr)
