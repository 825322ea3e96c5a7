"""Reproduce the evaluation tables (DESIGN.md §4) at full scale.

    PYTHONPATH=src python jobs/run.py [TABLE ...]

Runs the named tables, or every table in ``tables.TABLES`` order when none
is named, in one Spark session (so tables share the sampling cache).  Each
table prints as markdown and is written to ``results/<table>.md``.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys

from pyspark.sql import SparkSession

from repro.experiments import tables as T

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


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


def main() -> None:
    choices = sorted(T.TABLES)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "tables", nargs="*", metavar="TABLE",
        help=f"any of {', '.join(choices)} (default: all)",
    )
    names = parser.parse_args().tables or list(T.TABLES)
    # Checked here, not with add_argument(choices=...): on Python < 3.12 an
    # empty nargs="*" positional fails a choices check.
    for name in names:
        if name not in T.TABLES:
            parser.error(
                f"argument TABLE: invalid choice: {name!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )

    spark = build_session("repro-tables")
    spark.sparkContext.setLogLevel("ERROR")
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            print(f"=== {name} ===", flush=True)
            md = T.rows_to_markdown(T.TABLES[name](spark, T.FULL))
            print(md, flush=True)
            out = RESULTS / f"{name}.md"
            out.write_text(f"# {name}\n\n{md}\n")
            print(f"written: {out}", file=sys.stderr)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
