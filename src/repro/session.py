"""The local Spark session the tests and the table runner share."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def build_session(app: str, driver_memory: str) -> SparkSession:
    """A session on ``SPARK_MASTER`` (default ``local[*]``) with the driver
    on 127.0.0.1, no UI and Arrow transfers on.  Shuffle partitions are
    ``SPARK_SHUFFLE_PARTITIONS``, by default the core count: the tables are
    tens of thousands of rows, and more partitions only add per-task
    overhead.  A ``PYSPARK_SUBMIT_ARGS`` already set wins over the master
    and ``driver_memory``, which the JVM reads only at launch."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory} "
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
