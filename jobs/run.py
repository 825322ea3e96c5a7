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

from repro.experiments import tables as T
from repro.session import build_session

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


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

    spark = build_session("repro-tables", os.environ.get("SPARK_DRIVER_MEM", "16g"))
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
