"""Tests for the table runner, jobs/run.py."""
from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

from repro.experiments import tables

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_runner_rejects_unknown_table_before_spark():
    """An unknown table is an argparse error (exit 2) listing every table.

    JAVA_HOME points nowhere, so a runner that started the JVM before
    checking its arguments would fail with a different error.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), JAVA_HOME="/nonexistent")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run.py"), "no_such_table"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    listed = re.search(r"choose from (.*)\)", proc.stderr).group(1)
    assert re.findall(r"'(\w+)'", listed) == sorted(tables.TABLES)
