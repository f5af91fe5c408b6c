"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_of, summarise  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("sql.q.topk"):
            with tracer.span("sql.parse"):
                pass
            with tracer.span("sql.execute"):
                pass
    # replace the clock readings with fixed ones: [name, start, end, parent, op]
    tracer.spans[0][1:3] = [0.0, 10.0]
    tracer.spans[1][1:3] = [1.0, 9.0]
    tracer.spans[2][1:3] = [1.0, 2.0]
    tracer.spans[3][1:3] = [3.0, 7.0]
    table = summarise(tracer.spans)
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    assert table["op"]["self_s"] == 2.0
    assert table["sql.q.topk"]["total_s"] == 8.0
    assert table["sql.q.topk"]["self_s"] == 3.0
    assert table["sql.execute"]["self_s"] == 4.0
    assert [layer_of(name) for name in ("op", "sql.q.topk", "cqa.certain")] == \
        ["bench", "sql", "cqa"]


def test_smoke_emits_every_metric_and_passes_every_check():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
