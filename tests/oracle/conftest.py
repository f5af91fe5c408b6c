"""The engine configurations every oracle suite runs under."""

from functools import partialmethod

import pytest

from repro import config
from repro.engine.executor import ExecutorPool, SerialPool

ENGINES = ["sequential", "serial-1", "serial-2", "serial-7", "parallel-2"]


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """``engine=``/``workers=`` keyword arguments for one configuration.

    ``sequential`` runs in-process without chunking, whatever the
    ``REPRO_ENGINE`` default; ``serial-N`` chunks every scan into runs
    of N tuples, so groups straddle chunk boundaries; ``parallel-2``
    forks two real worker processes even for these tiny relations.
    """
    kind, _, size = request.param.partition("-")
    if kind == "sequential":
        return {"engine": kind}
    if kind == "serial":
        monkeypatch.setattr(SerialPool, "__init__",
                            partialmethod(ExecutorPool.__init__, chunk_size=int(size)))
        return {"engine": "serial"}
    monkeypatch.setenv(config.THRESHOLD_ENV, "0")
    return {"engine": "parallel", "workers": int(size)}
