"""The SQL engine configurations the oracle's SQL-backed properties run under."""

from functools import partialmethod

import pytest

from repro import config
from repro.engine.executor import ExecutorPool, SerialPool

ENGINES = ["sequential", "serial-1", "serial-2", "serial-7", "parallel-2"]


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """One SQL engine configuration, made the process-wide default.

    Detection's generated statements run on the default SQL engine, so
    the configuration is set through ``REPRO_ENGINE``/``REPRO_WORKERS``;
    the returned ``engine=``/``workers=`` keyword arguments name the same
    configuration for an explicit :class:`SQLEngine`.  ``sequential``
    runs in-process without chunking, whatever the caller's environment
    says; ``serial-N`` chunks every pooled scan into runs of N tuples, so
    groups straddle chunk boundaries; ``parallel-2`` forks two real
    worker processes even for these tiny relations.
    """
    kind, _, size = request.param.partition("-")
    monkeypatch.setenv(config.ENGINE_ENV, kind)
    if kind == "sequential":
        return {"engine": kind}
    if kind == "serial":
        monkeypatch.setattr(SerialPool, "__init__",
                            partialmethod(ExecutorPool.__init__, chunk_size=int(size)))
        return {"engine": kind}
    monkeypatch.setenv(config.THRESHOLD_ENV, "0")
    monkeypatch.setenv(config.WORKERS_ENV, size)
    return {"engine": kind, "workers": int(size)}
