"""Centralised, validated parsing of the ``REPRO_*`` environment knobs.

Every process-level default the library reads from the environment goes
through this module, so a malformed value produces one clear
:class:`ConfigError` instead of a bare ``int()`` traceback deep inside
``resolve_pool``.  The recognised variables:

``REPRO_ENGINE``
    Default execution engine of SQL's code-native plans (``sequential`` /
    ``serial`` / ``parallel``) when a :class:`SQLEngine` or session gets
    ``engine=None``; it also reaches the statements SQL-generated CFD
    detection and CQA run.  Detection, discovery and repair otherwise
    always run in-process.
``REPRO_WORKERS``
    Default worker count for the parallel engine.
``REPRO_PARALLEL_THRESHOLD``
    Minimum live-row count before the parallel engine actually forks;
    below it work is inlined in-process.
``REPRO_TASK_TIMEOUT``
    Per-task supervision timeout in seconds for the parallel engine: a
    dispatched task whose result has not arrived after this long is
    declared hung, the pool is rebuilt and the task retried.  ``0``
    disables the timeout.
``REPRO_TASK_RETRIES``
    How many times a failed (crashed / timed out / raising) task is
    re-dispatched to the pool before the engine falls back to running it
    in-process.
``REPRO_TASK_FALLBACK``
    Truthy (the default) lets the parallel engine degrade to in-process
    execution for tasks that failed every retry; falsy makes it raise
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.TaskTimeoutError` instead (strict mode).
``REPRO_FAULTS``
    Seeded fault injection in the worker dispatch path, for chaos
    testing: a comma-separated list of ``kind:rate`` pairs with kinds
    ``raise`` (transient in-worker exception), ``crash`` (hard
    ``os._exit``, simulating an OOM kill) and ``hang`` (the worker
    sleeps until the supervision timeout kills it).  Rates are
    probabilities in ``[0, 1]`` drawn per dispatched task.
``REPRO_FAULTS_SEED``
    Integer seed of the fault-injection random streams (one stream per
    worker process, derived from the seed and the worker pid).
``REPRO_OBS``
    Truthy value enables the :mod:`repro.obs` metrics registry at import
    time (counters, histograms, spans).
``REPRO_OBS_TRACE``
    Truthy value additionally records finished spans into the in-memory
    trace buffer (implies nothing about ``REPRO_OBS``; both are read).

:class:`ConfigError` subclasses :class:`ValueError` as well as
:class:`~repro.errors.ReproError`, so call sites (and tests) that predate
centralisation and expect ``ValueError`` keep working.
"""

from __future__ import annotations

import os

from repro.errors import ReproError

ENGINE_ENV = "REPRO_ENGINE"
WORKERS_ENV = "REPRO_WORKERS"
THRESHOLD_ENV = "REPRO_PARALLEL_THRESHOLD"
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"
TASK_FALLBACK_ENV = "REPRO_TASK_FALLBACK"
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
OBS_ENV = "REPRO_OBS"
OBS_TRACE_ENV = "REPRO_OBS_TRACE"

#: fault kinds REPRO_FAULTS understands (see repro.engine.worker).
FAULT_KINDS = ("raise", "crash", "hang")

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off", ""}


class ConfigError(ReproError, ValueError):
    """A ``REPRO_*`` environment variable holds a malformed value."""


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean environment variable (1/true/yes/on vs 0/false/no/off)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ConfigError(
        f"{name}={raw!r} is not a boolean; expected one of "
        f"1/true/yes/on or 0/false/no/off")


def env_int(name: str, minimum: int | None = None) -> int | None:
    """Parse an integer environment variable; ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}={raw!r} must be at least {minimum}")
    return value


def env_float(name: str, minimum: float | None = None) -> float | None:
    """Parse a float environment variable; ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not a number") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}={raw!r} must be at least {minimum}")
    return value


def env_choice(name: str, choices: tuple[str, ...]) -> str | None:
    """Parse an enumerated environment variable; ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    value = raw.strip().lower()
    if value not in choices:
        raise ConfigError(
            f"{name}={raw!r} is not a recognised value; expected one of "
            f"{', '.join(choices)}")
    return value


# -- named accessors ----------------------------------------------------------------

def engine_default(choices: tuple[str, ...]) -> str | None:
    """The ``REPRO_ENGINE`` default, validated against *choices*."""
    return env_choice(ENGINE_ENV, choices)


def workers_default() -> int | None:
    """The ``REPRO_WORKERS`` default (at least 1 when set)."""
    return env_int(WORKERS_ENV, minimum=1)


def parallel_threshold_default() -> int | None:
    """The ``REPRO_PARALLEL_THRESHOLD`` default (non-negative when set)."""
    return env_int(THRESHOLD_ENV, minimum=0)


def task_timeout_default() -> float | None:
    """The ``REPRO_TASK_TIMEOUT`` default in seconds (non-negative when set)."""
    return env_float(TASK_TIMEOUT_ENV, minimum=0.0)


def task_retries_default() -> int | None:
    """The ``REPRO_TASK_RETRIES`` default (non-negative when set)."""
    return env_int(TASK_RETRIES_ENV, minimum=0)


def task_fallback_default() -> bool:
    """Whether failed tasks may degrade to in-process execution (default on)."""
    return env_flag(TASK_FALLBACK_ENV, default=True)


def faults_default() -> dict[str, float]:
    """The ``REPRO_FAULTS`` injection rates: ``{kind: probability}``.

    Empty when unset.  Kinds are validated against :data:`FAULT_KINDS`
    and rates must be probabilities in ``[0, 1]``.
    """
    raw = os.environ.get(FAULTS_ENV)
    if raw is None or not raw.strip():
        return {}
    rates: dict[str, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        kind, separator, rate_text = part.partition(":")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise ConfigError(
                f"{FAULTS_ENV}={raw!r} names unknown fault kind {kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}")
        if not separator:
            raise ConfigError(
                f"{FAULTS_ENV}={raw!r} is malformed; expected kind:rate pairs "
                f"like 'raise:0.1,crash:0.05'")
        try:
            rate = float(rate_text.strip())
        except ValueError:
            raise ConfigError(
                f"{FAULTS_ENV}={raw!r}: rate {rate_text.strip()!r} for "
                f"{kind!r} is not a number") from None
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(
                f"{FAULTS_ENV}={raw!r}: rate {rate!r} for {kind!r} must be "
                f"a probability in [0, 1]")
        rates[kind] = rate
    return rates


def faults_seed_default() -> int:
    """The ``REPRO_FAULTS_SEED`` default (0 when unset)."""
    return env_int(FAULTS_SEED_ENV) or 0


def obs_enabled_default() -> bool:
    """Whether ``REPRO_OBS`` asks for metrics collection."""
    return env_flag(OBS_ENV)


def obs_trace_default() -> bool:
    """Whether ``REPRO_OBS_TRACE`` asks for span trace recording."""
    return env_flag(OBS_TRACE_ENV)
