"""Per-chunk SQL workers.

Everything in this module is *plain data in, plain data out*: a worker
receives a task ``(handler name, payload)`` and reads the broadcast
*state* (the code arrays of the relations a statement reads) that the
parent shipped when the pool was (re)started.  Workers never see
:class:`~repro.relational.relation.Relation` objects or decoded values:
they return tids, join tuples and partial aggregates keyed by code
tuples, and the SQL executor decodes the result.  That keeps the
payloads small and picklable under both the ``fork`` and ``spawn`` start
methods.  The handlers serve the SQL executor only: the scan, the join
probe and the multiway and factorised folds; the in-process path calls
the same handlers through :func:`run_local_timed`.

Correctness contract: the parent merges the per-chunk results into
exactly what one in-process run over every tid returns, so every result
is byte-identical to the in-process path.

Supervision contract: the pool dispatch target is
:func:`dispatch_supervised`, which wraps every task in a structured
envelope — ``("ok", seconds, result)`` on success, ``("err", seconds,
TaskFailure)`` when the handler raised — so an in-worker exception
travels back as plain picklable data instead of poisoning the pool.  The
same dispatch path hosts the seeded fault-injection hook (``REPRO_FAULTS``
or :func:`install_faults`) used by the chaos tests: injected faults only
ever fire here, never in :func:`run_local` / :func:`run_local_timed`,
which is what makes the executor's in-process fallback a safe harbour.
"""

from __future__ import annotations

import os
import random
import time
from itertools import product
from math import prod
from operator import itemgetter
from time import perf_counter
from typing import Any, Iterator

from repro.relational.columns import NO_PARTNER, NULL_CODE, passing

#: broadcast state of the current pool generation (set by the initializer).
_STATE: dict[str, Any] | None = None


def initialize(state: dict[str, Any]) -> None:
    """Pool initializer: install the broadcast state in this process.

    Also runs in workers the pool spawns to replace crashed ones, so a
    repopulated worker holds the current broadcast generation — and a
    fresh per-pid fault stream — without any parent-side bookkeeping.
    """
    global _STATE
    _STATE = state
    if _FAULTS_SOURCE != "manual":
        install_env_faults()
    elif _FAULTS is not None:
        _FAULTS.reset()


# -- supervision envelope ----------------------------------------------------


class TaskFailure:
    """Picklable record of one task attempt that failed inside a worker.

    Carried back through the ``("err", seconds, failure)`` envelope (or
    synthesised parent-side for crashes and timeouts, where no worker is
    left to report).  ``kind`` is one of ``"error"`` (the handler
    raised), ``"crash"`` (the worker process died) or ``"timeout"``.
    """

    def __init__(self, task: str, kind: str, message: str) -> None:
        self.task = task
        self.kind = kind
        self.message = message

    def __repr__(self) -> str:
        return f"TaskFailure({self.task!r}, {self.kind!r}, {self.message!r})"


def payload_summary(task: tuple[str, Any]) -> str:
    """Compact, code-free description of a task for error messages.

    Container payload parts collapse to ``type[len]`` so a failure over a
    4096-tid chunk never drags the chunk itself into an exception chain.
    """
    name, payload = task
    parts = payload if isinstance(payload, tuple) else (payload,)
    rendered = []
    for part in parts:
        if isinstance(part, str):
            rendered.append(part)
        elif isinstance(part, (list, tuple, set, frozenset, dict)):
            rendered.append(f"{type(part).__name__}[{len(part)}]")
        else:
            rendered.append(type(part).__name__)
    return f"{name}({', '.join(rendered)})"


def dispatch_supervised(task: tuple[str, Any]) -> tuple[str, float, Any]:
    """Supervised pool dispatch target: never lets an exception escape.

    Returns ``("ok", worker seconds, result)`` or ``("err", worker
    seconds, TaskFailure)``.  ``KeyboardInterrupt``/``SystemExit`` still
    propagate (pool teardown must win over supervision), and injected
    ``crash``/``hang`` faults act *before* the envelope — by design, they
    simulate failures the envelope cannot catch.
    """
    name, payload = task
    fault = _FAULTS.draw(name) if _FAULTS is not None else None
    start = perf_counter()
    try:
        if fault is not None:
            _apply_fault(fault, name)
        result = _HANDLERS[name](_STATE, payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return ("err", perf_counter() - start,
                TaskFailure(name, "error", f"{type(exc).__name__}: {exc}"))
    return ("ok", perf_counter() - start, result)


# -- fault injection ---------------------------------------------------------

#: how long an injected hang sleeps; the supervising parent's per-task
#: timeout (and the pool rebuild that follows) is what actually ends it.
HANG_SECONDS = 3600.0

#: exit code of injected crashes (looks like an abrupt kill to the pool).
CRASH_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """The transient exception raised by an injected ``raise`` fault."""


class FaultInjector:
    """Seeded random fault plan: at most one fault kind per dispatch.

    Each worker process draws from its own ``random.Random`` stream
    derived from ``(seed, pid)``, so a fixed seed gives a reproducible
    fault schedule per worker while fork-inherited copies still diverge.
    """

    def __init__(self, rates: dict[str, float], seed: int = 0) -> None:
        self.rates = dict(rates)
        self.seed = seed
        self._random: random.Random | None = None

    def reset(self) -> None:
        """Drop the stream so the next draw reseeds from the current pid."""
        self._random = None

    def draw(self, task_name: str) -> str | None:
        stream = self._random
        if stream is None:
            stream = self._random = random.Random(f"{self.seed}:{os.getpid()}")
        for kind in ("crash", "hang", "raise"):
            rate = self.rates.get(kind, 0.0)
            if rate and stream.random() < rate:
                return kind
        return None


class ScriptedFaults:
    """Programmatic injector for tests: a per-process script of fault kinds.

    Each dispatch consumes the next entry (``None`` = run cleanly); an
    exhausted script injects nothing.  Install before the pool forks so
    every worker inherits its own copy of the script.
    """

    def __init__(self, kinds: list[str | None]) -> None:
        self._kinds = list(kinds)

    def reset(self) -> None:
        return None

    def draw(self, task_name: str) -> str | None:
        if self._kinds:
            return self._kinds.pop(0)
        return None


_FAULTS: Any = None
_FAULTS_SOURCE: str | None = None


def install_faults(injector: Any) -> None:
    """Install a programmatic fault injector (survives pool re-forks)."""
    global _FAULTS, _FAULTS_SOURCE
    _FAULTS = injector
    _FAULTS_SOURCE = "manual"


def clear_faults() -> None:
    """Remove any installed fault injector (programmatic or env-derived)."""
    global _FAULTS, _FAULTS_SOURCE
    _FAULTS = None
    _FAULTS_SOURCE = None


def install_env_faults() -> None:
    """(Re)build the injector from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``."""
    global _FAULTS, _FAULTS_SOURCE
    from repro import config

    rates = config.faults_default()
    if rates:
        _FAULTS = FaultInjector(rates, seed=config.faults_seed_default())
        _FAULTS_SOURCE = "env"
    else:
        _FAULTS = None
        _FAULTS_SOURCE = None


def _apply_fault(kind: str, task_name: str) -> None:
    if kind == "crash":
        # simulate an OOM kill: no cleanup, no exception, no envelope
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(HANG_SECONDS)
        return
    raise InjectedFault(f"injected fault in task {task_name!r}")


def dispatch(task: tuple[str, Any]) -> Any:
    """Run one task against the installed state (pool ``map`` target)."""
    name, payload = task
    return _HANDLERS[name](_STATE, payload)


def run_local(state: dict[str, Any], tasks: list[tuple[str, Any]]) -> list[Any]:
    """Run tasks in-process (the serial backend and small-input fallback)."""
    return [_HANDLERS[name](state, payload) for name, payload in tasks]


def dispatch_timed(task: tuple[str, Any]) -> tuple[float, Any]:
    """Like :func:`dispatch`, returning ``(worker seconds, result)``.

    The elapsed time is measured inside the worker process, so the parent
    can separate genuine compute time from pickling/IPC overhead when it
    folds the timings into the metrics registry.  Timings never feed back
    into results — merged output stays byte-identical to the untimed path.
    """
    name, payload = task
    start = perf_counter()
    result = _HANDLERS[name](_STATE, payload)
    return perf_counter() - start, result


def run_local_timed(state: dict[str, Any],
                    tasks: list[tuple[str, Any]]) -> list[tuple[float, Any]]:
    """Run tasks in-process, timing each: ``[(seconds, result), ...]``."""
    timed = []
    for name, payload in tasks:
        start = perf_counter()
        result = _HANDLERS[name](state, payload)
        timed.append((perf_counter() - start, result))
    return timed


# -- SQL scan phase ----------------------------------------------------------


def initial_aggregate_state(kind: str) -> Any:
    """The partial-aggregate state before any tuple is folded in."""
    if kind in ("count_star", "count"):
        return 0
    if kind == "count_distinct":
        return set()
    if kind in ("sum", "avg"):
        return []
    return None          # min | max


def _codes_of(codes: list[int], pick: Any, members: list) -> list[int]:
    """One column's codes of *members*: tids, or tid tuples *pick* reads."""
    return list(map(codes.__getitem__, members if pick is None else map(pick, members)))


def fold_groups(members: list, key_columns: list[tuple[list[int], Any]],
                folds: list[tuple[str, Any, Any, Any]]) -> dict[Any, list]:
    """Group *members* by key, then fold each aggregate a column at a time.

    *members* are tids, or tid tuples of a join (pairs, multiway combos)
    in their scan order.  ``key_columns`` are ``(code array, pick)``
    pairs and ``folds`` are ``(kind, code array, pick, ranks)``, where
    *pick* reads a member's tid of that column (``None`` for bare tids).
    The result maps each code key (a bare code for one key column, a code
    tuple otherwise, ``()`` for none) to ``[first member, state, ...]``,
    keys in first-occurrence order, with the partial states
    :func:`_sql_scan` documents (see :func:`fold_codes`).
    """
    if not members:
        return {}
    if not key_columns:
        groups: dict[Any, list] = {(): members}
    else:
        if len(key_columns) == 1:
            keys: Any = _codes_of(*key_columns[0], members)
        else:
            keys = zip(*[_codes_of(codes, pick, members) for codes, pick in key_columns])
        groups = {}
        for key, member in zip(keys, members):
            group = groups.get(key)
            if group is None:
                groups[key] = [member]
            else:
                group.append(member)
    entries = [[group[0]] for group in groups.values()]
    for kind, codes, pick, ranks in folds:
        if kind == "count_star":
            states: list[Any] = [len(group) for group in groups.values()]
        else:
            states = fold_codes(kind, [_codes_of(codes, pick, group)
                                       for group in groups.values()], ranks)
        for entry, state in zip(entries, states):
            entry.append(state)
    return dict(zip(groups, entries))


#: aggregate kinds whose partial state depends on the order codes arrive in
#: (the float fold order of SUM/AVG, the first extremal code of MIN/MAX).
ORDERED_FOLDS = frozenset(("sum", "avg", "min", "max"))


def fold_codes(kind: str, columns: list[list[int]], ranks: Any) -> list[Any]:
    """One aggregate's partial state per group, from each group's codes.

    *kind* is any spec kind but ``count_star`` (a group's size), and each
    column lists one group's codes of the argument, in tuple order for
    the :data:`ORDERED_FOLDS`.  Every fold is one builtin pass: NULL is
    code 0, the only falsy code, so ``filter(None, ...)`` drops exactly
    the NULLs; ``min``/``max`` return the first extremal code, so rank
    ties keep the first occurrence.
    """
    if kind == "count":
        return [len(column) - column.count(NULL_CODE) for column in columns]
    if kind == "count_distinct":
        return [set(filter(None, column)) for column in columns]
    if kind in ("sum", "avg"):
        return [list(filter(None, column)) for column in columns]
    extreme = min if kind == "min" else max
    states = []
    for column in columns:
        best = extreme(filter(None, column), key=ranks.__getitem__, default=None)
        states.append(None if best is None else (ranks[best], best))
    return states


def _side_folds(tables: Any, aggs: list[tuple]) -> list[tuple[str, Any, Any, Any]]:
    """:func:`fold_groups` folds of side-tagged join specs (``kind, side,
    position[, ranks]``), reading each code through the member's side."""
    return [(spec[0], None, None, None) if spec[0] == "count_star" else
            (spec[0], tables[spec[1]][spec[2]], itemgetter(spec[1]),
             spec[3] if spec[0] in ("min", "max") else None)
            for spec in aggs]


def _sql_scan(state: dict[str, Any],
              payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Filter one chunk by code-set membership, optionally group + aggregate.

    The query rides in the payload (the broadcast state holds only the
    relation's code arrays): ``filters`` are ``(position, allowed codes)``
    pairs, ``group`` is ``None`` for a plain scan (the result is the
    surviving tids, chunk order) or a tuple of positions (possibly empty —
    one global group), and ``aggs`` are the aggregate specs of
    :func:`repro.relational.sql.columnar.query_payload`.

    A grouped scan makes one pass that lists the surviving tids per key,
    then folds each aggregate over each group's codes with builtins
    (:func:`fold_groups`).  Grouped results map each code key to
    ``[first tid, state, ...]`` with one partial-aggregate state per spec:

    * ``count_star`` / ``count`` — an int (``count`` skips NULL codes);
    * ``count_distinct`` — the set of non-NULL codes seen;
    * ``sum`` / ``avg`` — the non-NULL codes in chunk scan order (the
      parent folds them in tuple order, so float accumulation is
      byte-identical to the sequential path for every chunk size);
    * ``min`` / ``max`` — the best ``(dictionary-order rank, code)``, ties
      keeping the first occurrence (the ranks array rides in the spec).

    :class:`~repro.engine.sql.AggregateMerger` combines these across
    chunks in chunk order.
    """
    spec_id, query, tids = payload
    arrays = state[spec_id]["arrays"]
    survivors = passing(tids, [(arrays[position], allowed)
                               for position, allowed in query["filters"]])
    group = query["group"]
    if group is None:
        return survivors
    folds = [(spec[0], None, None, None) if spec[0] == "count_star" else
             (spec[0], arrays[spec[1]], None,
              spec[2] if spec[0] in ("min", "max") else None)
             for spec in query["aggs"]]
    return fold_groups(survivors, [(arrays[position], None) for position in group], folds)


# -- SQL join-probe phase -----------------------------------------------------


def _join_probe(state: dict[str, Any],
                payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Probe one chunk of a hash join's probe side against bridged buckets.

    The broadcast state holds both relations' code arrays (``sides``,
    index 0 = left); the query payload carries everything else: the probe
    side, its push-down ``filters``, the join ``keys`` as ``(probe
    position, bridge translation)`` pairs, the build side's code-keyed
    ``buckets`` (NULL-free, tids ascending), and — for grouped probes —
    ``group`` keys and ``aggs`` specs tagged with their side.

    A probe code translates through the bridge into the build dictionary;
    NULL (0) and :data:`~repro.relational.columns.NO_PARTNER` (-1) can
    never equal a bucket key (buckets key codes >= 1), so misses need no
    special-casing.  Results by shape:

    * plain, ``probe_side == 0`` — joined ``(left tid, right tid)`` pairs
      in left-major order (probe scan order, bucket order within);
    * plain, ``probe_side == 1`` — ``build (left) tid -> [probe (right)
      tids]`` partial matches; the parent re-emits them in left scan
      order, restoring exactly the left-major pair order;
    * grouped (always ``probe_side == 0``, so SUM/AVG fold order and
      group first-occurrence order stay left-major) — ``sql_scan``-style
      partial groups whose representative is the first ``(left tid,
      right tid)`` pair, merged by
      :class:`~repro.engine.sql.AggregateMerger`.
    """
    spec_id, query, tids = payload
    sides = state[spec_id]["sides"]
    probe_side = query["probe_side"]
    arrays = sides[probe_side]
    keys = [(arrays[position], translation)
            for position, translation in query["keys"]]
    buckets = query["buckets"]
    single = len(keys) == 1
    survivors = passing(tids, [(arrays[position], allowed)
                               for position, allowed in query["filters"]])

    def bucket_of(tid: int) -> list[int] | None:
        if single:
            codes, translation = keys[0]
            return buckets.get(translation[codes[tid]])
        key = []
        for codes, translation in keys:
            partner = translation[codes[tid]]
            if partner < 1:  # NULL or NO_PARTNER: no bucket can match
                return None
            key.append(partner)
        return buckets.get(tuple(key))

    if probe_side == 1:  # plain only
        matches: dict[int, list[int]] = {}
        for tid in survivors:
            bucket = bucket_of(tid)
            if bucket:
                for build_tid in bucket:
                    seen = matches.get(build_tid)
                    if seen is None:
                        matches[build_tid] = [tid]
                    else:
                        seen.append(tid)
        return matches
    pairs: list[tuple[int, int]] = []
    for tid in survivors:
        bucket = bucket_of(tid)
        if bucket:
            for build_tid in bucket:
                pairs.append((tid, build_tid))
    group = query["group"]
    if group is None:
        return pairs
    # grouped: the (left tid, right tid) pairs fold like _sql_scan's tids,
    # each column read through its side
    return fold_groups(pairs, [(sides[side][position], itemgetter(side))
                               for side, position in group],
                       _side_folds(sides, query["aggs"]))


# -- SQL multiway-join phase --------------------------------------------------


def multiway_group(arrays: list[list[int]], tids: list[int],
                   members: list[tuple[int, Any]]) -> dict[int, list[int]]:
    """Group *tids* by their shared-space code over one variable's members.

    ``members`` are ``(position, translation)`` pairs on one relation —
    the translation maps that column's codes into the variable's
    representative dictionary (``None`` when the column *is* the
    representative).  A tid only lands in a group when every member agrees
    on a code ``>= 1``: NULL (0) never equals anything and
    :data:`~repro.relational.columns.NO_PARTNER` (-1) marks values the
    representative dictionary lacks, so both drop out here, exactly as
    NULL keys drop out of hash-join buckets.  Tid lists stay ascending
    (scan order), which is what the product emission relies on.
    """
    streams = []
    for position, translation in members:
        stream = map(arrays[position].__getitem__, tids)
        streams.append(stream if translation is None
                       else map(translation.__getitem__, stream))
    keys = streams[0] if len(streams) == 1 else map(_agreed, zip(*streams))
    groups: dict[int, list[int]] = {}
    for code, tid in zip(keys, tids):
        group = groups.get(code)
        if group is None:
            groups[code] = [tid]
        else:
            group.append(tid)
    groups.pop(NULL_CODE, None)
    groups.pop(NO_PARTNER, None)
    return groups


def _agreed(codes: tuple[int, ...]) -> int:
    """The code all of a table's members agree on, or NO_PARTNER."""
    return codes[0] if codes.count(codes[0]) == len(codes) else NO_PARTNER


def leapfrog_blocks(tables: tuple, query: dict[str, Any], candidates: list[int],
                    counts: list[int]) -> Iterator[list[list[int]]]:
    """Every fully bound block of a multiway join, depth first.

    The one descent of :func:`_multiway_probe` and
    :func:`_factorised_multi_fold`.  ``query`` carries ``levels`` (the
    variable order: per level, the participating tables with their member
    ``(position, translation)`` pairs), ``base`` (the filtered live tids
    per table, ``None`` for the tables level 0 binds) and ``level_one``
    (the first variable's ``code -> tids`` groups).  Each candidate code
    binds the first variable; every deeper level groups each
    participating table's tids by the level's variable
    (:func:`multiway_group`), intersects the codes all groupings hold
    (``sorted()`` of the intersection of their keys) and descends per
    code, adding one to ``counts[level]`` for each.  A block is the bound
    tid list of every table, in FROM order, and consecutive blocks share
    a table's list object for as long as that table's binding holds.

    A table that no earlier level binds is still on its base tids, the
    same under every candidate above it, so its grouping at its first
    level is built once per call and reused; a table an earlier level
    bound regroups its bound group.  The memo lives in this generator's
    frame, so the call's grouping state is freed when it is exhausted.
    """
    levels = query["levels"]
    base = query["base"]
    level_one = query["level_one"]
    # per level: (table, members, grouped once) for each participant
    steps: list[list[tuple[int, Any, bool]]] = []
    bound = {table for table, _ in levels[0]}
    for level in levels[1:]:
        steps.append([(table, members, table not in bound) for table, members in level])
        bound.update(table for table, _ in level)
    shared: dict[tuple[int, int], dict[int, list[int]]] = {}
    for code in candidates:
        counts[0] += 1
        per_table = list(base)
        for table, groups in level_one.items():
            per_table[table] = groups[code]
        yield from _descend(tables, steps, 0, per_table, shared, counts)


def _descend(tables: tuple, steps: list, step: int, per_table: list[list[int]],
             shared: dict, counts: list[int]) -> Iterator[list[list[int]]]:
    """Bind level ``step + 1`` of :func:`leapfrog_blocks` under *per_table*."""
    if step == len(steps):
        yield per_table
        return
    maps: list[tuple[int, dict[int, list[int]]]] = []
    for table, members, once in steps[step]:
        if once:
            groups = shared.get((step, table))
            if groups is None:
                groups = shared[step, table] = multiway_group(
                    tables[table], per_table[table], members)
        else:
            groups = multiway_group(tables[table], per_table[table], members)
        if not groups:
            return
        maps.append((table, groups))
    present: Any = maps[0][1].keys()
    for _, groups in maps[1:]:
        present = present & groups.keys()
    level = step + 1
    for code in sorted(present):
        counts[level] += 1
        bound = list(per_table)
        for table, groups in maps:
            bound[table] = groups[code]
        yield from _descend(tables, steps, level, bound, shared, counts)


def _multiway_probe(state: dict[str, Any],
                    payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Enumerate the join tuples of one chunk of first-variable candidates.

    The broadcast state holds every relation's code arrays (``tables``,
    FROM order); the query payload carries the compiled shape that
    :func:`leapfrog_blocks` descends.  A fully bound block emits the
    cartesian product of its per-table tid lists in FROM order.  The
    tuples are sorted before returning, so the parent's merge of all
    chunks is exactly the ascending ``(tid_1, .., tid_N)`` enumeration
    the row path produces.

    Returns ``(sorted tid tuples, per-level candidate counts)`` — the
    counts feed the obs histogram and EXPLAIN's per-level report.
    """
    spec_id, query, candidates = payload
    counts = [0] * len(query["levels"])
    results: list[tuple[int, ...]] = []
    for block in leapfrog_blocks(state[spec_id]["tables"], query, candidates, counts):
        results.extend(product(*block))
    results.sort()
    return results, counts


def _multiway_fold(state: dict[str, Any],
                   payload: tuple[str, dict[str, Any], list[tuple[int, ...]]]) -> Any:
    """Group + aggregate one contiguous slice of sorted multiway join tuples.

    The slices arrive in global tuple order (the parent chunks the sorted
    enumeration of :func:`_multiway_probe`), so chunk-order merging by
    :class:`~repro.engine.sql.AggregateMerger` reproduces the row path's
    group first-occurrence order and float fold order exactly.  Folds
    through :func:`fold_groups` like :func:`_join_probe`'s grouped branch,
    with each spec's ``side`` indexing into the N broadcast tables instead
    of two.
    """
    spec_id, query, combos = payload
    tables = state[spec_id]["tables"]
    return fold_groups(combos, [(tables[side][position], itemgetter(side))
                                for side, position in query["group"]],
                       _side_folds(tables, query["aggs"]))


# -- SQL factorised (semiring) aggregate phase --------------------------------


def initial_factorised_state(spec: tuple) -> Any:
    """The factorised partial state before any block is folded in.

    * ``count_star`` / ``count`` — an exact integer;
    * ``count_distinct`` and DISTINCT ``sum`` / ``avg`` — a code set
      (multiplicity-free, so the tuple product never matters);
    * non-DISTINCT ``sum`` / ``avg`` — an exact ``[total, count]`` pair;
    * ``min`` / ``max`` — the best ``(rank, code)`` or ``None``.
    """
    kind = spec[0]
    if kind in ("count_star", "count"):
        return 0
    if kind == "count_distinct":
        return set()
    if kind in ("sum", "avg"):
        return set() if spec[3] else [0, 0]
    return None  # min | max


def _factorised_fold(state: dict[str, Any],
                     payload: tuple[str, dict[str, Any], list]) -> Any:
    """Fold one chunk of a grouped join without enumerating its tuples.

    Dispatches on the query's ``kind``: ``"join"`` folds probe tids
    against pre-aggregated hash-bucket blocks
    (:func:`repro.relational.sql.columnar.build_factorised_buckets`),
    ``"multi"`` descends the leapfrog levels like :func:`_multiway_probe`
    and folds each fully bound block by semiring multiplication.  Both
    return ``(groups, partials, tuples, counts)``: ``sql_scan``-shaped
    partial groups (the representative is the enumerated path's first
    tuple), the number of semiring folds performed, the number of
    enumerated tuples those folds replaced, and the per-level candidate
    counts (``None`` for the join shape).
    """
    spec_id, query, items = payload
    if query["kind"] == "join":
        return _factorised_join_fold(state[spec_id]["sides"], query, items)
    return _factorised_multi_fold(state[spec_id]["tables"], query, items)


def _factorised_join_fold(sides: tuple, query: dict[str, Any],
                          tids: list[int]) -> Any:
    """Probe one chunk against blocks of pre-folded build-side partials.

    Matches :func:`_join_probe`'s grouped branch pairing for pairing —
    same probe filters, same bridge translation, same NULL / NO_PARTNER
    misses — but each bucket *block* (one build-side group-key
    projection, scan order) combines in O(specs): COUNT(*) adds the
    block size, probe-side folds scale by it, build-side folds reuse the
    block's pre-aggregated partial.  Group keys assemble from probe
    codes and the block's part codes, so first-occurrence order and the
    first-pair representative match the enumerated probe exactly.
    """
    arrays = sides[0]  # factorised probes always walk the left side
    survivors = passing(tids, [(arrays[position], allowed)
                               for position, allowed in query["filters"]])
    # each survivor's bucket: its key codes translated through the bridges.
    # NULL (0) and NO_PARTNER (-1) are never bucket keys (buckets key codes
    # >= 1), so a tid with either in its key simply misses.
    partners = [map(translation.__getitem__, map(arrays[position].__getitem__, survivors))
                for position, translation in query["keys"]]
    hits = map(query["buckets"].get,
               partners[0] if len(partners) == 1 else zip(*partners))

    # op codes per spec: probe-side folds read the tid's code, build-side
    # folds combine the block's pre-aggregated partial.
    aggs = query["aggs"]
    steps: list[tuple[int, Any, Any]] = []
    for spec in aggs:
        kind = spec[0]
        if kind == "count_star":
            steps.append((0, None, None))
        elif spec[1] == 0:  # probe (left) side
            codes = arrays[spec[2]]
            if kind == "count":
                steps.append((1, codes, None))
            elif kind == "count_distinct" or (kind in ("sum", "avg") and spec[3]):
                steps.append((3, codes, None))
            elif kind in ("sum", "avg"):
                steps.append((5, codes, spec[4]))
            else:
                steps.append((7 if kind == "min" else 8, codes, spec[3]))
        else:  # build (right) side: combine the pre-folded partial
            if kind == "count":
                steps.append((2, None, None))
            elif kind == "count_distinct" or (kind in ("sum", "avg") and spec[3]):
                steps.append((4, None, None))
            elif kind in ("sum", "avg"):
                steps.append((6, None, None))
            else:
                steps.append((9 if kind == "min" else 10, None, None))

    group = query["group"]
    left_keys = []    # (key slot, probe code array)
    right_slots = []  # (key slot, offset into the block's part codes)
    offset = 0
    for slot, (side, position) in enumerate(group):
        if side == 0:
            left_keys.append((slot, arrays[position]))
        else:
            right_slots.append((slot, offset))
            offset += 1
    single_key = len(group) == 1
    key_codes = [0] * len(group)

    groups: dict[Any, list] = {}
    partials = 0
    tuples = 0
    for tid, blocks in zip(survivors, hits):
        if not blocks:
            continue
        for slot, codes in left_keys:
            key_codes[slot] = codes[tid]
        for part, first_tid, size, pres in blocks:
            for slot, position in right_slots:
                key_codes[slot] = part[position]
            if single_key:
                key: Any = key_codes[0]
            else:
                key = tuple(key_codes)
            partials += 1
            tuples += size
            entry = groups.get(key)
            if entry is None:
                entry = [(tid, first_tid)] + [initial_factorised_state(spec)
                                              for spec in aggs]
                groups[key] = entry
            for index, (op, codes, aux) in enumerate(steps, start=1):
                if op == 0:          # COUNT(*): the whole block matches
                    entry[index] += size
                    continue
                if op == 2:          # build-side COUNT: pre-counted non-NULLs
                    entry[index] += pres[index - 1]
                    continue
                if op == 4:          # build-side code set: union (pres read-only)
                    entry[index] |= pres[index - 1]
                    continue
                if op == 6:          # build-side [total, count]: elementwise add
                    pre = pres[index - 1]
                    pair_state = entry[index]
                    pair_state[0] += pre[0]
                    pair_state[1] += pre[1]
                    continue
                if op >= 9:          # build-side MIN | MAX: best rank wins
                    pre = pres[index - 1]
                    if pre is not None:
                        best = entry[index]
                        if best is None or (pre[0] < best[0] if op == 9
                                            else pre[0] > best[0]):
                            entry[index] = pre
                    continue
                code = codes[tid]
                if code == NULL_CODE:
                    continue
                if op == 1:          # probe-side COUNT: size copies of the code
                    entry[index] += size
                elif op == 3:        # probe-side code set
                    entry[index].add(code)
                elif op == 5:        # probe-side SUM/AVG: value × multiplicity
                    pair_state = entry[index]
                    pair_state[0] += aux[code] * size
                    pair_state[1] += size
                else:                # 7 min | 8 max on the probe side
                    rank = aux[code]
                    best = entry[index]
                    if best is None or (rank < best[0] if op == 7 else rank > best[0]):
                        entry[index] = (rank, code)
    return groups, partials, tuples, None


def _factorised_multi_fold(tables: tuple, query: dict[str, Any],
                           candidates: list[int]) -> Any:
    """Descend one chunk of first-variable candidates, folding — not
    enumerating — every fully bound block.

    The descent is :func:`leapfrog_blocks`, as for :func:`_multiway_probe`
    (same grouping, same intersection, same per-level counts); only what
    happens to a block differs.  There each side holds a bound tid list
    and the block contributes its cartesian product; here each side's
    list is partitioned by its group-key codes, with per-part partial
    aggregates (:func:`_side_parts`), and every cross-side part
    combination contributes by semiring multiplication: COUNT(*) adds the
    product of part sizes, per-side folds scale by the co-sides'
    multiplicity (an exact integer), code sets union, MIN/MAX compare
    ranks.  A side's parts are computed once per bound tid group and
    reused for every block while that group stays bound: the descent is
    depth first, so those blocks arrive one after another, and only the
    current group per side is kept.  The group representative is the
    combination's per-side minimum tids — exactly the lexicographically
    first tuple of its cartesian product, i.e. the enumerated path's
    first occurrence — min-merged per group so the parent can re-sort
    groups into the sorted enumeration's first-occurrence order.
    """
    aggs = query["aggs"]
    group = query["group"]
    table_count = len(tables)
    counts = [0] * len(query["levels"])

    # group-key code arrays per side; key_slots maps each output key slot
    # to (side, offset into that side's part-key tuple).
    side_key_arrays: list[list] = [[] for _ in range(table_count)]
    key_slots: list[tuple[int, int]] = []
    for side, position in group:
        key_slots.append((side, len(side_key_arrays[side])))
        side_key_arrays[side].append(tables[side][position])
    single_key = len(group) == 1

    # per-side fold steps: (spec slot, fold_codes kind, codes,
    # ranks-or-values); combine modes per spec: how a part's stat enters
    # the group entry.
    side_steps: list[list[tuple[int, str, Any, Any]]] = \
        [[] for _ in range(table_count)]
    combines: list[tuple[int, int]] = []  # (mode, side) per spec
    for index, spec in enumerate(aggs):
        kind = spec[0]
        if kind == "count_star":
            combines.append((0, 0))
            continue
        side = spec[1]
        codes = tables[side][spec[2]]
        if kind == "count":
            side_steps[side].append((index, "count", codes, None))
            combines.append((1, side))
        elif kind == "count_distinct" or (kind in ("sum", "avg") and spec[3]):
            side_steps[side].append((index, "count_distinct", codes, None))
            combines.append((2, side))
        elif kind in ("sum", "avg"):
            side_steps[side].append((index, "sum", codes, spec[4]))
            combines.append((3, side))
        else:
            side_steps[side].append((index, kind, codes, spec[3]))
            combines.append((4 if kind == "min" else 5, side))

    groups: dict[Any, list] = {}
    partials = 0
    tuples = 0
    # the bound tid group of each side and its parts, kept while it holds
    current: list[Any] = [None] * table_count
    parts: list[Any] = [None] * table_count
    for block in leapfrog_blocks(tables, query, candidates, counts):
        for side, tids in enumerate(block):
            if tids is not current[side]:
                current[side] = tids
                parts[side] = _side_parts(tids, side_key_arrays[side],
                                          side_steps[side])
        for choice in product(*parts):
            sizes = [len(part[1]) for part in choice]
            multiplier = prod(sizes)
            partials += 1
            tuples += multiplier
            if single_key:
                side, offset = key_slots[0]
                key: Any = choice[side][0][offset]
            elif key_slots:
                key = tuple(choice[side][0][offset] for side, offset in key_slots)
            else:
                key = ()
            representative = tuple(part[1][0] for part in choice)
            entry = groups.get(key)
            if entry is None:
                entry = [representative] + [initial_factorised_state(spec)
                                            for spec in aggs]
                groups[key] = entry
            elif representative < entry[0]:
                entry[0] = representative
            for index, (mode, side) in enumerate(combines, start=1):
                if mode == 0:        # COUNT(*): the whole block
                    entry[index] += multiplier
                    continue
                stat = choice[side][2][index - 1]
                if mode == 1:        # COUNT: scale by co-sides' multiplicity
                    entry[index] += stat * (multiplier // sizes[side])
                elif mode == 2:      # code set: union
                    entry[index] |= stat
                elif mode == 3:      # [total, count] × co-sides' multiplicity
                    scale = multiplier // sizes[side]
                    pair_state = entry[index]
                    pair_state[0] += stat[0] * scale
                    pair_state[1] += stat[1] * scale
                elif stat is not None:  # 4 min | 5 max
                    best = entry[index]
                    if best is None or (stat[0] < best[0] if mode == 4
                                        else stat[0] > best[0]):
                        entry[index] = stat
    return groups, partials, tuples, counts


def _side_parts(tids: list[int], key_arrays: list[list[int]],
                steps: list[tuple[int, str, Any, Any]]) -> list[tuple]:
    """One side's bound tids as ``(part key, part tids, stats)`` parts.

    Parts are the tids' group-key code tuples in first-occurrence order
    (one part ``()`` when the side has no group keys), tids ascending, so
    a part's first tid is its minimum.  ``stats`` maps each of the side's
    spec slots to its partial over the part, folded by :func:`fold_codes`
    (a ``sum`` step keeps the exact ``[total, count]`` of the values).
    """
    if key_arrays:
        split: dict[tuple, list[int]] = {}
        for key, tid in zip(zip(*[map(codes.__getitem__, tids) for codes in key_arrays]),
                            tids):
            part = split.get(key)
            if part is None:
                split[key] = [tid]
            else:
                part.append(tid)
        items: Any = split.items()
    else:
        items = [((), tids)] if tids else []
    parts = [(key, part_tids, {}) for key, part_tids in items]
    for index, kind, codes, aux in steps:
        states = fold_codes(kind, [list(map(codes.__getitem__, part[1])) for part in parts],
                            aux if kind in ("min", "max") else None)
        if kind == "sum":  # exact [total, count] of the non-NULL values
            states = [[sum(map(aux.__getitem__, present)), len(present)]
                      for present in states]
        for part, state in zip(parts, states):
            part[2][index] = state
    return parts


_HANDLERS = {
    "factorised_fold": _factorised_fold,
    "join_probe": _join_probe,
    "multiway_fold": _multiway_fold,
    "multiway_probe": _multiway_probe,
    "sql_scan": _sql_scan,
}
