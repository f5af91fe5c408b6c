"""Shared broadcast-handle lifecycle for single-relation chunked engines.

Every chunked engine over one relation follows the same protocol: build a
broadcastable state once (dictionaries referencing the column store's
*live* arrays, so contents are always current), and re-tokenise the
handle whenever the relation version changes — a fresh token is what
tells the multiprocessing backend that worker-side snapshots are stale
and the state must ship again, and *supersedes* lets it retire the
now-stale OS pool instead of waiting for LRU eviction.  A relation's
code arrays and dictionaries are its storage and keep their identities
for its lifetime, which is why the state dict never needs rebuilding
here.

:class:`RelationBroadcastEngine` is that protocol, factored out of the
CFD, partition and SQL engines; subclasses supply :meth:`_build_state`.
(:class:`~repro.engine.detect.ChunkedCINDEngine` spans *two* relations
per constraint and keeps its own multi-version variant.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.executor import ExecutorPool, StateHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.relation import Relation


class RelationBroadcastEngine:
    """Base of chunked engines broadcasting one relation's code-level state."""

    def __init__(self, relation: "Relation", pool: ExecutorPool) -> None:
        self._relation = relation
        self._pool = pool
        self._handle: StateHandle | None = None
        self._version = -1

    @property
    def relation(self) -> "Relation":
        return self._relation

    def _build_state(self) -> dict[str, Any]:
        """The broadcastable state (built once; contents stay live)."""
        raise NotImplementedError

    def _ensure_handle(self) -> StateHandle:
        """The broadcast handle, re-tokenised when the relation changed."""
        if self._handle is None:
            if obs.enabled:
                obs.inc("engine.broadcast.build")
            self._handle = StateHandle(self._build_state())
        elif self._version != self._relation.version:
            if obs.enabled:
                obs.inc("engine.broadcast.retokenize")
            self._handle = StateHandle(self._handle.state,
                                       supersedes=self._handle.token)
        elif obs.enabled:
            obs.inc("engine.broadcast.reuse")
        self._version = self._relation.version
        return self._handle

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._relation.name}, "
                f"pool={self._pool.name})")
