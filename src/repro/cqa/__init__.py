"""Consistent query answering (CQA).

Rather than editing the data, CQA answers queries against *every* possible
repair of an inconsistent database and returns the answers common to all
of them — the *certain answers* (Arenas, Bertossi & Chomicki, reference
[1] of the tutorial).  The package supports selection–projection queries
over a single relation whose inconsistencies are key (FD) violations:

* :mod:`repro.cqa.repairs` enumerates the subset repairs (one tuple kept
  per conflicting key group) — exact but exponential, used on small data
  and as the oracle in tests;
* :mod:`repro.cqa.rewriting` computes the same certain answers without
  enumerating repairs, by requiring every tuple of a key group to agree on
  the projected attributes and satisfy the selection — on dictionary
  codes, probing the maintained key index only for the key groups that
  hold a selected tuple;
* :class:`repro.cqa.answer.CQAEngine` ties the two together and also
  returns *possible* answers (true in at least one repair).
"""

from repro.cqa.repairs import enumerate_key_repairs, key_conflict_groups
from repro.cqa.rewriting import certain_answers_rewriting
from repro.cqa.answer import CQAEngine, SelectionQuery

__all__ = [
    "CQAEngine",
    "SelectionQuery",
    "enumerate_key_repairs",
    "key_conflict_groups",
    "certain_answers_rewriting",
]
