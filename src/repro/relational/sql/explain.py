"""Human-readable rendering of SQL EXPLAIN info.

The executor collects a plain dict per statement when asked to explain
(:meth:`~repro.relational.sql.executor.SQLExecutor.execute` with
``explain=True``): the chosen plan (``code`` / ``join`` / ``multiway`` /
``factorised`` / ``row`` / ``union``), the reasons the faster paths were
rejected,
per-conjunct push-down pruning stats, how a grouped single-table
statement grouped (the maintained index it read, or why it scanned), and
hash-join / multiway-join shape (variable order with per-level candidate
counts).  :func:`format_explain`
turns that dict into the text the CLI ``--explain`` flag and
``SQLEngine.explain`` print.  The dict itself stays available for
programmatic use (``SQLEngine.last_explain``).
"""

from __future__ import annotations

from typing import Any

_PLAN_DESCRIPTIONS = {
    "code": "code-native single-table scan on dictionary codes",
    "join": "code-native hash join on dictionary codes",
    "multiway": "code-native leapfrog multiway join on rank arrays",
    "factorised": "code-native join with factorised (semiring) aggregates",
    "row": "row-at-a-time reference path",
}


def _format_filter(entry: dict[str, Any]) -> str:
    survivors = entry["rows_in"] - entry["rows_pruned"]
    detail = f" [{entry['conjunct']}]" if entry.get("conjunct") else ""
    return (f"{entry['table']}.{entry['attribute']}{detail}: "
            f"code set of {entry['code_set_size']}, "
            f"{entry['rows_in']} rows in, {entry['rows_pruned']} pruned, "
            f"{survivors} out")


def format_explain(info: dict[str, Any]) -> str:
    """Render one statement's EXPLAIN info dict as indented text."""
    plan = info.get("plan")
    lines: list[str] = []
    if plan == "union":
        lines.append("plan: union")
        for index, sub in enumerate(info.get("selects") or []):
            lines.append(f"select {index + 1}:")
            if sub:
                lines.extend("  " + line
                             for line in format_explain(sub).splitlines())
        return "\n".join(lines)

    description = _PLAN_DESCRIPTIONS.get(plan, "")
    lines.append(f"plan: {plan} ({description})" if description else f"plan: {plan}")

    filters = info.get("filters") or []
    if filters:
        lines.append("push-down filters:")
        lines.extend("  - " + _format_filter(entry) for entry in filters)
    elif plan != "row":
        lines.append("push-down filters: none")

    grouping = info.get("grouping")
    if grouping:
        if grouping["kind"] == "index":
            lines.append(
                f"grouping: maintained index on ({', '.join(grouping['attributes'])}), "
                f"{grouping['buckets']} bucket(s), {grouping['kept']} kept")
        else:
            lines.append(f"grouping: scan ({grouping['reason']})")

    order = info.get("order")
    if order:
        lines.append(
            f"order by: top-{order['top_k']} heap selection on rank tuples "
            f"over {order['rows_in']} rows (LIMIT push-down)")

    join = info.get("join")
    if join:
        lines.append(
            f"hash join: build {join['build_side']} "
            f"({join['build_rows']} rows, {join['buckets']} buckets), "
            f"probe {join['probe_side']} ({join['probe_rows']} rows), "
            f"{join['key_pairs']} equi key(s)")

    multiway = info.get("multiway")
    if multiway:
        lines.append(
            f"multiway join: {' ⋈ '.join(multiway['tables'])}, "
            f"{len(multiway['order'])} join variable(s), "
            f"{multiway['tuples']} tuple(s)")
        lines.append("variable order:")
        for level, entry in enumerate(multiway["order"]):
            tag = ", fd-implied" if entry["fd_implied"] else ""
            lines.append(
                f"  {level + 1}. {' = '.join(entry['members'])} "
                f"(estimate {entry['estimate']}{tag}): "
                f"{entry['candidates']} candidate(s)")

    factorised = info.get("factorised")
    if factorised:
        lines.append(
            f"factorised aggregates: {factorised['partials']} semiring "
            f"fold(s) over {factorised['groups']} group(s) instead of "
            f"{factorised['tuples']} enumerated tuple(s)")

    if plan != "code":
        _append_reasons(lines, "why not code-native scan:",
                        info.get("why_not_code") or [])
    if plan in ("join", "multiway"):
        _append_reasons(lines, "why not factorised aggregates:",
                        info.get("why_not_factorised") or [])
    if plan == "row":
        _append_reasons(lines, "why not code-native join:",
                        info.get("why_not_join") or [])
        _append_reasons(lines, "why not code-native multiway join:",
                        info.get("why_not_multiway") or [])
    return "\n".join(lines)


def _append_reasons(lines: list[str], heading: str, reasons: list[str]) -> None:
    lines.append(heading)
    if reasons:
        lines.extend("  - " + reason for reason in reasons)
    else:
        lines.append("  - (no reason recorded)")
