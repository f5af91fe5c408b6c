"""String similarity operators, implemented from scratch.

These are the ``≈`` operators used by relative candidate keys (§4 of the
tutorial) and by the repair cost model (the cost of changing a value is
proportional to how different the new value is).  All functions return a
similarity in ``[0, 1]`` (1 = identical) unless stated otherwise.

Edit distance is computed bit-parallel: Myers' bit-vector algorithm ("A
fast bit-vector algorithm for approximate string matching based on
dynamic programming", JACM 1999) in Hyyrö's formulation for the edit
distance of two whole strings.  One column of the dynamic program is a
pair of bit vectors (Python ints, so any length is exact) and one text
character updates it in a dozen integer operations, instead of one cell
at a time.  ``tests/oracle`` keeps the dynamic program as the reference.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.relational.types import is_null


def levenshtein_distance(left: str, right: str) -> int:
    """Classic edit distance (insertions, deletions, substitutions).

    The longer string is the bit pattern: bit ``i`` of ``peq[c]`` is set
    when its character ``i`` is ``c``.  ``pv``/``mv`` hold the +1/-1
    vertical deltas of the current column, ``score`` its last cell; each
    character of the shorter string advances the column by one.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    if not right:
        return len(left)
    peq: dict[str, int] = {}
    bit = 1
    for char in left:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, score = mask, 0, len(left)
    for char in right:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # row 0 of the table is 0, 1, 2, ...: every column enters at +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_edit_similarity(left: Any, right: Any) -> float:
    """``1 - edit_distance / max(len)``; NULLs are only similar to NULLs."""
    if is_null(left) and is_null(right):
        return 1.0
    if is_null(left) or is_null(right):
        return 0.0
    left_text, right_text = str(left), str(right)
    longest = max(len(left_text), len(right_text))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left_text, right_text) / longest


def normalized_edit_distance(left: Any, right: Any) -> float:
    """``1 - normalized_edit_similarity`` (used as a repair cost)."""
    return 1.0 - normalized_edit_similarity(left, right)


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity (match window = half the longer string)."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(len(left), len(right)) // 2 - 1
    window = max(window, 0)
    left_matches = [False] * len(left)
    right_matches = [False] * len(right)
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (matches / len(left) + matches / len(right)
            + (matches - transpositions) / matches) / 3.0


def jaro_winkler_similarity(left: str, right: str, prefix_weight: float = 0.1) -> float:
    """Jaro–Winkler: Jaro boosted by the length of the common prefix (max 4)."""
    jaro = jaro_similarity(left, right)
    prefix = 0
    for left_char, right_char in zip(left[:4], right[:4]):
        if left_char != right_char:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def qgrams(text: str, q: int = 2) -> set[str]:
    """The set of q-grams of *text* (padded with ``#`` at both ends)."""
    padded = "#" * (q - 1) + text + "#" * (q - 1)
    return {padded[i:i + q] for i in range(len(padded) - q + 1)}


def qgram_jaccard_similarity(left: str, right: str, q: int = 2) -> float:
    """Jaccard similarity of the q-gram sets of the two strings."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    left_grams, right_grams = qgrams(left, q), qgrams(right, q)
    union = left_grams | right_grams
    if not union:
        return 1.0
    return len(left_grams & right_grams) / len(union)


def token_jaccard_similarity(left: str, right: str) -> float:
    """Jaccard similarity of whitespace-separated token sets (for addresses)."""
    left_tokens = set(left.lower().split())
    right_tokens = set(right.lower().split())
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    return len(left_tokens & right_tokens) / len(left_tokens | right_tokens)


SIMILARITY_FUNCTIONS: dict[str, Callable[[str, str], float]] = {
    "edit": normalized_edit_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "qgram": qgram_jaccard_similarity,
    "token": token_jaccard_similarity,
}


def similarity(left: Any, right: Any, method: str = "edit") -> float:
    """Dispatch to a named similarity function; NULL is only similar to NULL."""
    if is_null(left) and is_null(right):
        return 1.0
    if is_null(left) or is_null(right):
        return 0.0
    if method not in SIMILARITY_FUNCTIONS:
        raise ValueError(f"unknown similarity method {method!r}; "
                         f"known: {sorted(SIMILARITY_FUNCTIONS)}")
    return SIMILARITY_FUNCTIONS[method](str(left), str(right))
