"""Reference sentence segmenter: the per-character scan ``segment_sentences``
used before it moved to a regular-expression candidate scan.

Kept only as a test oracle; ``test_segment_differential.py`` checks that the
package's segmenter returns exactly the spans this one does. The rule data
(abbreviations, terminators, closers, openers, URL pattern) is imported, so
the two can only differ in how they apply the rules.
"""
from __future__ import annotations

from lfqa_eval.models import SentenceSpan
from lfqa_eval.segment import ABBREVIATIONS, URL_RE, _CLOSERS, _OPENERS, _TERMINATORS


def _protected_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in URL_RE.finditer(text)]


def _in_protected(pos: int, protected: list[tuple[int, int]]) -> bool:
    return any(s <= pos < e for s, e in protected)


def _abbreviation_before(text: str, dot: int) -> bool:
    j = dot
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "."):
        j -= 1
    token = text[j:dot].strip(".")
    if not token:
        return False
    if len(token) == 1 and token.isalpha() and token.isupper():
        return True  # initials such as "J. Smith"
    return token.lower() in ABBREVIATIONS


def oracle_segment_sentences(text: str) -> list[SentenceSpan]:
    """Split ``text`` into sentence spans; '' yields []."""
    n = len(text)
    if not text.strip():
        return []
    protected = _protected_spans(text)

    ends: list[int] = []
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS or _in_protected(i, protected):
            continue
        j = i + 1
        while j < n and text[j] in _CLOSERS:
            j += 1
        if j >= n or not text[j].isspace():
            continue
        k = j
        while k < n and text[k].isspace():
            k += 1
        if k >= n:
            continue
        nxt = text[k]
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        if ch == "." and _abbreviation_before(text, i):
            continue
        ends.append(j)

    spans: list[SentenceSpan] = []
    cursor = 0
    for boundary in ends + [n]:
        chunk = text[cursor:boundary]
        start = cursor + (len(chunk) - len(chunk.lstrip()))
        end = cursor + len(chunk.rstrip())
        if end > start:
            spans.append(SentenceSpan(index=len(spans), start=start, end=end))
        cursor = boundary
    return spans
