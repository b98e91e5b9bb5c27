"""Deterministic rule-based sentence segmentation with codepoint offsets.

A sentence boundary is placed after '.', '!' or '?' (plus any closing
quotes/brackets) when it is followed by whitespace and then an uppercase
letter, a digit, or an opening quote. A '.' does not end a sentence when
the word before it is on the abbreviation list (or is a single capital,
as in initials), and no terminator inside a URL ever splits. Rule-based
segmentation keeps offsets reproducible across runs and platforms.

Resulting spans are sorted, disjoint, and cover every non-whitespace
character of the input exactly once.
"""
from __future__ import annotations

import re

from .models import SentenceSpan

# Words before a '.' that never end a sentence. Multi-dot abbreviations are
# matched against the token up to their final dot ("e.g." -> "e.g").
ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "gen", "sen", "rep",
        "st", "sr", "jr", "vs", "etc", "approx", "dept", "est", "fig",
        "figs", "eq", "eqs", "sec", "secs", "no", "nos", "vol", "vols",
        "inc", "ltd", "co", "corp", "al", "ed", "eds", "p", "pp", "cf",
        "ca", "viz", "resp", "min", "max", "avg", "e.g", "i.e", "u.s",
        "u.k", "a.m", "p.m",
    }
)

_TERMINATORS = ".!?"
_CLOSERS = "\"'”’)»]"
_OPENERS = "\"'“‘(["

URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>\"]+")

# A candidate boundary: a terminator, any closers, then a whitespace run.
# Group 1 ends where the boundary goes; the match ends at the next word.
_CANDIDATE_RE = re.compile(
    f"([{re.escape(_TERMINATORS)}][{re.escape(_CLOSERS)}]*)\\s+"
)


def _protected_spans(text: str) -> list[tuple[int, int]]:
    if "://" not in text and "www." not in text:
        return []  # every URL_RE match holds one of the two
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


def segment_sentences(text: str) -> list[SentenceSpan]:
    """Split ``text`` into sentence spans; '' yields []."""
    end = len(text.rstrip())
    if not end:
        return []
    protected = _protected_spans(text)

    # Each accepted candidate ends one sentence at its terminator and closers
    # (group 1) and starts the next at the non-space character after its
    # whitespace run. Scanning stops at the trailing whitespace, so every
    # match is followed by a non-space character.
    spans: list[SentenceSpan] = []
    start = len(text) - len(text.lstrip())
    for match in _CANDIDATE_RE.finditer(text, start, end):
        nxt = text[match.end()]
        if not (nxt.isupper() or nxt.isdigit() or nxt in _OPENERS):
            continue
        i = match.start()
        if protected and _in_protected(i, protected):
            continue
        if text[i] == "." and _abbreviation_before(text, i):
            continue
        spans.append(SentenceSpan(len(spans), start, match.end(1)))
        start = match.end()
    spans.append(SentenceSpan(len(spans), start, end))
    return spans


def sentence_texts(text: str, spans: list[SentenceSpan]) -> list[str]:
    return [text[s.start : s.end] for s in spans]
