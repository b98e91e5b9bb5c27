"""The regex candidate scan in ``segment_sentences`` against the per-character
scan it replaced (``segment_oracle``): identical spans on every input."""
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfqa_eval.segment import ABBREVIATIONS, _CLOSERS, _OPENERS, _TERMINATORS, segment_sentences
from segment_oracle import oracle_segment_sentences

# Texts are runs of tokens, each a word, an optional ending and a separator,
# so that most tokens put a candidate boundary in front of the next word.
_WORDS = (
    # abbreviations with and without their final dot, dotted ones included
    # ("e.g.", "U.S."), capitalised, and single-capital initials
    sorted(ABBREVIATIONS)
    + [f"{a}." for a in sorted(ABBREVIATIONS)]
    + ["U.S", "E.g", "Dr", "Etc", "J", "K", "É", "x"]
    # URLs whose paths carry terminators
    + ["http://example.org/a.b.", "https://x.io/q?a=1!", "www.site.com.", "www.a.b/c?"]
    # words and numbers, ASCII and not; openers that may start the next word
    + ["word", "Word", "alpha", "Beta", "42", "3.5", "Ω", "Жук", "ß", "٣", "७", "²"]
    + list(_OPENERS)
)
_ENDINGS = (
    ["", ""]
    + list(_TERMINATORS)
    + [t + c for t in _TERMINATORS for c in _CLOSERS]
    + ["..", "?!", ".)\"", "!”’"]
)
_SEPARATORS = ["", " ", " ", "  ", "\n", "\t", "\xa0", "\u2003", "\u3000", "\x1c", "\u2028"]

_token = st.tuples(
    st.one_of(st.sampled_from(_WORDS), st.characters(codec="utf-8")),
    st.sampled_from(_ENDINGS),
    st.sampled_from(_SEPARATORS),
).map("".join)
_texts = st.lists(_token, max_size=30).map("".join)


@settings(max_examples=600, deadline=None)
@example("Dr! Smith left. He returned? Yes.")
@example("See e.g. Table 2. J. K. Rowling wrote it.\xa0٣ more.")
@example("Go to www.site.com. Then http://x.io/a.b?c=1! Now.")
@example('He said "Stop." (Then) he left.\x1cÉtait-ce fini?')
@example("Trailing terminator.")
@example("  \n\tLeading whitespace. Then more.")
@example("Trailing whitespace. Then more.  \n\u3000")
@example(". A")
@example("First one.\u2003Second one.")
@example("one sentence and no terminator")
@given(text=_texts)
def test_regex_scan_matches_per_character_scan(text):
    assert segment_sentences(text) == oracle_segment_sentences(text)


@given(
    text=_texts,
    ending=st.sampled_from([t + c for t in _TERMINATORS for c in ["", *_CLOSERS]]),
)
def test_text_ending_right_after_a_terminator(text, ending):
    text += ending
    assert segment_sentences(text) == oracle_segment_sentences(text)


def test_regex_whitespace_class_is_str_isspace():
    """The scan's ``\\s`` must accept exactly the characters ``str.isspace`` does."""
    every_char = "".join(map(chr, range(0x110000)))
    by_regex = {m.start() for m in re.finditer(r"\s", every_char)}
    by_isspace = {i for i, ch in enumerate(every_char) if ch.isspace()}
    assert by_regex == by_isspace
