"""Span-level error evaluation and error-informed refinement for long-form QA.

The package is organized around a line-delimited corpus of questions with
candidate answers, span-level error annotations, and preference judgments:

- ``models``      data types shared across the toolkit
- ``segment``     deterministic sentence segmentation with character offsets
- ``corpus``      corpus loading, validation, span projection, granularity
- ``scoring``     per-aspect answer scores, domain reports, Krippendorff alpha
- ``genclient``   HTTP chat-completion backend + scripted record/replay backend
- ``transport``   the HTTP/1.1 connections of genclient's http backend
- ``feedback``    sentence-completeness feedback prompts, parsing, consistency
                  selection over sampled outputs
- ``refine``      answer refinement prompts and the feedback-then-refine pipeline
- ``evalmetrics`` detection/correction metrics and sample-consistency aggregation
- ``cli``         command-line front end (``lfqa-eval``)
"""

__version__ = "0.1.0"
