"""CSV ingestion and serialization, plus coarse-scale preprocessing of raw
ten-level review files.

Formats (UTF-8, an Excel byte-order mark allowed, strict CSV quoting, header
row required, '.' decimal separator):

    reviews.csv   reviewer_id,paper_id,score
    rankings.csv  reviewer_id,better_paper_id,worse_paper_id
    raw scores    paper_id,score            (for ``prepare_half_scale``)
    output.csv    reviewer_id,paper_id,quantized_score,dequantized_score,percentile
"""

from __future__ import annotations

import csv
import re
from array import array
from pathlib import Path

import numpy as np

from .metrics import percentiles
from .model import ReviewDataset, ScoreScale, require_valid

REPORT_VERSION = 2  # of experiment and CLI reports alike


class ParseError(Exception):
    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class InsufficientReviews(ValueError):
    pass


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # an undecodable byte, as "surrogateescape" reads it


def _read_rows(path, expected_header: list[str]):
    """Yield (line number, stripped fields) of every non-blank data row.

    The file is UTF-8, with or without the byte-order mark Excel writes, and
    quoting is strict. A header mismatch, a wrong field count, text that is
    not UTF-8 and anything the CSV reader rejects (an unterminated quote, a
    field over its size limit) raise ``ParseError`` with the line.
    """
    # undecodable bytes are escaped, not raised: the text layer decodes ahead
    # of the reader, and each row's own check keeps the faults in line order
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle, strict=True)
        end = 0
        try:
            for row in reader:  # a quoted field may span lines: a row's first counts
                line_no, end = end + 1, reader.line_num
                text = "".join(row)
                if not text.isascii() and _ESCAPED_BYTE.search(text):
                    line, reason = _undecodable_line(path)
                    raise ParseError(path, line, f"not UTF-8 text ({reason})")
                if line_no == 1:
                    if [h.strip() for h in row] != expected_header:
                        raise ParseError(path, 1, f"expected header {','.join(expected_header)}")
                elif text.strip():
                    if len(row) != len(expected_header):
                        raise ParseError(path, line_no, f"expected {len(expected_header)} fields")
                    yield line_no, [cell.strip() for cell in row]
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, str(exc)) from None
        if not end:
            raise ParseError(path, 1, "empty file")


def _undecodable_line(path) -> tuple[int, str]:
    """The line of the first byte of ``path`` that is not UTF-8, and why it
    is not (a quoted field may span lines, so it can differ from the row's)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1, exc.reason
    return 1, "the file changed while it was read"


def load_reviews(
    reviews_path,
    rankings_path=None,
    scale: tuple[int, int] | None = None,
) -> ReviewDataset:
    """Parse reviews (and optional rankings) into a validated dataset.

    Without an explicit ``scale`` the bounds are inferred as the min/max
    observed score (widened by one when all scores coincide). Parse problems,
    a score that does not fit int64 among them, raise ``ParseError`` with the
    offending line; a dataset violating the model invariants raises
    ``ValidationError`` listing every violation.
    """
    reviewer_ids: dict[str, int] = {}
    paper_ids: dict[str, int] = {}
    reviews = array("q"), array("q"), array("q")  # reviewer, paper, score
    seen: set[int] = set()  # reviewer << 32 | paper of each review
    for line_no, (reviewer, paper, score_text) in _read_rows(
        reviews_path, ["reviewer_id", "paper_id", "score"]
    ):
        try:
            score = int(score_text)
        except ValueError:
            raise ParseError(reviews_path, line_no, f"score {score_text!r} is not an integer")
        if not -(2**63) <= score < 2**63:
            raise ParseError(reviews_path, line_no, f"score {score_text!r} does not fit int64")
        r = reviewer_ids.setdefault(reviewer, len(reviewer_ids))
        p = paper_ids.setdefault(paper, len(paper_ids))
        key = r << 32 | p
        if key in seen:
            raise ParseError(reviews_path, line_no, f"duplicate review ({reviewer!r}, {paper!r})")
        seen.add(key)
        reviews[0].append(r)
        reviews[1].append(p)
        reviews[2].append(score)
    del seen  # freed before the columns are sorted, which sets the peak

    rows = array("q"), array("q"), array("q")  # ranked_by, better, worse
    if rankings_path is not None:
        header = ["reviewer_id", "better_paper_id", "worse_paper_id"]
        for _, (reviewer, better, worse) in _read_rows(rankings_path, header):
            rows[0].append(reviewer_ids.setdefault(reviewer, len(reviewer_ids)))
            rows[1].append(paper_ids.setdefault(better, len(paper_ids)))
            rows[2].append(paper_ids.setdefault(worse, len(paper_ids)))

    if not reviews[2]:
        raise ParseError(reviews_path, 2, "no reviews")
    if scale is None:
        lo, hi = min(reviews[2]), max(reviews[2])
        scale = (lo, hi if hi > lo else lo + 1)

    dataset = ReviewDataset.from_columns(
        ScoreScale(*scale), list(reviewer_ids), list(paper_ids), *reviews, *rows
    )
    require_valid(dataset)
    return dataset


class _LineFeedRows:
    """Where a ``csv.writer`` with the line terminator "\r\n" writes its
    rows (one ``write`` per row): each goes to ``handle`` ending in "\n"
    instead. The writer quotes a field holding a line-break character only
    when that character is in its terminator, so with "\n" alone a field
    holding "\r" would be written bare and split its row."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, row: str) -> int:
        return self._handle.write(row[:-2] + "\n")


def _csv_writer(handle):
    """A CSV writer of rows ending in "\n" that quotes every field holding a
    comma, a quote, "\r" or "\n"."""
    return csv.writer(_LineFeedRows(handle), lineterminator="\r\n")


def write_scores(values, dataset: ReviewDataset, path) -> None:
    """Write per-review output rows, one paper block at a time, best first.

    ``values`` holds one output score per review, aligned with the dataset's
    reviews. Floats are printed with 12 significant digits, so rewriting the
    same result is byte-identical and a reload preserves values. Rows are
    sorted by (paper_id, printed score descending, reviewer_id) and
    percentiles are ranks of the printed scores, so reviews that print the
    same score share one percentile and order by reviewer.
    """
    pairs = dataset.pairs()
    text = [format(y, ".12g") for y in np.asarray(values, dtype=float).tolist()]
    printed = np.array([float(t) for t in text])
    pct = [format(p, ".12g") for p in percentiles(printed).tolist()]
    order = np.lexsort((dataset.reviewer, -printed, dataset.paper)).tolist()
    quantized = dataset.scores.tolist()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv_writer(handle)
        writer.writerow(
            ["reviewer_id", "paper_id", "quantized_score", "dequantized_score", "percentile"]
        )
        writer.writerows((*pairs[i], quantized[i], text[i], pct[i]) for i in order)


def prepare_half_scale(
    raw_path,
    reviews_per_paper: int = 3,
    papers_per_reviewer: int = 3,
    seed: int = 0,
) -> tuple[ReviewDataset, np.ndarray]:
    """Preprocess a raw ten-level score file into a coarse five-level dataset.

    Per paper, exactly ``reviews_per_paper`` reviews are retained (surplus
    dropped uniformly at random, seeded). Because raw files carry no reviewer
    identities, a random regular assignment at the requested
    ``papers_per_reviewer`` load is synthesized over the retained reviews.
    The retained raw values form a ten-level dataset, which ``coarsen``
    turns into the five-level one (scores ceil(y/2), rankings derived from
    the raw values by strict comparison); the raw values are returned as
    evaluation truth, floats aligned with the dataset's reviews.
    """
    # imported here, so that a command reading or writing score CSVs loads
    # neither the validation nor the synthesis module
    from .qv import coarsen
    from .synth import random_regular_assignment, require_counts

    require_counts(reviews_per_paper=reviews_per_paper, papers_per_reviewer=papers_per_reviewer)
    raw_by_paper: dict[str, list[int]] = {}
    for line_no, (paper, score_text) in _read_rows(raw_path, ["paper_id", "score"]):
        try:
            score = int(score_text)
        except ValueError:
            raise ParseError(raw_path, line_no, f"score {score_text!r} is not an integer")
        if not 1 <= score <= 10:
            raise ParseError(raw_path, line_no, f"raw score {score} outside 1..10")
        raw_by_paper.setdefault(paper, []).append(score)

    short = sorted(p for p, v in raw_by_paper.items() if len(v) < reviews_per_paper)
    if short:
        raise InsufficientReviews(
            f"{len(short)} paper(s) have fewer than {reviews_per_paper} reviews "
            f"(first: {short[0]!r})"
        )

    papers = sorted(raw_by_paper)
    total = len(papers) * reviews_per_paper
    if total % papers_per_reviewer:
        raise ValueError(
            f"{len(papers)} papers x {reviews_per_paper} reviews is not divisible by "
            f"a reviewer load of {papers_per_reviewer}"
        )
    num_reviewers = total // papers_per_reviewer

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    retained: dict[str, list[int]] = {}
    for paper in papers:
        values = raw_by_paper[paper]
        keep = rng.choice(len(values), size=reviews_per_paper, replace=False)
        retained[paper] = [values[i] for i in sorted(keep)]

    pairs = random_regular_assignment(
        len(papers),
        num_reviewers,
        papers_per_reviewer,
        reviews_per_paper,
        rng,
        paper_ids=papers,
    )
    # each paper's reviewers, in id order, take its retained values in order
    by_paper = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
    values = [value for paper in papers for value in retained[paper]]
    fine = ReviewDataset.from_records(ScoreScale(1, 10), dict(zip(by_paper, values)))
    return coarsen(fine), fine.scores.astype(float)


def write_synthetic(instance, prefix) -> tuple[Path, Path, Path]:
    """Write a generated instance as reviews/rankings/truth CSV files."""
    prefix = Path(prefix)
    reviews_path = prefix.with_name(prefix.name + "_reviews.csv")
    rankings_path = prefix.with_name(prefix.name + "_rankings.csv")
    truth_path = prefix.with_name(prefix.name + "_truth.csv")
    dataset = instance.dataset
    with open(reviews_path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv_writer(handle)
        writer.writerow(["reviewer_id", "paper_id", "score"])
        writer.writerows((*pair, z) for pair, z in zip(dataset.pairs(), dataset.scores.tolist()))
    with open(rankings_path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv_writer(handle)
        writer.writerow(["reviewer_id", "better_paper_id", "worse_paper_id"])
        reviewers, papers = dataset.reviewer_ids, dataset.paper_ids
        writer.writerows(
            zip(reviewers[dataset.ranked_by], papers[dataset.better], papers[dataset.worse])
        )
    with open(truth_path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv_writer(handle)
        writer.writerow(["reviewer_id", "paper_id", "true_value"])
        writer.writerows(
            (*pair, format(y, ".12g"))
            for pair, y in zip(dataset.pairs(), instance.truth_y.tolist())
        )
    return reviews_path, rankings_path, truth_path
