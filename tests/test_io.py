import csv
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqscores import cli
from deqscores.dequantize import dequantize
from deqscores.io import (
    InsufficientReviews,
    ParseError,
    load_reviews,
    prepare_half_scale,
    write_scores,
    write_synthetic,
)
from deqscores.metrics import percentiles
from deqscores.model import ReviewDataset, ScoreScale, ValidationError
from deqscores.synth import SynthConfig, generate

from conftest import (
    by_pair,
    dataset_layout,
    make_dataset,
    ranking_records,
    reviewers_by_paper,
    score_records,
)
from oracles import derive_rankings_reference, layout_reference, load_scores

DATA = Path(__file__).parent / "data"

# frozen output of prepare_half_scale(raw_ten_level.csv, 3, 3, seed=0):
# (reviewer, paper) -> (retained raw value, coarse score)
GOLDEN_PREPARED = {
    ("r0", "paper04"): (2.0, 1), ("r0", "paper05"): (6.0, 3), ("r0", "paper08"): (6.0, 3),
    ("r1", "paper03"): (8.0, 4), ("r1", "paper04"): (9.0, 5), ("r1", "paper09"): (4.0, 2),
    ("r2", "paper02"): (1.0, 1), ("r2", "paper03"): (8.0, 4), ("r2", "paper05"): (7.0, 4),
    ("r3", "paper04"): (4.0, 2), ("r3", "paper07"): (9.0, 5), ("r3", "paper10"): (7.0, 4),
    ("r4", "paper01"): (10.0, 5), ("r4", "paper07"): (8.0, 4), ("r4", "paper08"): (1.0, 1),
    ("r5", "paper01"): (7.0, 4), ("r5", "paper02"): (2.0, 1), ("r5", "paper10"): (8.0, 4),
    ("r6", "paper01"): (7.0, 4), ("r6", "paper03"): (8.0, 4), ("r6", "paper06"): (3.0, 2),
    ("r7", "paper05"): (6.0, 3), ("r7", "paper08"): (5.0, 3), ("r7", "paper09"): (4.0, 2),
    ("r8", "paper02"): (5.0, 3), ("r8", "paper06"): (3.0, 2), ("r8", "paper07"): (10.0, 5),
    ("r9", "paper06"): (4.0, 2), ("r9", "paper09"): (7.0, 4), ("r9", "paper10"): (1.0, 1),
}

RAW_INPUT = {
    "paper01": [10, 7, 7],
    "paper02": [1, 3, 2, 5],
    "paper03": [8, 8, 8, 8],
    "paper04": [2, 9, 4],
    "paper05": [5, 6, 5, 7, 6],
    "paper06": [3, 3, 4],
    "paper07": [9, 10, 8, 10],
    "paper08": [6, 1, 5],
    "paper09": [4, 4, 7, 2],
    "paper10": [7, 5, 3, 8, 1],
}


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadReviews:
    def test_reviews_without_rankings(self, tmp_path):
        path = tmp_path / "reviews.csv"
        write_csv(path, ["reviewer_id", "paper_id", "score"],
                  [("r1", "A", 5), ("r1", "B", 3), ("r2", "A", 4)])
        ds = load_reviews(path)
        assert ds.num_reviews == 3
        assert ranking_records(ds) == []
        assert (ds.scale.lower_bound, ds.scale.upper_bound) == (3, 5)

    def test_duplicate_review_row_names_the_line(self, tmp_path):
        path = tmp_path / "reviews.csv"
        write_csv(path, ["reviewer_id", "paper_id", "score"],
                  [("r1", "A", 5), ("r1", "A", 4)])
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 3

    def test_non_integer_score_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        write_csv(path, ["reviewer_id", "paper_id", "score"], [("r1", "A", "x")])
        with pytest.raises(ParseError):
            load_reviews(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "reviews.csv"
        write_csv(path, ["who", "what", "score"], [("r1", "A", 5)])
        with pytest.raises(ParseError):
            load_reviews(path)

    def test_ranking_over_unreviewed_paper_fails_validation(self, tmp_path):
        reviews = tmp_path / "reviews.csv"
        rankings = tmp_path / "rankings.csv"
        write_csv(reviews, ["reviewer_id", "paper_id", "score"], [("r1", "A", 5)])
        write_csv(rankings, ["reviewer_id", "better_paper_id", "worse_paper_id"],
                  [("r1", "A", "Z")])
        with pytest.raises(ValidationError):
            load_reviews(reviews, rankings)

    def test_explicit_scale_is_enforced(self, tmp_path):
        path = tmp_path / "reviews.csv"
        write_csv(path, ["reviewer_id", "paper_id", "score"], [("r1", "A", 9)])
        with pytest.raises(ValidationError):
            load_reviews(path, scale=(1, 5))


# ids that may hold commas, quotes and line breaks, with nothing for the reader to strip
QUOTED_IDS = st.text(st.sampled_from(list('ab,"\n\r é')), min_size=1, max_size=4).filter(
    lambda text: text == text.strip()
)


@st.composite
def review_records(draw):
    """(scores, ranking rows) in arbitrary order. The last reviewer and the
    last paper score no review, and rows repeat. Rows drawn from the scores
    agree with them; the rest, when drawn, may name unscored pairs or
    contradict the scores."""
    reviewers = draw(st.lists(QUOTED_IDS, min_size=2, max_size=4, unique=True))
    papers = draw(st.lists(QUOTED_IDS, min_size=2, max_size=5, unique=True))
    pair = st.tuples(st.sampled_from(reviewers[:-1]), st.sampled_from(papers[:-1]))
    scores = {p: draw(st.integers(0, 4)) for p in draw(st.lists(pair, min_size=1, unique=True))}
    rows = [(r, b, w) for (r, b), zb in scores.items() for (s, w), zw in scores.items()
            if r == s and zb > zw]
    rows = draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
    if draw(st.booleans()):
        row = st.tuples(*(st.sampled_from(ids) for ids in (reviewers, papers, papers)))
        rows += draw(st.lists(row, max_size=4))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return scores, draw(st.permutations(rows))


def write_records(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\r\n").writerows([header, *rows])


@settings(max_examples=150, deadline=None)
@given(review_records())
def test_loaded_files_match_their_records(records):
    scores, rows = records
    expected = ReviewDataset.from_records(ScoreScale(0, 4), scores, rows)
    with tempfile.TemporaryDirectory() as tmp:
        reviews, rankings = Path(tmp) / "reviews.csv", Path(tmp) / "rankings.csv"
        write_records(reviews, ["reviewer_id", "paper_id", "score"],
                      [(r, p, z) for (r, p), z in scores.items()])
        write_records(rankings, ["reviewer_id", "better_paper_id", "worse_paper_id"], rows)
        if expected.violations:
            with pytest.raises(ValidationError) as err:
                load_reviews(reviews, rankings, scale=(0, 4))
            assert err.value.violations == list(expected.violations)
        else:
            loaded = load_reviews(reviews, rankings, scale=(0, 4))
            assert dataset_layout(loaded) == dataset_layout(expected)
    assert dataset_layout(expected) == layout_reference(scores, rows)


class TestParseErrorOrder:
    """A file's first fault is reported, line by line: duplicate reviews
    are caught as their row is read, not after the file."""

    HEADER = "reviewer_id,paper_id,score\n"
    DUPLICATE = "r1,A,5\nr1,A,4\n"
    # the text layer decodes ahead of the reader in chunks of a few KB: the
    # byte after a duplicate lies in its chunk, or with PADDING a chunk later
    PADDING = "\n" * 20_000

    @pytest.mark.parametrize(
        "body, line, message",
        [
            (DUPLICATE + "r2,B,x\n", 3, "duplicate review ('r1', 'A')"),
            ("r2,B,x\n" + DUPLICATE, 2, "score 'x' is not an integer"),
            (DUPLICATE + "r2,B\n", 3, "duplicate review ('r1', 'A')"),
            ("r2,B\n" + DUPLICATE, 2, "expected 3 fields"),
            (DUPLICATE + "r2,\udcff,3\n", 3, "duplicate review ('r1', 'A')"),
            (DUPLICATE + PADDING + "r2,\udcff,3\n", 3, "duplicate review ('r1', 'A')"),
            ("r2,\udcff,3\n" + DUPLICATE, 2, "not UTF-8 text (invalid start byte)"),
            ("\nr2,\udce9,3\n" + DUPLICATE, 3, "not UTF-8 text (invalid continuation byte)"),
        ],
        ids=[
            "dup-score", "score-dup", "dup-fields", "fields-dup", "dup-byte",
            "dup-padding-byte", "byte-dup", "blank-byte-dup",
        ],
    )
    def test_first_fault_wins(self, tmp_path, body, line, message):
        path = tmp_path / "reviews.csv"
        path.write_bytes((self.HEADER + body).encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert (err.value.line, str(err.value)) == (line, f"{path}:{line}: {message}")


def test_load_peak_memory_stays_small(tmp_path):
    """The tracemalloc peak of loading the P=1500 seed-0 synthetic files
    (6 000 reviews, 9 000 ranking rows) stays under 3 MB. Loading into
    per-review tuple keys, string triples and sets peaked at 5.2 MB;
    interning into int columns peaks at 1.7 MB."""
    instance = generate(SynthConfig(num_papers=1500, seed=0))
    reviews, rankings, _ = write_synthetic(instance, tmp_path / "p1500")
    load_reviews(reviews, rankings)  # imports and lazy set-up first
    tracemalloc.start()
    try:
        load_reviews(reviews, rankings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


class TestCsvRobustness:
    """Each malformed-file probe ends in a ``ParseError`` naming the line,
    which the CLI reports as one ``error:`` line with exit 2."""

    HEADER = "reviewer_id,paper_id,score\n"

    @staticmethod
    def _cli_validate(path, capsys):
        status = cli.main(["validate", "--reviews", str(path)])
        return status, capsys.readouterr().err.splitlines()

    def test_excel_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (self.HEADER + "r1,A,5\nr1,B,3\n").encode())
        ds = load_reviews(path)
        assert score_records(ds) == {("r1", "A"): 5, ("r1", "B"): 3}

    def test_unterminated_quote_at_end_of_file_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "reviews.csv"
        path.write_text(self.HEADER + 'r1,A,5\nr1,B,"3\n')
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 3
        assert self._cli_validate(path, capsys) == (
            cli.EXIT_VALIDATION, [f"error: {path}:3: unexpected end of data"]
        )

    def test_field_over_the_size_limit_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "reviews.csv"
        path.write_text(self.HEADER + "r1,A,5\n" + "r1," + "B" * 140_000 + ",3\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 3
        status, errors = self._cli_validate(path, capsys)
        assert status == cli.EXIT_VALIDATION
        assert len(errors) == 1 and errors[0].startswith(f"error: {path}:3: field larger")

    @pytest.mark.parametrize("score", [2**63, -(2**63) - 1, 99999999999999999999999])
    def test_score_beyond_int64_is_a_parse_error(self, tmp_path, capsys, score):
        path = tmp_path / "reviews.csv"
        path.write_text(self.HEADER + f"r1,A,5\nr1,B,{score}\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 3
        out = tmp_path / "out.csv"
        status = cli.main(["dequantize", "--reviews", str(path), "--lambda", "1",
                           "--output", str(out)])
        assert (status, capsys.readouterr().err.splitlines()) == (
            cli.EXIT_VALIDATION, [f"error: {path}:3: score '{score}' does not fit int64"]
        )
        assert not out.exists()

    def test_line_breaks_in_an_error_print_escaped(self, tmp_path, capsys):
        # a quoted id may hold line breaks; the error stays one line
        path = tmp_path / "reviews.csv"
        path.write_text(self.HEADER + '"two\nlines",A,5\n"two\nlines",A,4\n', newline="")
        assert self._cli_validate(path, capsys) == (
            cli.EXIT_VALIDATION, [f"error: {path}:4: duplicate review ('two\\nlines', 'A')"]
        )

    def test_int64_bounds_load_exactly(self, tmp_path):
        path = tmp_path / "reviews.csv"
        path.write_text(self.HEADER + f"r1,A,{2**63 - 1}\nr1,B,{-(2**63)}\n")
        assert score_records(load_reviews(path)) == {("r1", "A"): 2**63 - 1, ("r1", "B"): -(2**63)}

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "reviews.csv"
        path.write_bytes((self.HEADER + "r1,A,5\n").encode() + b"r1,\xff\xfeB,3\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 3
        assert self._cli_validate(path, capsys) == (
            cli.EXIT_VALIDATION, [f"error: {path}:3: not UTF-8 text (invalid start byte)"]
        )

    def test_undecodable_header_is_a_parse_error_on_line_1(self, tmp_path, capsys):
        path = tmp_path / "reviews.csv"
        path.write_bytes(b"reviewer_id,\xffpaper_id,score\nr1,A,5\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path)
        assert err.value.line == 1
        assert self._cli_validate(path, capsys) == (
            cli.EXIT_VALIDATION, [f"error: {path}:1: not UTF-8 text (invalid start byte)"]
        )


class TestWriteScores:
    def test_rows_sorted_per_paper_best_first(self, tmp_path):
        instance = generate(SynthConfig(num_papers=6, reviews_per_paper=2,
                                        papers_per_reviewer=2, seed=4))
        scores = dequantize(instance.dataset, lam=2.0).values
        out = tmp_path / "out.csv"
        write_scores(scores, instance.dataset, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "reviewer_id,paper_id,quantized_score,dequantized_score,percentile"
        papers = [line.split(",")[1] for line in lines[1:]]
        assert papers == sorted(papers)
        values_by_paper: dict = {}
        for line in lines[1:]:
            _, paper, _, value, _ = line.split(",")
            values_by_paper.setdefault(paper, []).append(float(value))
        for vals in values_by_paper.values():
            assert vals == sorted(vals, reverse=True)

    def test_rewrite_is_byte_identical(self, tmp_path):
        instance = generate(SynthConfig(num_papers=6, reviews_per_paper=2,
                                        papers_per_reviewer=2, seed=4))
        scores = dequantize(instance.dataset, lam=2.0).values
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_scores(scores, instance.dataset, first)
        write_scores(scores, instance.dataset, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_twelve_digits(self, tmp_path):
        instance = generate(SynthConfig(num_papers=6, reviews_per_paper=2,
                                        papers_per_reviewer=2, seed=4))
        scores = dequantize(instance.dataset, lam=2.0).values
        out = tmp_path / "out.csv"
        write_scores(scores, instance.dataset, out)
        reloaded = load_scores(out)
        for pair, value in by_pair(instance.dataset, scores).items():
            assert reloaded[pair] == pytest.approx(value, rel=1e-11, abs=1e-11)

    def test_ids_holding_line_breaks_or_quotes_round_trip(self, tmp_path):
        # a bare carriage return in an id must be quoted like a line feed,
        # or the row splits in two
        scores = {("r\r1", "x\rx"): 3, ("r2", 'a "b", c'): 4, ("r2", "x\rx"): 5}
        dataset = make_dataset(scores, scale=(1, 5))
        out = tmp_path / "out.csv"
        write_scores(dataset.scores.astype(float), dataset, out)
        assert load_scores(out) == {pair: float(z) for pair, z in scores.items()}
        assert b'"r\r1","x\rx",3,3,' in out.read_bytes()

    def test_percentile_column_delegates_to_metrics(self, tmp_path):
        instance = generate(SynthConfig(num_papers=6, reviews_per_paper=2,
                                        papers_per_reviewer=2, seed=4))
        scores = dequantize(instance.dataset, lam=2.0).values
        out = tmp_path / "out.csv"
        write_scores(scores, instance.dataset, out)
        pairs = instance.dataset.pairs()
        printed = [float(format(value, ".12g")) for value in scores.tolist()]
        expected = dict(zip(pairs, percentiles(printed)))
        for line in out.read_text().splitlines()[1:]:
            reviewer, paper, _, _, pct = line.split(",")
            assert float(pct) == pytest.approx(expected[(reviewer, paper)], rel=1e-11)

    def test_equal_printed_scores_share_one_percentile(self, tmp_path):
        # values one ulp apart print alike, so they must rank alike and
        # order by reviewer within their paper
        scores = {("r1", "A"): 1, ("r2", "A"): 1, ("r3", "A"): 1, ("r1", "B"): 2}
        above = float(np.nextafter(1.125, 2.0))
        output = {("r1", "A"): 1.125, ("r2", "A"): above, ("r3", "A"): 1.0, ("r1", "B"): 2.0}
        dataset = make_dataset(scores, scale=(1, 2))
        out = tmp_path / "out.csv"
        write_scores([output[pair] for pair in dataset.pairs()], dataset, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r, p, y) for r, p, _, y, _ in rows] == [
            ("r1", "A", "1.125"), ("r2", "A", "1.125"), ("r3", "A", "1"), ("r1", "B", "2"),
        ]
        pct = {(r, p): float(q) for r, p, _, _, q in rows}
        assert pct[("r1", "A")] == pct[("r2", "A")] == 50.0


class TestPrepareHalfScale:
    def test_golden_preparation(self):
        ds, truth = prepare_half_scale(
            DATA / "raw_ten_level.csv", reviews_per_paper=3, papers_per_reviewer=3, seed=0
        )
        # the truth is the fine scores as floats, aligned with the reviews
        assert truth.dtype == float and truth.shape == (ds.num_reviews,)
        truth, scores = by_pair(ds, truth), score_records(ds)
        assert {k: (truth[k], scores[k]) for k in truth} == GOLDEN_PREPARED

    def test_half_scale_map_per_row(self):
        ds, truth = prepare_half_scale(DATA / "raw_ten_level.csv", seed=0)
        truth = by_pair(ds, truth)
        scores = score_records(ds)
        for pair, y in truth.items():
            assert scores[pair] == math.ceil(y / 2.0)
            assert 1 <= scores[pair] <= 5

    def test_exactly_three_reviews_retained_from_input(self):
        ds, truth = prepare_half_scale(DATA / "raw_ten_level.csv", seed=0)
        truth = by_pair(ds, truth)
        for paper, reviewers in reviewers_by_paper(ds).items():
            assert len(reviewers) == 3
            kept = sorted(truth[(r, paper)] for r in reviewers)
            available = sorted(RAW_INPUT[paper])
            for value in kept:
                available.remove(value)  # retained values are a sub-multiset

    def test_papers_with_exactly_three_reviews_keep_all(self):
        ds, truth = prepare_half_scale(DATA / "raw_ten_level.csv", seed=0)
        truth = by_pair(ds, truth)
        for paper in ("paper01", "paper04", "paper06", "paper08"):
            kept = sorted(truth[(r, paper)] for r in reviewers_by_paper(ds)[paper])
            assert kept == sorted(float(v) for v in RAW_INPUT[paper])

    def test_rankings_re_derived_from_raw_values(self):
        ds, truth = prepare_half_scale(DATA / "raw_ten_level.csv", seed=0)
        truth = by_pair(ds, truth)
        assert ranking_records(ds) == derive_rankings_reference(truth)

    def test_within_bin_pairs_survive(self):
        # raw 7 vs 8 quantize to the same coarse score but stay ranked
        ds, truth = prepare_half_scale(DATA / "raw_ten_level.csv", seed=0)
        truth = by_pair(ds, truth)
        found = False
        scores = score_records(ds)
        for r, better, worse in ranking_records(ds):
            if scores[(r, better)] == scores[(r, worse)]:
                assert truth[(r, better)] > truth[(r, worse)]
                found = True
        assert found

    def test_deterministic_per_seed(self):
        a = prepare_half_scale(DATA / "raw_ten_level.csv", seed=3)
        b = prepare_half_scale(DATA / "raw_ten_level.csv", seed=3)
        assert score_records(a[0]) == score_records(b[0]) and np.array_equal(a[1], b[1])

    def test_insufficient_reviews_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_csv(path, ["paper_id", "score"], [("p1", 5), ("p1", 6), ("p2", 7)])
        with pytest.raises(InsufficientReviews):
            prepare_half_scale(path, reviews_per_paper=3, papers_per_reviewer=1)

    @pytest.mark.parametrize(
        "loads, message",
        [
            ({"reviews_per_paper": 0}, "reviews_per_paper must be at least 1, got 0"),
            ({"papers_per_reviewer": -1}, "papers_per_reviewer must be at least 1, got -1"),
        ],
    )
    def test_load_below_one_rejected(self, loads, message):
        with pytest.raises(ValueError, match=message):
            prepare_half_scale(DATA / "raw_ten_level.csv", **loads)

    def test_out_of_range_raw_score_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_csv(path, ["paper_id", "score"], [("p1", 11)])
        with pytest.raises(ParseError):
            prepare_half_scale(path)


class TestWriteSynthetic:
    def test_round_trip_through_loader(self, tmp_path):
        instance = generate(SynthConfig(num_papers=6, reviews_per_paper=2,
                                        papers_per_reviewer=2, seed=19))
        reviews, rankings, _ = write_synthetic(instance, tmp_path / "demo")
        ds = load_reviews(reviews, rankings, scale=(0, 10))
        assert score_records(ds) == score_records(instance.dataset)
        assert ranking_records(ds) == ranking_records(instance.dataset)
