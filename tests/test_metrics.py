import math
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from deqscores import metrics
from deqscores.metrics import (
    TIE_TOLERANCE,
    AllTiedError,
    EmptyStatisticsError,
    kendall_tau_error,
    kendall_tau_errors,
    l2_error,
    percentiles,
    project_to_original_scale,
    tie_fraction,
    trial_statistics,
)
from oracles import pairwise_kendall_tau_error, pairwise_tie_fraction

TRUTH_LEVELS = st.integers(0, 3).map(float)
# k * TIE_TOLERANCE / 2: many exact ties, and differences of TIE_TOLERANCE
# that round to either side of it
HALF_STEPS = st.integers(0, 8).map(lambda k: k * TIE_TOLERANCE / 2)


def _nudge(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps up (positive) or down (negative)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


# x next to x + TIE_TOLERANCE +- k ulp, k <= 3: the pairs the rounded
# difference decides. Across zero (x in -1e-4 .. -7.5e-5) a sum that rounds
# down can sit one ulp above a value whose difference already rounds up to
# the tolerance.
ULP_ADJACENT = st.builds(
    lambda x, shift, steps: _nudge(x + shift * TIE_TOLERANCE, steps),
    st.sampled_from([0.0, 1.0, -0.3, 2.5, 3.7, 9.25, 1234.5678, -7.5e-5, -1e-4, -1.25e-4]),
    st.integers(0, 1),
    st.integers(-3, 3),
)


def _rows(values):
    return st.lists(st.tuples(TRUTH_LEVELS, values), min_size=2, max_size=60).filter(
        lambda rows: len({t for t, _ in rows}) > 1
    )


def _columns(rows):
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


class TestKendall:
    def test_identical_vectors_score_zero(self):
        assert kendall_tau_error([1, 2, 3], [1, 2, 3]) == 0.0

    def test_full_reversal_scores_one(self):
        assert kendall_tau_error([1, 2, 3], [-1, -2, -3]) == 1.0

    def test_one_swap_out_of_three(self):
        assert kendall_tau_error([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_all_tied_estimate_scores_half(self):
        assert kendall_tau_error([1, 2, 3, 4], [7, 7, 7, 7]) == 0.5

    def test_truth_ties_are_omitted(self):
        # only (0, 2) and (1, 2) are truth-ordered; one is reversed
        assert kendall_tau_error([5, 5, 3], [1, 2, 1.5]) == pytest.approx(0.5)

    def test_truth_ties_are_exact(self):
        # truth values 1e-13 apart are ordered, not tied
        assert kendall_tau_error([0.0, 1e-13], [0.0, 1.0]) == 0.0
        assert kendall_tau_error([0.0, 1e-13], [1.0, 0.0]) == 1.0

    def test_near_ties_below_tolerance_count_half(self):
        assert kendall_tau_error([1, 2], [5.0, 5.0 + 5e-5]) == 0.5

    def test_all_tied_truth_raises(self):
        with pytest.raises(AllTiedError):
            kendall_tau_error([2, 2], [1, 3])

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_error([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            l2_error([1, 2], [1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=40, unique=True))
    def test_invariant_under_increasing_transform(self, truth):
        rng = np.random.default_rng(0)
        estimate = list(rng.permutation(truth))
        base = kendall_tau_error(truth, estimate)
        stretched = kendall_tau_error(
            [math.exp(t / 10.0) for t in truth], [e**3 for e in estimate]
        )
        assert stretched == pytest.approx(base, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 4).map(lambda v: v / 8.0)),
            min_size=2,
            max_size=40,
        ).filter(lambda rows: len({t for t, _ in rows}) > 1),
        st.randoms(use_true_random=False),
    )
    def test_invariant_under_common_permutation(self, rows, random):
        truth, estimate = (np.array(col, dtype=float) for col in zip(*rows))
        order = np.array(random.sample(range(len(rows)), len(rows)))
        assert kendall_tau_error(truth[order], estimate[order]) == kendall_tau_error(truth, estimate)


    def test_non_finite_inputs_rejected(self):
        # NaN compares False with everything, so it would score a perfect 0
        with pytest.raises(ValueError, match="estimate contains non-finite"):
            kendall_tau_error([1, 2, 3], [math.nan] * 3)
        with pytest.raises(ValueError, match="truth contains non-finite"):
            kendall_tau_error([1, math.inf, 3], [1, 2, 3])
        with pytest.raises(ValueError, match="non-finite"):
            l2_error([1, 2], [1, math.nan])


class TestKendallMatchesPairwiseOracle:
    """The sort-based kernel against the direct pairwise rule, with ``==``."""

    @pytest.mark.parametrize(
        "low, high, tied",
        [
            # a search for 0.2 + tol lands on it, yet its difference from 0.2
            # rounds below tol: the boundary must step up
            (0.2, 0.2 + TIE_TOLERANCE, True),
            # a search for x + tol lands above this value, yet its difference
            # from x rounds up to tol: the boundary must step down
            (-7.5e-5, math.nextafter(-7.5e-5 + TIE_TOLERANCE, -math.inf), False),
        ],
        ids=["sum-rounds-up", "difference-rounds-up"],
    )
    def test_boundary_pair_follows_rounded_difference(self, low, high, tied):
        assert (high - low < TIE_TOLERANCE) is tied
        assert kendall_tau_error([0.0, 1.0], [low, high]) == (0.5 if tied else 0.0)
        assert tie_fraction([low, high]) == (1.0 if tied else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(_rows(HALF_STEPS))
    def test_tie_heavy(self, rows):
        truth, estimate = _columns(rows)
        assert kendall_tau_error(truth, estimate) == pairwise_kendall_tau_error(truth, estimate)

    @settings(max_examples=300, deadline=None)
    @given(_rows(ULP_ADJACENT))
    def test_ulp_adjacent(self, rows):
        truth, estimate = _columns(rows)
        assert kendall_tau_error(truth, estimate) == pairwise_kendall_tau_error(truth, estimate)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_subnormal=False),
                st.floats(-10, 10, allow_subnormal=False),
            ),
            min_size=2,
            max_size=60,
            unique_by=lambda row: row[0],
        )
    )
    def test_all_distinct_real_truth(self, rows):
        truth, estimate = _columns(rows)
        assert kendall_tau_error(truth, estimate) == pairwise_kendall_tau_error(truth, estimate)

    def test_validation_sized_spot_check(self):
        # n = 2 400, the review count of a P=600 instance, with ten truth
        # levels and estimates on a 1e-4 grid so ties and near ties abound
        rng = np.random.default_rng(2400)
        truth = rng.integers(1, 11, 2400).astype(float)
        estimate = np.round(truth / 2 + rng.normal(scale=0.3, size=2400), 4)
        assert kendall_tau_error(truth, estimate) == pairwise_kendall_tau_error(truth, estimate)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=2, max_size=40
        ).filter(lambda rows: len({t for t, _ in rows}) > 1 and len({e for _, e in rows}) > 1)
    )
    def test_matches_scipy_at_exact_ties(self, rows):
        # integer estimates tie only when equal, so TIE_TOLERANCE is not in
        # play; scipy's tau-b gives concordant minus discordant pairs, and
        # error = (ordered - (concordant - discordant)) / (2 ordered)
        truth, estimate = _columns(rows)

        def untied_pairs(values):
            _, counts = np.unique(values, return_counts=True)
            n = len(values)
            return n * (n - 1) // 2 - int((counts * (counts - 1) // 2).sum())

        ordered = untied_pairs(truth)
        tau_b = scipy.stats.kendalltau(truth, estimate).statistic
        surplus = tau_b * math.sqrt(ordered * untied_pairs(estimate))
        assert surplus == pytest.approx(round(surplus), abs=1e-6)
        expected = (ordered - round(surplus)) / (2 * ordered)
        assert kendall_tau_error(truth, estimate) == expected


def _batches(n: int):
    """Truth levels for n reviews and a list of estimate vectors for them:
    fresh rows, copies of earlier rows and constant rows, drawn from values
    that tie, values within a few ulps of TIE_TOLERANCE apart, and reals."""
    values = st.one_of(HALF_STEPS, ULP_ADJACENT, st.floats(-10, 10, allow_subnormal=False))
    fresh = st.lists(values, min_size=n, max_size=n)
    constant = values.map(lambda v: [v] * n)
    return st.tuples(
        st.lists(TRUTH_LEVELS, min_size=n, max_size=n).filter(lambda t: len(set(t)) > 1),
        st.lists(st.one_of(fresh, constant, st.integers(0, 7)), min_size=1, max_size=8),
    ).map(lambda drawn: (drawn[0], _resolve_copies(drawn[1])))


def _resolve_copies(rows):
    """Rows as drawn, an integer standing for a copy of an earlier row."""
    resolved = []
    for row in rows:
        if isinstance(row, int):
            row = resolved[row % len(resolved)] if resolved else None
        if row is not None:
            resolved.append(list(row))
    return resolved


class TestKendallBatch:
    """``kendall_tau_errors`` against the direct pairwise rule, row by row,
    with ``==``: in one batch, and split into batches of one or two rows."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60).flatmap(_batches))
    def test_every_row_matches_pairwise_oracle(self, drawn):
        truth, rows = drawn
        if not rows:
            rows = [truth]
        expected = [pairwise_kendall_tau_error(truth, row) for row in rows]
        assert kendall_tau_errors(truth, rows).tolist() == expected
        assert kendall_tau_errors(truth, np.array(rows)).tolist() == expected
        size = 1 << (len(truth) - 1).bit_length()
        for per_batch in (1, 2):
            with mock.patch.object(metrics, "_BATCH_ENTRIES", per_batch * size):
                assert kendall_tau_errors(truth, rows).tolist() == expected
        assert [kendall_tau_error(truth, row) for row in rows] == expected

    @pytest.mark.parametrize("low, high, tied", [
        (0.2, 0.2 + TIE_TOLERANCE, True),
        (-7.5e-5, math.nextafter(-7.5e-5 + TIE_TOLERANCE, -math.inf), False),
    ])
    def test_boundary_pair_in_a_batch(self, low, high, tied):
        # the boundary pair next to rows that need no boundary step
        rows = [[low, high], [high, low], [0.0, 1.0], [low, high]]
        expected = [0.5, 0.5, 0.0, 0.5] if tied else [0.0, 1.0, 0.0, 0.0]
        assert kendall_tau_errors([0.0, 1.0], rows).tolist() == expected

    def test_single_and_constant_rows(self):
        truth = [3.0, 1.0, 2.0, 2.0]
        assert kendall_tau_errors(truth, [[7.0] * 4]).tolist() == [0.5]
        assert kendall_tau_errors(truth, [[0.0] * 4, truth, [0.0] * 4]).tolist() == [0.5, 0.0, 0.5]

    def test_no_rows(self):
        assert kendall_tau_errors([1.0, 2.0], []).shape == (0,)

    def test_all_tied_truth_raises(self):
        with pytest.raises(AllTiedError):
            kendall_tau_errors([2.0, 2.0, 2.0], [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        with pytest.raises(AllTiedError):
            kendall_tau_errors([4.0], [[1.0]])

    def test_misaligned_or_non_finite_row_raises(self):
        with pytest.raises(ValueError, match="aligned 1-D"):
            kendall_tau_errors([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="estimate contains non-finite"):
            kendall_tau_errors([1.0, 2.0], [[1.0, 2.0], [math.nan, 1.0]])

    def test_long_vectors_are_batched_one_at_a_time(self):
        # n = 12 000, a P=3000 review count: one vector per batch, each equal
        # to its own call
        rng = np.random.default_rng(12000)
        truth = rng.integers(1, 11, 12000).astype(float)
        rows = [np.round(truth / 2 + rng.normal(scale=s, size=12000), 4) for s in (0.2, 0.5, 1.0)]
        batched = kendall_tau_errors(truth, rows).tolist()
        assert batched == [kendall_tau_error(truth, row) for row in rows]


class TestL2:
    def test_identical_vectors(self):
        assert l2_error([1, 2], [1, 2]) == 0.0

    def test_three_four_five(self):
        assert l2_error([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_computes_on_projected_integers(self):
        coarse = [1.2, 1.5, 1.0]
        projected = [float(project_to_original_scale(v)) for v in coarse]
        assert projected == [2.0, 3.0, 2.0]
        assert l2_error([2, 3, 2], projected) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
            min_size=1,
            max_size=10,
        )
    )
    def test_triangle_inequality(self, rows):
        a, b, c = (list(col) for col in zip(*rows))
        ab = l2_error(a, b)
        bc = l2_error(b, c)
        ac = l2_error(a, c)
        assert ac <= ab + bc + 1e-9


class TestProjection:
    def test_interval_examples(self):
        assert project_to_original_scale(1.2) == 2
        assert project_to_original_scale(1.5) == 3
        assert project_to_original_scale(1.0) == 2

    def test_vectorized(self):
        out = project_to_original_scale(np.array([1.2, 1.5, 4.9]))
        assert list(out) == [2, 3, 9]


class TestTieFraction:
    def test_all_distinct(self):
        assert tie_fraction([1.0, 2.0, 3.0]) == 0.0

    def test_all_equal(self):
        assert tie_fraction([1.0, 1.0, 1.0]) == 1.0

    def test_threshold_is_strict(self):
        assert TIE_TOLERANCE == 1e-4
        assert tie_fraction([0.0, 1e-4]) == 0.0
        assert tie_fraction([0.0, 9e-5]) == 1.0

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="values contains non-finite"):
            tie_fraction([math.nan, math.nan])
        with pytest.raises(ValueError, match="non-finite"):
            tie_fraction([1.0, -math.inf])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(HALF_STEPS, ULP_ADJACENT), max_size=60))
    def test_matches_pairwise_oracle(self, values):
        assert tie_fraction(values) == pairwise_tie_fraction(values)

    def test_large_spot_check(self):
        values = np.round(np.random.default_rng(7).normal(size=2400), 4)
        assert tie_fraction(values) == pairwise_tie_fraction(values)


class TestPercentiles:
    def test_four_distinct_values(self):
        out = percentiles([10.0, 20.0, 30.0, 40.0])
        assert out.tolist() == [12.5, 37.5, 62.5, 87.5]

    def test_all_equal_is_fifty(self):
        out = percentiles([3.0, 3.0, 3.0])
        assert out.tolist() == [50.0, 50.0, 50.0]

    def test_max_gets_highest(self):
        out = percentiles([1.0, 9.0, 4.0])
        assert int(np.argmax(out)) == 1

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], [1.0, float("nan")], [float("inf")]])
    def test_non_vector_or_non_finite_rejected(self, values):
        with pytest.raises(ValueError):
            percentiles(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 5).map(lambda v: v / 3.0), min_size=1, max_size=40))
    def test_matches_scipy_average_ranks_exactly(self, values):
        ranks = scipy.stats.rankdata(values, method="average")
        expected = 100.0 * (ranks - 0.5) / len(values)
        assert percentiles(values).tolist() == list(expected)


class TestTrialStatistics:
    def test_equal_values_have_zero_sem(self):
        assert trial_statistics([0.1, 0.1]) == (pytest.approx(0.1), 0.0)

    def test_zero_one(self):
        mean, sem = trial_statistics([0.0, 1.0])
        assert mean == pytest.approx(0.5)
        assert sem == pytest.approx(0.5)

    def test_single_trial_convention(self):
        assert trial_statistics([0.7]) == (pytest.approx(0.7), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyStatisticsError):
            trial_statistics([])
