import itertools
import math

import numpy as np
import pytest

from p300speller.errors import PipelineError, ValidationError
from p300speller.metrics import bits_per_selection, itr_bpm, paired_t_test, roc


def mann_whitney_auc(pos, neg):
    """Pairwise-comparison oracle: wins + half credit for ties."""
    wins = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            wins += 1.0
        elif p == q:
            wins += 0.5
    return wins / (len(pos) * len(neg))


class TestBits:
    def test_perfect_accuracy(self):
        assert bits_per_selection(1.0, 36) == pytest.approx(math.log2(36))

    def test_chance_level_zero_bits(self):
        assert bits_per_selection(1 / 36, 36) == pytest.approx(0.0, abs=1e-12)

    def test_value_for_table_entry(self):
        # feeds the 36.64 bpm check: B(0.975, 36) evaluated from the formula
        assert bits_per_selection(0.975, 36) == pytest.approx(4.8730, abs=1e-4)

    def test_strictly_increasing_above_chance(self):
        grid = np.linspace(1 / 36 + 1e-6, 1.0, 400)
        values = [bits_per_selection(p, 36) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            bits_per_selection(1.2, 36)
        with pytest.raises(ValidationError):
            bits_per_selection(-0.1, 36)
        with pytest.raises(ValidationError):
            bits_per_selection(0.5, 1)

    def test_two_symbols(self):
        """m = 2 is the smallest alphabet: one bit when always right, none at chance."""
        assert bits_per_selection(1.0, 2) == 1.0
        assert bits_per_selection(0.5, 2) == 0.0

    def test_zero_accuracy(self):
        """p = 0 is allowed, and 0 log 0 counts as 0: never right of two is one bit."""
        assert bits_per_selection(0.0, 2) == 1.0
        assert bits_per_selection(0.0, 36) == pytest.approx(math.log2(36 / 35), abs=1e-15)


class TestItr:
    def test_reference_rate_table(self):
        # the four exactly reconstructible entries of the timing model
        assert itr_bpm(0.975, 36, "cp300", 5, 0.133) == pytest.approx(36.64, abs=0.01)
        assert itr_bpm(1.0, 36, "cp300", 10, 0.133) == pytest.approx(19.44, abs=0.01)
        assert itr_bpm(0.975, 36, "xp300", 5, 0.133) == pytest.approx(31.41, abs=0.01)
        assert itr_bpm(1.0, 36, "xp300", 10, 0.133) == pytest.approx(16.66, abs=0.01)

    def test_xp300_slower_at_equal_accuracy(self):
        for p in (0.5, 0.8, 0.95, 1.0):
            assert itr_bpm(p, 36, "xp300", 5, 0.133) < itr_bpm(p, 36, "cp300", 5, 0.133)

    def test_unknown_paradigm(self):
        with pytest.raises(ValidationError, match="paradigm"):
            itr_bpm(0.9, 36, "qp300", 5, 0.133)


class TestRoc:
    def test_perfect_separation(self):
        assert roc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]).auc == 1.0

    def test_identical_distributions(self):
        assert roc([0.3, 0.7, 0.3, 0.7], [1, 1, 0, 0]).auc == 0.5

    def test_three_of_four_pairs(self):
        assert roc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]).auc == 0.75

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = rng.integers(5, 60)
            scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            curve = roc(scores, labels)
            oracle = mann_whitney_auc(scores[labels], scores[~labels])
            assert abs(curve.auc - oracle) < 1e-12, trial
            # the trapezoidal integral of the curve is a third route
            trapezoid = np.trapezoid(curve.points[:, 1], curve.points[:, 0])
            assert abs(trapezoid - oracle) < 1e-12, trial

    def test_curve_shape(self):
        curve = roc([0.8, 0.4, 0.6, 0.2, 0.6], [1, 0, 1, 0, 0])
        pts = curve.points
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[-1].tolist() == [1.0, 1.0]
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_single_class(self):
        with pytest.raises(PipelineError, match="single-class"):
            roc([0.1, 0.2], [1, 1])


class TestPairedT:
    def test_hand_computed(self):
        t, df, _ = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(2 * math.sqrt(3), abs=1e-4)
        assert df == 2

    def test_two_pairs_are_enough(self):
        # the smallest sample: one degree of freedom, where t is Cauchy-distributed
        t, df, p = paired_t_test([3.0, 5.0], [1.0, 2.0])
        assert (t, df) == (pytest.approx(5.0), 1)
        assert p == pytest.approx(1 - 2 * math.atan(5.0) / math.pi, rel=1e-12)

    def test_constant_shift_degenerate(self):
        with pytest.raises(PipelineError, match="zero variance"):
            paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])

    def test_antisymmetry(self):
        a = [1.0, 5.0, 2.0, 8.0]
        b = [2.0, 3.0, 4.0, 5.0]
        t1, _, p1 = paired_t_test(a, b)
        t2, _, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_p_value_against_known_points(self):
        # t survival values checked against the regularized-beta identity
        # P(T > t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2)
        from scipy import special

        for t_val, df in [(2.0, 5), (3.4641, 2), (6.18, 9)]:
            x = df / (df + t_val * t_val)
            expected = special.betainc(df / 2.0, 0.5, x)  # two-sided
            n = df + 1
            centered = np.linspace(0, 1, n) - 0.5
            shift = t_val * centered.std(ddof=1) / math.sqrt(n)
            t, got_df, p = paired_t_test(centered + shift, np.zeros(n))
            assert got_df == df
            assert t == pytest.approx(t_val, abs=1e-9)
            assert p == pytest.approx(expected, rel=1e-10)

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
