import numpy as np
import pytest

from p300speller.blda import BIAS_PRECISION_SCALE, BldaModel, fit_blda, score
from p300speller.errors import PipelineError, ValidationError
from p300speller.metrics import roc


def toy_separable(seed=0, n=200, sigma=0.1):
    """Two tight clusters at (1,1) and (-1,-1)."""
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 0.5
    centers = np.where(labels[:, None], 1.0, -1.0)
    return centers + sigma * rng.standard_normal((n, 2)), labels


def oddball_problem(seed, n=400, d=10, shift=0.6):
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 1 / 6
    x = rng.standard_normal((n, d))
    x[labels] += shift
    return x, labels


def ridge_oracle(x, labels, alpha, beta):
    """Regularized least squares solved through an independent lstsq path."""
    n, d = x.shape
    t = np.where(labels, n / labels.sum(), -n / (~labels).sum())
    g = np.vstack([x.T, np.ones(n)])
    penalties = np.full(d + 1, alpha)
    penalties[-1] = BIAS_PRECISION_SCALE * alpha
    aug = np.vstack([np.sqrt(beta) * g.T, np.diag(np.sqrt(penalties))])
    rhs = np.concatenate([np.sqrt(beta) * t, np.zeros(d + 1)])
    w, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return w


class TestFit:
    def test_fixed_point_residual(self):
        x, labels = oddball_problem(1)
        m = fit_blda(x, labels)
        assert m.converged
        n = len(labels)
        t = np.where(labels, n / labels.sum(), -n / (~labels).sum())
        g = np.vstack([x.T, np.ones(n)])
        penalties = np.full(x.shape[1] + 1, m.alpha)
        penalties[-1] = BIAS_PRECISION_SCALE * m.alpha
        lhs = (m.beta * (g @ g.T) + np.diag(penalties)) @ m.w
        rhs = m.beta * (g @ t)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6

    def test_matches_ridge_oracle(self):
        worst = 0.0
        for seed in range(20):
            x, labels = oddball_problem(seed)
            m = fit_blda(x, labels)
            assert m.converged, seed
            w = ridge_oracle(x, labels, m.alpha, m.beta)
            worst = max(worst, np.abs(w - m.w).max())
        assert worst < 1e-8

    def test_separable_toy_auc_one(self):
        x, labels = toy_separable()
        m = fit_blda(x, labels)
        assert roc(score(m, x), labels).auc == 1.0

    def test_mean_target_score_higher(self):
        x, labels = toy_separable(seed=3)
        m = fit_blda(x, labels)
        s = score(m, x)
        assert s[labels].mean() > s[~labels].mean()

    def test_hyperparameters_positive(self):
        for seed in (0, 5, 9):
            x, labels = oddball_problem(seed)
            m = fit_blda(x, labels)
            assert m.alpha > 0 and m.beta > 0

    def test_single_class_rejected(self):
        x = np.zeros((10, 3))
        with pytest.raises(PipelineError, match="single-class"):
            fit_blda(x, np.ones(10, dtype=bool))

    def test_non_finite_rejected(self):
        x, labels = toy_separable()
        x[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            fit_blda(x, labels)

    def test_determinism(self):
        x, labels = oddball_problem(2)
        a = fit_blda(x, labels)
        b = fit_blda(x, labels)
        assert np.array_equal(a.w, b.w)
        assert (a.alpha, a.beta, a.iterations) == (b.alpha, b.beta, b.iterations)

    def test_non_convergence_flagged(self):
        x, labels = oddball_problem(4)
        m = fit_blda(x, labels, max_iter=2)
        assert not m.converged
        assert m.iterations == 2

    def test_stops_on_an_unusable_update(self):
        """With four examples in ten dimensions gamma outgrows the example
        count, so beta's update turns negative at iteration 17: the fit stops
        there, unconverged, with the last usable alpha and beta."""
        x = np.random.default_rng(0).standard_normal((4, 10))
        m = fit_blda(x, [True, False, False, False])
        assert (m.iterations, m.converged) == (17, False)
        assert np.isfinite(m.w).all() and m.alpha > 0 and m.beta > 0

    @pytest.mark.parametrize("value", [0.0, 3.0])
    def test_identical_rows_stop_unconverged(self, value):
        """Identical rows carry no evidence: the weight norm or the residual
        sum of squares reaches zero, and the fit stops there instead of
        dividing by it."""
        labels = np.arange(24) % 6 == 0
        m = fit_blda(np.full((24, 5), value), labels)
        assert not m.converged
        assert np.isfinite(m.w).all() and m.alpha > 0 and m.beta > 0

    def test_scale_invariant_ranking(self):
        x, labels = oddball_problem(6)
        holdout, _ = oddball_problem(7)
        m1 = fit_blda(x, labels)
        m2 = fit_blda(x * 25.0, labels)
        r1 = np.argsort(score(m1, holdout))
        r2 = np.argsort(score(m2, holdout * 25.0))
        assert np.array_equal(r1, r2)


class TestScore:
    def test_zero_weights(self):
        m = BldaModel(w=np.zeros(4), alpha=1.0, beta=1.0, iterations=0, converged=True)
        assert score(m, np.array([5.0, -2.0, 7.0])) == 0.0

    def test_affine(self):
        m = BldaModel(w=np.array([1.0, -2.0, 0.5]), alpha=1.0, beta=1.0,
                      iterations=0, converged=True)
        x = np.array([0.3, 0.7])
        y = np.array([-1.1, 0.2])
        zero = np.zeros(2)
        assert score(m, x + y) + score(m, zero) == pytest.approx(score(m, x) + score(m, y))

    def test_batch_matches_single(self):
        x, labels = toy_separable(seed=1)
        m = fit_blda(x, labels)
        batch = score(m, x[:5])
        singles = [score(m, row) for row in x[:5]]
        assert np.allclose(batch, singles)

    def test_dimension_mismatch(self):
        m = BldaModel(w=np.zeros(4), alpha=1.0, beta=1.0, iterations=0, converged=True)
        with pytest.raises(ValidationError, match="dimension"):
            score(m, np.zeros(5))


class TestSerialization:
    def test_json_roundtrip(self):
        x, labels = toy_separable()
        m = fit_blda(x, labels)
        again = BldaModel.from_json(m.to_json())
        assert np.array_equal(again.w, m.w)
        assert (again.alpha, again.beta, again.iterations, again.converged) == (
            m.alpha, m.beta, m.iterations, m.converged,
        )


class TestBoundaries:
    def test_one_iteration_allowed(self):
        x, labels = oddball_problem(1)
        m = fit_blda(x, labels, max_iter=1)
        assert (m.iterations, m.converged) == (1, False)

    def test_zero_tolerance_allowed(self):
        x, labels = oddball_problem(1)
        m = fit_blda(x, labels, tol=0.0, max_iter=5)
        assert (m.iterations, m.converged) == (5, False)

    @pytest.mark.parametrize("problem", [oddball_problem(1), toy_separable()],
                             ids=["alpha-changes-more", "beta-changes-more"])
    def test_a_change_equal_to_the_tolerance_stops(self, problem):
        """The stopping test is ``<=`` for each hyperparameter: a first update
        (from alpha = beta = 1) whose larger relative change is exactly
        ``tol`` converges at once."""
        x, labels = problem
        first = fit_blda(x, labels, max_iter=1)
        tol = max(abs(first.alpha - 1.0), abs(first.beta - 1.0))
        m = fit_blda(x, labels, tol=tol)
        assert (m.converged, m.iterations, m.alpha, m.beta) == (True, 1, first.alpha, first.beta)
