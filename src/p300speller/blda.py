"""Bayesian linear discriminant analysis for single-trial target detection.

A linear regression onto class-balanced targets, with an isotropic
Gaussian prior on the weights (precision alpha, bias effectively
unregularized) and Gaussian noise (precision beta).  Both hyperparameters
are driven to the evidence maximum by MacKay fixed-point updates, so no
cross-validation is needed; the converged posterior mean doubles as the
scoring weight vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, ValidationError

# ratio of the bias precision to alpha; keeps the bias essentially free
BIAS_PRECISION_SCALE = 1e-10


@dataclass
class BldaModel:
    """Converged posterior mean plus the evidence-maximized hyperparameters."""

    w: np.ndarray  # (D+1,), trailing element is the bias weight
    alpha: float
    beta: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "w": self.w.tolist(),
            "alpha": self.alpha,
            "beta": self.beta,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BldaModel":
        return cls(
            w=np.asarray(obj["w"], dtype=float),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            iterations=int(obj["iterations"]),
            converged=bool(obj["converged"]),
        )


def fit_blda(features, labels, tol: float = 1e-6, max_iter: int = 200) -> BldaModel:
    """Fit by evidence maximization.

    Regression targets are class-balanced (E/E1 for targets, -E/E0 for
    the rest) so the 1-in-6 oddball imbalance does not push the bias.
    Iteration stops when both alpha and beta change relatively less than
    ``tol``; the returned weights are recomputed at the final
    hyperparameters, so they satisfy the posterior-mean fixed point
    exactly.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValidationError("features must be E x D with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValidationError("features contain non-finite values")
    n_examples, n_feat = x.shape
    n_pos = int(y.sum())
    n_neg = n_examples - n_pos
    if n_pos == 0 or n_neg == 0:
        raise PipelineError("single-class input: need both target and non-target examples")

    t = np.where(y, n_examples / n_pos, -n_examples / n_neg)
    g = np.vstack([x.T, np.ones(n_examples)])  # (D+1, E)
    gram = g @ g.T
    gt = g @ t
    # spectrum of the non-bias feature Gram, fixed across iterations
    feat_eigs = np.linalg.eigvalsh(gram[:n_feat, :n_feat])
    feat_eigs = np.clip(feat_eigs, 0.0, None)

    alpha, beta = 1.0, 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        m = _posterior_mean(gram, gt, alpha, beta, n_feat)
        gamma = float(np.sum(beta * feat_eigs / (beta * feat_eigs + alpha)))
        weight_norm = float(m[:n_feat] @ m[:n_feat])
        residual = t - g.T @ m
        rss = float(residual @ residual)
        if not min(weight_norm, rss) > 0:  # identical epochs: no update to take
            break
        alpha_new, beta_new = gamma / weight_norm, (n_examples - gamma) / rss
        if not (np.isfinite(alpha_new) and np.isfinite(beta_new)) or min(alpha_new, beta_new) <= 0:
            break
        done = (
            abs(alpha_new - alpha) <= tol * abs(alpha)
            and abs(beta_new - beta) <= tol * abs(beta)
        )
        alpha, beta = float(alpha_new), float(beta_new)
        if done:
            converged = True
            break
    w = _posterior_mean(gram, gt, alpha, beta, n_feat)
    return BldaModel(w=w, alpha=alpha, beta=beta, iterations=iterations, converged=converged)


def _posterior_mean(gram, gt, alpha, beta, n_feat):
    penalty = np.full(gram.shape[0], alpha)
    penalty[n_feat:] = BIAS_PRECISION_SCALE * alpha
    return beta * np.linalg.solve(beta * gram + np.diag(penalty), gt)


def score(m: BldaModel, features) -> np.ndarray | float:
    """Linear score w' [x; 1]; higher means more target-like.

    Accepts a single D-vector or an E x D matrix.
    """
    x = np.asarray(features, dtype=float)
    if x.shape[-1] != m.w.shape[0] - 1:
        raise ValidationError(
            f"feature dimension {x.shape[-1]} does not match model ({m.w.shape[0] - 1})"
        )
    out = x @ m.w[:-1] + m.w[-1]
    return float(out) if x.ndim == 1 else out
