"""Accuracy, information transfer rate, ROC/AUC, and paired t-tests."""

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, ValidationError
from .scheduler import slots_per_repetition


@dataclass
class RocCurve:
    """Threshold-sweep operating points and the area under them.

    ``points`` runs from (0, 0) to (1, 1), nondecreasing in both
    coordinates; ties contribute diagonal segments, so the trapezoidal
    area equals the Mann-Whitney statistic with half credit for ties.
    """

    points: np.ndarray  # (K, 2) of (fpr, tpr)
    auc: float


def bits_per_selection(p: float, m: int) -> float:
    """Information per selection for accuracy ``p`` over ``m`` symbols.

    B = log2(m) + p log2(p) + (1 - p) log2((1 - p) / (m - 1)), with
    0 log 0 taken as 0.  Errors are assumed uniform over the m - 1 wrong
    symbols.
    """
    if m < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {m}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"accuracy must lie in [0, 1], got {p}")
    bits = np.log2(m)
    if p > 0:
        bits += p * np.log2(p)
    if p < 1:
        bits += (1 - p) * np.log2((1 - p) / (m - 1))
    return float(bits)


def itr_bpm(p: float, m: int, paradigm: str, reps: int, isi_s: float, n: int = 6) -> float:
    """Bits per minute from accuracy and the paradigm timing model.

    A character takes reps * slots_per_repetition * isi seconds, with no
    inter-character gap.
    """
    if reps < 1:
        raise ValidationError(f"repetitions must be >= 1, got {reps}")
    t_char_s = reps * slots_per_repetition(paradigm, n) * isi_s
    return bits_per_selection(p, m) * 60.0 / t_char_s


def roc(scores, labels) -> RocCurve:
    """ROC curve from sweeping a threshold over all distinct scores.

    The AUC is the Mann-Whitney statistic computed from midranks (ties get
    half credit), which the trapezoidal integral of the returned points
    reproduces.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise PipelineError("single-class input: ROC needs both classes")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    # one point per distinct score (the last index of each tie group)
    distinct = np.nonzero(np.diff(sorted_scores, append=np.nan))[0]
    tpr = np.concatenate([[0.0], tp[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fp[distinct] / n_neg])

    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    midranks = (bounds[:-1] + bounds[1:] + 1) / 2.0
    rank_sum = float(midranks[inverse][labels].sum())
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return RocCurve(points=np.column_stack([fpr, tpr]), auc=auc)


def paired_t_test(a, b) -> tuple[float, int, float]:
    """Paired two-sided t-test; returns (t, df, p).

    p comes from the Student-t survival function (regularized incomplete
    beta), accurate far beyond 1e-10.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValidationError("need two equal-length vectors with at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0:
        raise PipelineError("degenerate test: paired differences have zero variance")
    from scipy import special  # here, so that train and eval import no scipy

    df = d.size - 1
    t = float(d.mean() / (sd / np.sqrt(d.size)))
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return t, df, p
