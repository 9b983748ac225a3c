"""Classification and segmentation metrics.

Pinned conventions (each matters for reproducibility):

* accuracy: argmax ties break toward the lowest class index;
* macro F1: a class with zero predicted and zero actual positives
  contributes F1 = 0, not skipped;
* AUC: one-vs-rest Mann-Whitney rank statistic with 0.5 credit for score
  ties, macro-averaged over classes present in the labels (absent classes
  are skipped);
* Dice: over foreground; both masks empty scores 100;
* HD95: 95th percentile (linear interpolation between order statistics)
  of the pooled symmetric boundary-to-boundary Euclidean distances, where
  a boundary pixel is foreground 4-adjacent to background or the image
  edge; an empty mask yields the image diagonal as a sentinel.

ACC / AUC / F1 / Dice are percentages; HD95 is in pixels.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError

# each task's report keys, its default primary metric first
TASK_METRICS = {"classification": ("acc", "auc", "f1"), "segmentation": ("dice", "hd95")}
HIGHER_IS_BETTER = {"acc": True, "auc": True, "f1": True, "dice": True, "hd95": False}


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Percent of argmax-correct predictions; ties go to the lowest class."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if scores.shape[0] != labels.shape[0]:
        raise ArgumentError(
            f"accuracy: {scores.shape[0]} score rows vs {labels.shape[0]} labels")
    preds = np.argmax(scores, axis=1)
    return 100.0 * float((preds == labels).mean())


def macro_f1(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Unweighted mean over classes of 2PR/(P+R); degenerate classes score 0."""
    if num_classes < 2:
        raise ArgumentError(f"macro_f1 needs num_classes >= 2, got {num_classes}")
    preds = np.asarray(preds, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)
    if preds.shape != labels.shape:
        raise ArgumentError(f"macro_f1: {preds.shape} preds vs {labels.shape} labels")
    f1s = []
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        f1s.append(0.0 if denom == 0 else 2.0 * tp / denom)
    return 100.0 * float(np.mean(f1s))


def _binary_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    # Mann-Whitney via midranks; ties get 0.5 credit, and each NaN ranks alone
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # of each tie run
    counts = np.diff(np.r_[starts, len(scores)])
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.repeat(0.5 * (2 * starts + counts - 1) + 1.0, counts)  # 1-based
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    rank_sum = ranks[:n_pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc(scores: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Macro one-vs-rest AUC in percent.

    scores is [n, num_classes]; a class with no positive or no negative
    examples is skipped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if scores.ndim != 2 or scores.shape[1] != num_classes:
        raise ArgumentError(
            f"auc: scores must be [n, {num_classes}], got {list(scores.shape)}")
    aucs = []
    for c in range(num_classes):
        pos = scores[labels == c, c]
        neg = scores[labels != c, c]
        if len(pos) and len(neg):
            aucs.append(_binary_auc(pos, neg))
    if not aucs:
        raise ArgumentError("auc: no class has both positive and negative examples")
    return 100.0 * float(np.mean(aucs))


def dice(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|) in percent over foreground; both empty scores 100."""
    pred = np.asarray(pred_mask).astype(bool)
    gt = np.asarray(gt_mask).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"dice: shapes {pred.shape} and {gt.shape} differ")
    p, g = int(pred.sum()), int(gt.sum())
    if p == 0 and g == 0:
        return 100.0
    inter = int((pred & gt).sum())
    return 100.0 * 2.0 * inter / (p + g)


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels 4-adjacent to background or the image edge; [k,2] coords."""
    fg = mask.astype(bool)
    padded = np.pad(fg, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(fg & ~interior)


def hd95(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """95th-percentile symmetric boundary distance in pixels; the image
    diagonal when either mask has no foreground."""
    pred = np.asarray(pred_mask).astype(bool)
    gt = np.asarray(gt_mask).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"hd95: shapes {pred.shape} and {gt.shape} differ")
    bp = _boundary(pred)
    bg = _boundary(gt)
    h, w = pred.shape
    if len(bp) == 0 or len(bg) == 0:
        return float(np.hypot(h - 1, w - 1))
    # per-axis float64 differences of integer coordinates: each squared
    # distance is exact, so the sqrt of each min is the min of the sqrts
    (py, px), (gy, gx) = bp.T.astype(np.float64), bg.T.astype(np.float64)
    dy, dx = py[:, None] - gy, px[:, None] - gx
    d2 = dy * dy + dx * dx
    pooled = np.sqrt(np.concatenate([d2.min(axis=1), d2.min(axis=0)]))
    return float(np.percentile(pooled, 95, method="linear"))


def classification_report(scores: np.ndarray, labels: np.ndarray,
                          num_classes: int) -> dict[str, float]:
    return {"acc": accuracy(scores, labels),
            "auc": auc(scores, labels, num_classes),
            "f1": macro_f1(np.argmax(scores, axis=1), labels, num_classes)}


def segmentation_report(pred_masks: list[np.ndarray],
                        gt_masks: list[np.ndarray]) -> dict[str, float]:
    """Mean per-sample Dice and HD95 over a list of binary masks."""
    pairs = list(zip(pred_masks, gt_masks))
    return {"dice": float(np.mean([dice(pm, gm) for pm, gm in pairs])),
            "hd95": float(np.mean([hd95(pm, gm) for pm, gm in pairs]))}
