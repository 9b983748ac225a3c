"""Classification and segmentation metrics.

Pinned conventions (each matters for reproducibility):

* accuracy: argmax ties break toward the lowest class index;
* macro F1: a class with zero predicted and zero actual positives
  contributes F1 = 0, not skipped;
* AUC: one-vs-rest Mann-Whitney rank statistic with 0.5 credit for score
  ties, macro-averaged over classes present in the labels (absent classes
  are skipped and noted);
* Dice: over foreground; both masks empty scores 100;
* HD95: 95th percentile (linear interpolation between order statistics)
  of the pooled symmetric boundary-to-boundary Euclidean distances, where
  a boundary pixel is foreground 4-adjacent to background or the image
  edge; an empty mask yields the image diagonal as a flagged sentinel.

ACC / AUC / F1 / Dice are percentages; HD95 is in pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ShapeError


@dataclass
class EvalReport:
    metrics: dict[str, float] = field(default_factory=dict)
    sample_count: int = 0
    per_class: dict[str, dict[int, float]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_records(self, split: str) -> list[dict]:
        return [{"split": split, "metric": name, "value": float(value)}
                for name, value in self.metrics.items()]


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


def auc(scores: np.ndarray, labels: np.ndarray, num_classes: int,
        report: EvalReport | None = None) -> float:
    """Macro one-vs-rest AUC in percent.

    scores is [n, num_classes]; a class with no positive or no negative
    examples is skipped (and noted in the report when one is given).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if scores.ndim != 2 or scores.shape[1] != num_classes:
        raise ArgumentError(
            f"auc: scores must be [n, {num_classes}], got {list(scores.shape)}")
    per_class = {}
    for c in range(num_classes):
        pos = scores[labels == c, c]
        neg = scores[labels != c, c]
        if len(pos) == 0 or len(neg) == 0:
            if report is not None:
                report.warnings.append(f"auc: class {c} absent from labels, skipped")
            continue
        per_class[c] = _binary_auc(pos, neg)
    if not per_class:
        raise ArgumentError("auc: no class has both positive and negative examples")
    if report is not None:
        report.per_class["auc"] = {c: 100.0 * v for c, v in per_class.items()}
    return 100.0 * float(np.mean(list(per_class.values())))


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


def hd95(pred_mask: np.ndarray, gt_mask: np.ndarray) -> tuple[float, bool]:
    """95th-percentile symmetric boundary distance in pixels.

    Returns (value, empty_flag); when either mask has no foreground the
    value is the image diagonal and the flag is set.
    """
    pred = np.asarray(pred_mask).astype(bool)
    gt = np.asarray(gt_mask).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"hd95: shapes {pred.shape} and {gt.shape} differ")
    bp = _boundary(pred)
    bg = _boundary(gt)
    if len(bp) == 0 or len(bg) == 0:
        h, w = pred.shape
        return float(np.hypot(h - 1, w - 1)), True
    diff = bp[:, None, :] - bg[None, :, :]
    dmat = np.sqrt((diff.astype(np.float64) ** 2).sum(axis=2))
    pooled = np.concatenate([dmat.min(axis=1), dmat.min(axis=0)])
    return float(np.percentile(pooled, 95, method="linear")), False


def classification_report(scores: np.ndarray, labels: np.ndarray,
                          num_classes: int) -> EvalReport:
    report = EvalReport(sample_count=len(labels))
    report.metrics["acc"] = accuracy(scores, labels)
    report.metrics["auc"] = auc(scores, labels, num_classes, report)
    report.metrics["f1"] = macro_f1(np.argmax(scores, axis=1), labels, num_classes)
    return report


def segmentation_report(pred_masks: list[np.ndarray],
                        gt_masks: list[np.ndarray]) -> EvalReport:
    """Mean per-sample Dice and HD95 over a list of binary masks."""
    report = EvalReport(sample_count=len(gt_masks))
    dices, hds = [], []
    for i, (pm, gm) in enumerate(zip(pred_masks, gt_masks)):
        dices.append(dice(pm, gm))
        value, empty = hd95(pm, gm)
        if empty:
            report.warnings.append(f"hd95: sample {i} has an empty mask, used diagonal sentinel")
        hds.append(value)
    report.metrics["dice"] = float(np.mean(dices))
    report.metrics["hd95"] = float(np.mean(hds))
    return report
