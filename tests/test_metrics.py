"""Metrics against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpp.errors import ArgumentError, ShapeError
from tpp.metrics import (HIGHER_IS_BETTER, TASK_METRICS, _binary_auc, accuracy, auc,
                         classification_report, dice, hd95, macro_f1, segmentation_report)


# -- oracles -------------------------------------------------------------


def counting_accuracy_oracle(scores, labels):
    correct = 0
    for row, label in zip(scores, labels):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:  # strict: ties keep the lowest index
                best = j
        correct += int(best == label)
    return 100.0 * correct / len(labels)


def confusion_f1_oracle(preds, labels, num_classes):
    f1s = []
    for c in range(num_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return 100.0 * sum(f1s) / num_classes


def pairwise_auc_oracle(pos, neg):
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def midrank_loop_auc_oracle(pos, neg):
    """The Mann-Whitney statistic from midranks assigned one tie run at a time."""
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.shape[0])
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[:len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
    return u / (len(pos) * len(neg))


def set_dice_oracle(a, b):
    pa = {tuple(x) for x in np.argwhere(a)}
    pb = {tuple(x) for x in np.argwhere(b)}
    if not pa and not pb:
        return 100.0
    return 100.0 * 2 * len(pa & pb) / (len(pa) + len(pb))


def allpairs_hd95_oracle(a, b):
    def boundary(mask):
        pts = []
        h, w = mask.shape
        for i in range(h):
            for j in range(w):
                if not mask[i, j]:
                    continue
                edge = i == 0 or i == h - 1 or j == 0 or j == w - 1
                neighbors = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                touches_bg = any(0 <= y < h and 0 <= x < w and not mask[y, x]
                                 for y, x in neighbors)
                if edge or touches_bg:
                    pts.append((i, j))
        return pts

    ba, bb = boundary(a), boundary(b)
    if not ba or not bb:
        return float(np.hypot(a.shape[0] - 1, a.shape[1] - 1))
    dists = []
    for p in ba:
        dists.append(min(np.hypot(p[0] - q[0], p[1] - q[1]) for q in bb))
    for q in bb:
        dists.append(min(np.hypot(p[0] - q[0], p[1] - q[1]) for p in ba))
    return float(np.percentile(dists, 95, method="linear"))


def float_matrix_hd95_reference(a, b):
    """`hd95` as it was: float64 distances over a [kp, kg, 2] difference array,
    square-rooted before the mins. Its bits are those of the recorded pins."""
    from tpp.metrics import _boundary
    bp, bg = _boundary(a), _boundary(b)
    if len(bp) == 0 or len(bg) == 0:
        h, w = a.shape
        return float(np.hypot(h - 1, w - 1))
    diff = bp[:, None, :] - bg[None, :, :]
    dmat = np.sqrt((diff.astype(np.float64) ** 2).sum(axis=2))
    pooled = np.concatenate([dmat.min(axis=1), dmat.min(axis=0)])
    return float(np.percentile(pooled, 95, method="linear"))


# -- tests ------------------------------------------------------------------


class TestAccuracy:
    def test_all_correct(self):
        scores = np.eye(3)
        assert accuracy(scores, np.array([0, 1, 2])) == 100.0

    def test_one_of_four(self):
        scores = np.array([[1, 0], [1, 0], [1, 0], [1, 0.5]])
        assert accuracy(scores, np.array([0, 1, 1, 1])) == 25.0

    def test_ties_break_to_lowest_class(self):
        scores = np.array([[0.5, 0.5]])
        assert accuracy(scores, np.array([0])) == 100.0
        assert accuracy(scores, np.array([1])) == 0.0

    def test_matches_counting_oracle_on_random_case(self):
        rng = np.random.default_rng(0)
        scores = rng.random((50, 5))
        labels = rng.integers(0, 5, 50)
        assert accuracy(scores, labels) == counting_accuracy_oracle(scores, labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))


class TestMacroF1:
    def test_perfect_binary(self):
        assert macro_f1(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]), 2) == 100.0

    def test_degenerate_all_one_class(self):
        preds = np.zeros(4, dtype=int)
        labels = np.array([0, 0, 1, 1])
        value = macro_f1(preds, labels, 2)
        # class 0: P=0.5, R=1 -> 2/3; class 1: no predictions -> 0
        assert value == pytest.approx(100.0 * (2.0 / 3.0 + 0.0) / 2, abs=1e-10)
        assert value == pytest.approx(33.33, abs=0.005)

    def test_absent_class_contributes_zero(self):
        value = macro_f1(np.array([0, 0]), np.array([0, 0]), 3)
        assert value == pytest.approx(100.0 / 3.0, abs=1e-10)

    def test_matches_confusion_oracle_on_200_random_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, k, n)
            labels = rng.integers(0, k, n)
            assert macro_f1(preds, labels, k) == pytest.approx(
                confusion_f1_oracle(preds, labels, k), abs=1e-10)

    def test_invariant_under_class_relabeling(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 4, 40)
        labels = rng.integers(0, 4, 40)
        base = macro_f1(preds, labels, 4)
        perm = rng.permutation(4)
        assert macro_f1(perm[preds], perm[labels], 4) == pytest.approx(base, abs=1e-10)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ArgumentError):
            macro_f1(np.array([0]), np.array([0]), 1)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.7, 0.3]])
        labels = np.array([1, 1, 0, 0])
        assert auc(scores, labels, 2) == 100.0

    def test_all_equal_scores_give_50(self):
        scores = np.full((6, 2), 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert auc(scores, labels, 2) == 50.0

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 21))
            k = int(rng.integers(2, 5))
            scores = np.round(rng.random((n, k)), 2)  # rounding forces ties
            labels = rng.integers(0, k, n)
            expected = []
            for c in range(k):
                pos = scores[labels == c, c]
                neg = scores[labels != c, c]
                if len(pos) and len(neg):
                    expected.append(pairwise_auc_oracle(pos, neg))
            if not expected:
                continue
            assert auc(scores, labels, k) == pytest.approx(
                100.0 * np.mean(expected), abs=1e-10)

    def test_binary_auc_is_bit_identical_to_the_midrank_loop(self):
        # tie-heavy scores with -0.0 and NaN (each NaN ranks alone, in input
        # order), long enough for numpy's sorts to leave insertion sort
        rng = np.random.default_rng(5)
        for case in range(300):
            n = int(rng.integers(2, 200))
            pool = [0.0, -0.0, 0.25, 0.5, 1.0] + ([np.nan] if case % 2 else [])
            scores = rng.choice(pool, n) if case % 5 else rng.random(n)
            k = int(rng.integers(1, n))
            got = _binary_auc(scores[:k], scores[k:])
            want = midrank_loop_auc_oracle(scores[:k], scores[k:])
            assert np.array_equal(got, want, equal_nan=True), (case, got, want)

    def test_absent_class_skipped(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.7, 0.3, 0.0]])
        labels = np.array([0, 1, 0])  # class 2 absent
        assert auc(scores, labels, 3) == auc(scores[:, :2], labels, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_property_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        scores = rng.random((n, 2))
        labels = rng.integers(0, 2, n)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        base = auc(scores, labels, 2)
        transformed = np.exp(3.0 * scores) + 5.0  # strictly monotone
        assert auc(transformed, labels, 2) == pytest.approx(base, abs=1e-10)


class TestDice:
    def test_identical_masks(self):
        m = np.random.default_rng(4).random((6, 6)) > 0.4
        assert dice(m, m) == 100.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert dice(a, b) == 0.0

    def test_both_empty_scores_100(self):
        empty = np.zeros((5, 5), dtype=bool)
        assert dice(empty, empty) == 100.0

    def test_matches_set_oracle_on_random_masks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.random((8, 8)) > 0.6
            b = rng.random((8, 8)) > 0.6
            assert dice(a, b) == pytest.approx(set_dice_oracle(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.random((7, 7)) > 0.5
        b = rng.random((7, 7)) > 0.5
        assert dice(a, b) == dice(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dice(np.zeros((2, 2)), np.zeros((3, 3)))


class TestHd95:
    def test_identical_masks_scores_zero(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 3:6] = True
        assert hd95(m, m) == 0.0

    def test_three_four_five_single_pixels(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[0, 0] = True
        b[3, 4] = True
        assert hd95(a, b) == 5.0

    def test_empty_mask_gives_diagonal_sentinel(self):
        a = np.zeros((9, 13), dtype=bool)
        b = np.zeros((9, 13), dtype=bool)
        b[4, 4] = True
        assert hd95(a, b) == pytest.approx(np.hypot(8, 12))
        assert hd95(b, a) == hd95(a, a) == hd95(a, b)

    def test_matches_allpairs_oracle_on_random_masks(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            a = rng.random((8, 8)) > 0.7
            b = rng.random((8, 8)) > 0.7
            if not a.any() or not b.any():
                continue
            assert hd95(a, b) == pytest.approx(allpairs_hd95_oracle(a, b), abs=1e-12)
            checked += 1

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.random((8, 8)) > 0.5
        b = rng.random((8, 8)) > 0.5
        assert hd95(a, b) == hd95(b, a)

    def test_interior_pixels_are_not_boundary(self):
        # a filled 5x5 square: boundary ring is 16 pixels, interior 9 excluded
        from tpp.metrics import _boundary
        m = np.zeros((9, 9), dtype=bool)
        m[2:7, 2:7] = True
        assert len(_boundary(m)) == 16

    def test_edge_touching_foreground_is_boundary(self):
        from tpp.metrics import _boundary
        m = np.ones((3, 3), dtype=bool)
        assert len(_boundary(m)) == 8  # all but the center

    @pytest.mark.parametrize("shape", [(64, 64), (64, 40), (7, 90)])
    def test_matches_the_float_matrix_formula_bitwise_on_noisy_masks(self, shape):
        rng = np.random.default_rng(11)
        for trial in range(40):
            # a blob against noise of every density, empty masks included
            gt = np.zeros(shape, dtype=bool)
            gt[shape[0] // 4:shape[0] // 2, shape[1] // 5:shape[1] // 2] = trial % 10 != 0
            pred = rng.random(shape) < trial / 40
            for a, b in ((pred, gt), (gt, pred)):
                assert (np.float64(hd95(a, b)).tobytes()
                        == np.float64(float_matrix_hd95_reference(a, b)).tobytes())

    def test_distances_past_the_int32_range_are_exact(self):
        # a squared distance of (2-1)^2 + (50000-1)^2, past the int32 range;
        # one pixel at each far end
        a = np.zeros((2, 50_000), dtype=bool)
        b = np.zeros((2, 50_000), dtype=bool)
        a[0, 0] = True
        b[1, -1] = True
        assert hd95(a, b) == float_matrix_hd95_reference(a, b) == math.sqrt(1 + 49_999 ** 2)


class TestReports:
    def test_classification_report_fields(self):
        rng = np.random.default_rng(9)
        scores = rng.random((20, 3))
        labels = rng.integers(0, 3, 20)
        report = classification_report(scores, labels, 3)
        assert list(report) == ["acc", "auc", "f1"]
        assert tuple(report) == TASK_METRICS["classification"]
        assert report["auc"] == auc(scores, labels, 3)

    def test_segmentation_report_fields(self):
        rng = np.random.default_rng(10)
        preds = rng.random((4, 8, 8)) > 0.6
        gts = rng.random((4, 8, 8)) > 0.6
        preds[0] = False  # an empty mask scores the diagonal sentinel
        report = segmentation_report(preds, gts)
        assert list(report) == ["dice", "hd95"]
        assert tuple(report) == TASK_METRICS["segmentation"]
        assert report["dice"] == np.mean([dice(p, g) for p, g in zip(preds, gts)])
        assert report["hd95"] == np.mean([hd95(p, g) for p, g in zip(preds, gts)])

    def test_every_task_metric_has_a_direction(self):
        assert list(HIGHER_IS_BETTER) == [m for names in TASK_METRICS.values() for m in names]
