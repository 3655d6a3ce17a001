import numpy as np
import pytest

from helpers import convex_intersection_area_oracle, signed_area_oracle
from textshaper.evaluation import (ImageCounts, aggregate, format_report, harmonic_f1,
                                   match_image, prf, report_lines)
from textshaper.geometry import TextPolygon


def square(x, y, side=4.0):
    return TextPolygon(np.array([[x, y], [x + side, y], [x + side, y + side], [x, y + side]]))


def iou_oracle(a, b):
    va, vb = a.vertices, b.vertices
    inter = convex_intersection_area_oracle(va, vb)
    union = abs(signed_area_oracle(va)) + abs(signed_area_oracle(vb)) - inter
    return inter / union if union > 0 else 0.0


def match_oracle(preds, gts, thresh):
    """Independent replication of the matching contract."""
    pairs = sorted(
        (-iou_oracle(p, g), pi, gi)
        for pi, p in enumerate(preds) for gi, g in enumerate(gts)
        if iou_oracle(p, g) >= thresh)
    mp, mg = set(), set()
    for _, pi, gi in pairs:
        if pi not in mp and gi not in mg:
            mp.add(pi)
            mg.add(gi)
    return len(mp), len(preds) - len(mp), len(gts) - len(mg)


class TestMatchImage:
    def test_exact_predictions(self):
        gts = [square(0, 0), square(10, 0), square(0, 10)]
        preds = [square(0, 0), square(10, 0), square(0, 10)]
        assert match_image(preds, gts) == (3, 0, 0)

    def test_no_predictions(self):
        gts = [square(0, 0), square(10, 10)]
        assert match_image([], gts) == (0, 0, 2)

    def test_no_ground_truth(self):
        assert match_image([square(0, 0)], []) == (0, 1, 0)

    def test_three_preds_two_gts_matches_oracle(self):
        gts = [square(0, 0), square(10, 0)]
        preds = [square(0.5, 0.0), square(1.5, 0.5), square(10.5, 0.2)]
        got = match_image(preds, gts, 0.3)
        assert got == match_oracle(preds, gts, 0.3)
        assert got == (2, 1, 0)

    def test_exact_ties_go_to_the_lower_index(self):
        # p0 has IoU exactly 1/3 with both GTs, p1 with the first only; p0
        # takes the GT with the lower index, so p1 goes unmatched.
        gts = [square(0, 0, 2), square(2, 0, 2)]
        preds = [square(1, 0, 2), square(-1, 0, 2)]
        got = match_image(preds, gts, 0.3)
        assert got == match_oracle(preds, gts, 0.3)
        assert got == (1, 1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        preds = [square(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)),
                        side=float(rng.uniform(2, 6))) for _ in range(int(rng.integers(0, 6)))]
        gts = [square(float(rng.uniform(0, 16)), float(rng.uniform(0, 16)),
                      side=float(rng.uniform(2, 6))) for _ in range(int(rng.integers(0, 6)))]
        assert match_image(preds, gts, 0.25) == match_oracle(preds, gts, 0.25)

    def test_one_to_one(self):
        # one prediction covering two ground truths can match only one
        big = TextPolygon(np.array([[0, 0], [14, 0], [14, 4], [0, 4]], float))
        gts = [square(0, 0), square(10, 0)]
        tp, fp, fn = match_image([big], gts, 0.2)
        assert tp == 1
        assert fn == 1

    def test_ignored_gt_not_counted(self):
        # At x = 1 the ignored GT overlaps the prediction with IoU 0.6: matched
        # to the care GT, the prediction stays a true positive.
        for ignored in (square(10, 0), square(1, 0)):
            gts = [square(0, 0), ignored]
            preds = [square(0, 0)]
            tp, fp, fn = match_image(preds, gts, ignore=[False, True])
            assert (tp, fp, fn) == (1, 0, 0)

    def test_pred_on_ignored_region_discarded(self):
        gts = [square(0, 0), square(10, 0)]
        preds = [square(0, 0), square(10, 0)]
        tp, fp, fn = match_image(preds, gts, ignore=[False, True])
        assert (tp, fp, fn) == (1, 0, 0)

    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError, match="ignore"):
            match_image([], [square(0, 0)], ignore=[])

    @pytest.mark.parametrize("thresh", [0.0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, thresh):
        # At 0, two disjoint squares would match with IoU 0 >= 0.
        with pytest.raises(ValueError, match="iou_thresh"):
            match_image([square(0, 0)], [square(20, 20)], thresh)


class TestPrf:
    def test_zero_denominators(self):
        assert prf(0, 0, 0) == (0.0, 0.0, 0.0)
        assert prf(0, 3, 0) == (0.0, 0.0, 0.0)

    def test_formula(self):
        p, r, f1 = prf(99, 34, 101)
        assert p == pytest.approx(99 / 133)
        assert r == pytest.approx(99 / 200)
        assert f1 == pytest.approx(2 * p * r / (p + r))
        assert round(100 * p, 1) == 74.4
        assert round(100 * r, 1) == 49.5


class TestAggregate:
    def test_reference_operating_point(self):
        assert round(harmonic_f1(74.5, 49.5), 1) == 59.5

    def test_second_reference_operating_point(self):
        assert round(harmonic_f1(86.9, 80.2), 1) == 83.4

    def test_perfect_scores(self):
        assert harmonic_f1(100.0, 100.0) == pytest.approx(100.0)
        rep = aggregate([ImageCounts("a", 5, 0, 0), ImageCounts("b", 3, 0, 0)])
        assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)

    def test_counts_summed_then_derived(self):
        rep = aggregate([ImageCounts("a", 60, 20, 50), ImageCounts("b", 39, 14, 51)])
        assert (rep.tp, rep.fp, rep.fn) == (99, 34, 101)
        assert rep.precision == pytest.approx(99 / 133)
        assert rep.recall == pytest.approx(99 / 200)
        assert rep.f1 == pytest.approx(harmonic_f1(99 / 133, 99 / 200))

    def test_order_invariance(self):
        items = [ImageCounts("a", 3, 1, 0), ImageCounts("b", 0, 2, 5), ImageCounts("c", 7, 0, 1)]
        fwd = aggregate(items)
        rev = aggregate(items[::-1])
        assert (fwd.tp, fwd.fp, fwd.fn, fwd.precision, fwd.recall, fwd.f1) == \
            (rev.tp, rev.fp, rev.fn, rev.precision, rev.recall, rev.f1)

    def test_empty(self):
        rep = aggregate([])
        assert (rep.tp, rep.fp, rep.fn) == (0, 0, 0)
        assert rep.f1 == 0.0


class TestReportRendering:
    def test_key_value_lines(self):
        rep = aggregate([ImageCounts("a", 3, 1, 1)])
        lines = report_lines(rep)
        assert "tp=3" in lines
        assert "fp=1" in lines
        assert any(line.startswith("f1=") for line in lines)

    def test_table_contains_percentages(self):
        rep = aggregate([ImageCounts("a", 3, 1, 1)])
        table = format_report(rep)
        assert "75.0" in table
