"""Detection evaluation: greedy one-to-one polygon matching and P/R/F1."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import polygon_iou


@dataclass(frozen=True)
class ImageCounts:
    name: str
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_image: tuple[ImageCounts, ...]


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 from counts; zero denominators give 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, harmonic_f1(p, r)


def harmonic_f1(precision: float, recall: float) -> float:
    """F1 as the harmonic mean of precision and recall (any common unit)."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def match_image(preds, gts, iou_thresh: float = 0.5, ignore=None) -> tuple[int, int, int]:
    """Greedy one-to-one matching of predictions to ground truth.

    Candidate pairs with IoU >= iou_thresh are accepted in descending IoU
    order (ties by prediction index, then ground-truth index) as long as
    both members are unmatched. With per-ground-truth ignore flags, ignored
    polygons are excluded from matching and from the false-negative count,
    and an unmatched prediction whose IoU with some ignored polygon is
    >= iou_thresh is discarded rather than counted as a false positive (a
    smaller overlap still counts as one). iou_thresh must lie in (0, 1]:
    at 0 every pair would match, even disjoint ones.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must lie in (0, 1], got {iou_thresh}")
    preds = list(preds)
    gts = list(gts)
    flags = list(ignore) if ignore is not None else [False] * len(gts)
    if len(flags) != len(gts):
        raise ValueError(f"got {len(gts)} ground-truth polygons but {len(flags)} ignore flags")
    active = [i for i, ig in enumerate(flags) if not ig]
    pairs = []
    for pi, pred in enumerate(preds):
        for gi in active:
            iou = polygon_iou(pred, gts[gi])
            if iou >= iou_thresh:
                pairs.append((-iou, pi, gi))
    pairs.sort()
    matched_p: set[int] = set()
    matched_g: set[int] = set()
    for _, pi, gi in pairs:
        if pi not in matched_p and gi not in matched_g:
            matched_p.add(pi)
            matched_g.add(gi)
    tp = len(matched_p)
    discarded = 0
    ignored = [gts[i] for i, ig in enumerate(flags) if ig]
    if ignored:
        for pi, pred in enumerate(preds):
            if pi in matched_p:
                continue
            if any(polygon_iou(pred, g) >= iou_thresh for g in ignored):
                discarded += 1
    fp = len(preds) - tp - discarded
    fn = len(active) - tp
    return tp, fp, fn


def aggregate(per_image) -> EvalReport:
    """Sum ImageCounts, then derive the metrics from the totals.

    The fold is order-independent.
    """
    counts = tuple(per_image)
    tp = sum(c.tp for c in counts)
    fp = sum(c.fp for c in counts)
    fn = sum(c.fn for c in counts)
    p, r, f1 = prf(tp, fp, fn)
    return EvalReport(tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1, per_image=counts)


def format_report(report: EvalReport) -> str:
    """Human-readable summary table (percentages)."""
    lines = [
        f"{'images':>10} {'tp':>6} {'fp':>6} {'fn':>6} {'P(%)':>7} {'R(%)':>7} {'F1(%)':>7}",
        f"{len(report.per_image):>10} {report.tp:>6} {report.fp:>6} {report.fn:>6} "
        f"{100 * report.precision:>7.1f} {100 * report.recall:>7.1f} {100 * report.f1:>7.1f}",
    ]
    return "\n".join(lines)


def report_lines(report: EvalReport) -> list[str]:
    """Line-oriented key=value rendering for scripting."""
    return [
        f"images={len(report.per_image)}",
        f"tp={report.tp}",
        f"fp={report.fp}",
        f"fn={report.fn}",
        f"precision={report.precision:.6f}",
        f"recall={report.recall:.6f}",
        f"f1={report.f1:.6f}",
    ]
