"""Per-layer metrics from the spans of a traced run.

Times are per traced operation. The counts (pair evaluations, texture-class
shares, cross-label share) depend only on the inputs and the parameters, so
they repeat exactly; the shares are taken over the first traced operation of
each distinct input, so they do not depend on how many operations a run made.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import TRACED, Tracer

#: Texture classes in label order (edgekeep.TextureClass values 0..5).
CLASS_NAMES = ("smooth", "complex", "orient_0", "orient_90", "orient_45", "orient_neg_45")

_PAD_MODES = {None: "edge", "replicate": "edge", "mirror": "reflect"}


def cross_label_pairs(labels: np.ndarray, radius: int, policy: str | None) -> tuple[int, int]:
    """(differing, total) pixel/neighbour label pairs over the filter window.

    Neighbours outside the image are folded by the filter's boundary policy;
    the centre pixel is not its own neighbour.
    """
    h, w = labels.shape
    padded = np.pad(labels, radius, mode=_PAD_MODES[policy])
    differing = 0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy or dx:
                shifted = padded[radius + dy:radius + dy + h, radius + dx:radius + dx + w]
                differing += int(np.count_nonzero(shifted != labels))
    return differing, h * w * ((2 * radius + 1) ** 2 - 1)


def layer_metrics(ek, tracer: Tracer, traced_ops: dict[int, float],
                  untraced_walls: list[float], first_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    traced_ops maps each traced operation to its wall time; first_ops holds
    the first traced operation of each distinct input.
    """
    spans = [span for span in tracer.spans if span.op in traced_ops]
    own = tracer.self_times()
    self_by_name: dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        if span.op in traced_ops:
            self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own[index]
    n_ops = len(traced_ops)
    metrics = {f"{home}.{name}.self_s": self_by_name.get(f"{home}.{name}", 0.0) / n_ops
               for home, name in TRACED}

    texture_calls = [span for span in spans if span.name == "texture.compute_texture_map"]
    texture_time = sum(span.duration for span in texture_calls)
    texture_pixels = sum(span.detail["labels"].size for span in texture_calls)
    metrics["texture.mpix_s"] = texture_pixels / texture_time / 1e6 if texture_time else 0.0

    default_params = ek.FilterParams()
    filter_pixel_passes = 0
    pair_evals = 0
    for span in spans:
        if span.name == "filters.filter_image":
            params = span.detail["params"] or default_params
            filter_pixel_passes += span.detail["pixels"] * params.passes
            pair_evals += (span.detail["pixels"] * (2 * params.window_radius + 1) ** 2
                           * params.passes)
    filter_self = self_by_name.get("filters.filter_image", 0.0)
    metrics["filters.mpix_s"] = filter_pixel_passes / filter_self / 1e6 if filter_self else 0.0
    metrics["filters.pair_evals"] = pair_evals // n_ops

    class_counts = np.zeros(len(CLASS_NAMES), dtype=np.int64)
    differing = total = 0
    for span in texture_calls:
        if span.op not in first_ops:
            continue
        class_counts += np.bincount(span.detail["labels"].ravel(),
                                    minlength=len(CLASS_NAMES))[:len(CLASS_NAMES)]
        parent = tracer.spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name == "filters.filter_image":
            params = parent.detail["params"] or default_params
            d, t = cross_label_pairs(span.detail["labels"], params.window_radius,
                                     parent.detail["policy"])
            differing += d
            total += t
    labelled = int(class_counts.sum())
    for name, count in zip(CLASS_NAMES, class_counts):
        metrics[f"texture.class_frac.{name}"] = int(count) / labelled if labelled else 0.0
    metrics["filters.cross_label_frac"] = differing / total if total else 0.0
    metrics["texture.calls"] = sum(span.name.startswith("texture.") for span in spans) // n_ops

    traced_wall = sum(traced_ops.values())
    compute_self = sum(value for name, value in self_by_name.items()
                       if name.split(".")[0] in ("texture", "kernels", "filters"))
    metrics["trace.texture_filters_frac"] = compute_self / traced_wall
    traced_median = statistics.median(traced_ops.values())
    untraced_median = statistics.median(untraced_walls)
    metrics["trace.overhead_frac"] = (traced_median - untraced_median) / untraced_median
    return metrics
