"""Which bqrnet functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Layer metric -> the end-to-end metric it should move, and on which workload
(``ms_per_op`` is ms per epoch on the training workloads and ms per command
on the CLI workloads; ``rows_per_s`` moves with it):

- network.forward_cached.{p50_us,p99_us,gflop_s},
  network.backprop_from_outputs.{p50_us,p99_us,gflop_s}
      -> ms_per_op on train-wide most, on train-d1 less.
- network.apply_step.p50_us -> ms_per_op on train-d1.
- network.forward.us_per_row -> ms_per_op on train-d1 and train-wide
      (per-epoch eval forward) and on evaluate-d1.
- network.load_checkpoint.ms -> ms_per_op on evaluate-d1 and smooth-d1,
      slightly.
- losses.total_loss.p50_us, losses.total_grad.p50_us,
  losses.backward.self_p50_us, losses.share
      -> ms_per_op on train-d1; little on train-wide.
- training.estimate_kz.{p50_us,calls} -> ms_per_op on train-d1; calls is 0
      on train-wide (fixed learning rate) and equals training.epochs on
      train-d1.
- training.eval_forward.share (time in bqrnet.training.forward over time in
      train) -> ms_per_op on both training workloads.
- training.train.self_share (loop glue: permutation, fancy indexing)
      -> ms_per_op on train-d1.
- training.epochs_to_target, training.batches: exact counts of solver
      iterations until training-set accuracy first reaches 0.9; they repeat
      exactly for a seed.
- smoothing.delta_scores.us_per_row, smoothing.delta_score.calls
      -> ms_per_op on evaluate-d1.
- smoothing.{smooth,conditional_mean,conditional_stat,prediction_interval,
  delta_score}.p50_us, smoothing.share -> ms_per_op on smooth-d1.
- metrics.{coverage,delta_report,roc_auc}.ms -> ms_per_op on evaluate-d1.
- datasets.{gen_dataset,threshold_labels,train_test_split}.ms -> setup_s on
      the training workloads; datasets.{gen_dataset,threshold_labels,
      normalize_for_coverage}.ms -> ms_per_op on the CLI workloads, because
      each command generates its rows.
- cli.evaluate.self_share, cli.smooth.self_share (time in main that its
      traced children do not cover: argument parsing, the per-row loop and
      CSV writing) -> ms_per_op on evaluate-d1 and smooth-d1.
- trace.overhead_ratio, trace.setup_overhead_ratio: traced over untraced
      ms_per_op and in-process set-up time, in the same process.

A metric of a function the workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np
from bqrnet import cli, datasets, losses, metrics, network, smoothing, training

from tracing import END, NAME, PARENT, ROWS, START, self_times_ns


def _rows_of_second(args):
    return len(args[1])


def _rows_of_first(args):
    return len(args[0])


def _cli_span(args):
    return "cli." + args[0][0] if args and args[0] else "cli.main"


SETUP_TARGETS = [
    (datasets, "gen_dataset", "datasets.gen_dataset", None),
    (datasets, "threshold_labels", "datasets.threshold_labels", None),
    (datasets, "train_test_split", "datasets.train_test_split", None),
    (datasets, "normalize_for_coverage", "datasets.normalize_for_coverage",
     None),
]

# Each target is patched where its callers look it up: training imported
# forward and apply_step from network into its own namespace, and
# losses.backward imports forward_cached from network at call time.
LOOP_TARGETS = SETUP_TARGETS + [
    (losses, "backward", "losses.backward", None),
    (losses, "total_loss", "losses.total_loss", None),
    (losses, "total_grad", "losses.total_grad", None),
    (network, "forward_cached", "network.forward_cached", None),
    (network, "backprop_from_outputs", "network.backprop_from_outputs", None),
    (network, "forward", "network.forward", _rows_of_second),
    (network, "load_checkpoint", "network.load_checkpoint", None),
    (training, "forward", "network.forward", _rows_of_second),
    (training, "apply_step", "network.apply_step", None),
    (training, "estimate_kz", "training.estimate_kz", None),
    (training, "train", "training.train", None),
    (smoothing, "smooth", "smoothing.smooth", None),
    (smoothing, "conditional_mean", "smoothing.conditional_mean", None),
    (smoothing, "conditional_stat", "smoothing.conditional_stat", None),
    (smoothing, "prediction_interval", "smoothing.prediction_interval", None),
    (smoothing, "delta_score", "smoothing.delta_score", None),
    (smoothing, "delta_scores", "smoothing.delta_scores", _rows_of_first),
    (metrics, "coverage", "metrics.coverage", None),
    (metrics, "accuracy", "metrics.accuracy", None),
    (metrics, "delta_report", "metrics.delta_report", None),
    (metrics, "roc_auc", "metrics.roc_auc", None),
    (metrics, "summary_json", "metrics.summary_json", None),
    (cli, "main", _cli_span, None),
]


def mlp_flops(input_dim, trunk, heads, n):
    """Computed (not measured) floating-point operations of forward_cached
    and backprop_from_outputs on an n-row batch.

    A matmul of (n, a) by (a, b) counts 2nab; a bias add, ReLU, ReLU mask
    product or column sum counts one per element.
    """
    dims = list(zip([input_dim] + list(trunk), trunk))
    top = trunk[-1]
    fwd = sum(2 * n * i * o + 2 * n * o for i, o in dims) \
        + 2 * n * top * heads + n * heads
    bwd = 4 * n * top * heads + n * heads \
        + sum(4 * n * i * o + 2 * n * o for i, o in dims)
    return fwd, bwd


class _Spans:
    """Per-name durations, self times, parents and row counts of a span list."""

    def __init__(self, spans):
        selfs = self_times_ns(spans)
        self.by_name = {}
        for s, own in zip(spans, selfs):
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            entry = self.by_name.setdefault(
                s[NAME], {"dur": [], "self": [], "parent": [], "rows": 0})
            entry["dur"].append(s[END] - s[START])
            entry["self"].append(own)
            entry["parent"].append(parent)
            entry["rows"] += s[ROWS]

    def _get(self, name, key):
        return self.by_name.get(name, {}).get(key, [])

    def durations(self, name):
        return self._get(name, "dur")

    def calls(self, name):
        return len(self.durations(name))

    def pct_us(self, name, q, key="dur"):
        vals = self._get(name, key)
        return float(np.percentile(vals, q)) / 1e3 if vals else 0.0

    def total_ns(self, name, key="dur"):
        return float(sum(self._get(name, key)))

    def self_ns_prefix(self, prefix):
        return sum(self.total_ns(n, "self") for n in self.by_name
                   if n.startswith(prefix))

    def per_row_us(self, name):
        rows = self.by_name.get(name, {}).get("rows", 0)
        return self.total_ns(name) / rows / 1e3 if rows else 0.0

    def dur_under_ns(self, name, parent):
        entry = self.by_name.get(name)
        if not entry:
            return 0.0
        return float(sum(d for d, p in zip(entry["dur"], entry["parent"])
                         if p == parent))


def per_layer_metrics(loop_spans, setup_spans, info):
    """Per-layer metrics as {name: (value, unit)}.

    ``loop_spans`` come from the traced timed loop, whose operations are
    root spans named "op"; ``setup_spans`` from one traced set-up. ``info``
    carries what the workload knows: computed FLOPs per full batch, epochs
    traced, epochs to target, batches per epoch and the overhead ratios.
    """
    loop = _Spans(loop_spans)
    setup = _Spans(setup_spans)
    op_ns = loop.total_ns("op")

    def share(ns):
        return ns / op_ns if op_ns else 0.0

    def gflop_s(name, flops):
        p50 = loop.pct_us(name, 50)
        return flops / (p50 * 1e3) if p50 else 0.0

    out = {}
    for name, flops in (("network.forward_cached", info["fwd_flops"]),
                        ("network.backprop_from_outputs", info["bwd_flops"])):
        out[f"{name}.p50_us"] = (loop.pct_us(name, 50), "us")
        out[f"{name}.p99_us"] = (loop.pct_us(name, 99), "us")
        out[f"{name}.gflop_s"] = (gflop_s(name, flops), "GFLOP/s")
    out["network.apply_step.p50_us"] = (
        loop.pct_us("network.apply_step", 50), "us")
    out["network.forward.us_per_row"] = (
        loop.per_row_us("network.forward"), "us")
    out["network.load_checkpoint.ms"] = (
        loop.pct_us("network.load_checkpoint", 50) / 1e3, "ms")

    out["losses.total_loss.p50_us"] = (loop.pct_us("losses.total_loss", 50),
                                       "us")
    out["losses.total_grad.p50_us"] = (loop.pct_us("losses.total_grad", 50),
                                       "us")
    out["losses.backward.self_p50_us"] = (
        loop.pct_us("losses.backward", 50, key="self"), "us")
    out["losses.share"] = (share(loop.self_ns_prefix("losses.")), "ratio")

    out["training.estimate_kz.p50_us"] = (
        loop.pct_us("training.estimate_kz", 50), "us")
    out["training.estimate_kz.calls"] = (
        loop.calls("training.estimate_kz"), "count")
    train_ns = loop.total_ns("training.train")
    eval_ns = loop.dur_under_ns("network.forward", "training.train")
    out["training.eval_forward.share"] = (
        eval_ns / train_ns if train_ns else 0.0, "ratio")
    out["training.train.self_share"] = (
        share(loop.total_ns("training.train", "self")), "ratio")
    out["training.epochs"] = (info["epochs_traced"], "count")
    out["training.epochs_to_target"] = (info["epochs_to_target"], "count")
    out["training.batches"] = (
        info["epochs_to_target"] * info["batches_per_epoch"], "count")

    out["smoothing.delta_scores.us_per_row"] = (
        loop.per_row_us("smoothing.delta_scores"), "us")
    out["smoothing.delta_score.calls"] = (
        loop.calls("smoothing.delta_score"), "count")
    for fn in ("smooth", "conditional_mean", "conditional_stat",
               "prediction_interval", "delta_score"):
        out[f"smoothing.{fn}.p50_us"] = (loop.pct_us(f"smoothing.{fn}", 50),
                                         "us")
    out["smoothing.share"] = (share(loop.self_ns_prefix("smoothing.")),
                              "ratio")

    for fn in ("coverage", "delta_report", "roc_auc"):
        out[f"metrics.{fn}.ms"] = (loop.pct_us(f"metrics.{fn}", 50) / 1e3,
                                   "ms")
    for fn in ("gen_dataset", "threshold_labels", "train_test_split",
               "normalize_for_coverage"):
        durs = setup.durations(f"datasets.{fn}") \
            + loop.durations(f"datasets.{fn}")
        out[f"datasets.{fn}.ms"] = (
            float(np.median(durs)) / 1e6 if durs else 0.0, "ms")
    for cmd in ("evaluate", "smooth"):
        out[f"cli.{cmd}.self_share"] = (
            share(loop.total_ns(f"cli.{cmd}", "self")), "ratio")

    out["trace.overhead_ratio"] = (info["overhead_ratio"], "ratio")
    out["trace.setup_overhead_ratio"] = (info["setup_overhead_ratio"],
                                         "ratio")
    return out
