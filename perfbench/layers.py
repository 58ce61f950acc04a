"""The per-layer metrics of the traced run, and what each should move.

Every entry is (name, unit, better, workload, moves):

- ``workload`` is the workload on which the metric is meant to be read; the
  benchmark's tests require it to get at least one span or count there.
- ``moves`` names the end-to-end metric, and the workload, that a change in
  this layer metric should show up in.

``BENCHMARK.json`` lists the same names, units and directions; a test keeps
the two in step.
"""

from __future__ import annotations

OPS = (
    "matmul", "gelu", "layer_norm", "softmax", "add_bias", "add", "scale", "mul_const",
    "concat", "narrow", "reshape", "transpose", "broadcast_batch", "batched_dot",
    "l2_normalize", "cross_entropy",
)

#: blocks of the eval model, the deepest one any workload builds
DEPTH = 4


def _op_metrics() -> list[tuple[str, str, str, str, str]]:
    rows = []
    for op in OPS:
        # attention dropout is off in every workload, so only the gradcheck
        # suite calls mul_const; only training computes a loss
        fwd_wl = {"mul_const": "gradcheck", "cross_entropy": "train_smoke"}.get(op, "eval_plain")
        bwd_wl = "gradcheck" if op == "mul_const" else "train_smoke"
        rows.append((f"tensor.fwd_ms.{op}", "ms", "lower", fwd_wl, "call_s on eval_plain"))
        rows.append((f"tensor.calls.{op}", "count", "lower", fwd_wl, "call_s on eval_select"))
        rows.append((f"tensor.bwd_ms.{op}", "ms", "lower", bwd_wl, "call_s on train_smoke"))
    return rows


def _block_metrics() -> list[tuple[str, str, str, str, str]]:
    rows = []
    for i in range(DEPTH):
        rows.append((f"backbone.block{i}.attn_ms", "ms", "lower", "eval_plain", "call_s on eval_plain"))
        rows.append((f"backbone.block{i}.mlp_ms", "ms", "lower", "eval_plain", "call_s on eval_plain"))
    return rows


METRICS: list[tuple[str, str, str, str, str]] = [
    *_op_metrics(),
    ("tensor.backward_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("tensor.backward_calls", "count", "lower", "train_smoke", "call_s on train_smoke"),
    ("tensor.graph_nodes_recorded", "count", "lower", "eval_plain",
     "call_s on eval_plain, eval_select and train_smoke; peak_rss_mb"),
    ("tensor.graph_nodes_used", "count", "lower", "train_smoke", "call_s on train_smoke"),
    ("tensor.graph_nodes_unused", "count", "lower", "eval_plain",
     "call_s on eval_plain, eval_select and train_smoke; peak_rss_mb"),
    ("backbone.patch_embed_ms", "ms", "lower", "eval_plain", "call_s on eval_plain and train_smoke"),
    ("backbone.encoder_ms", "ms", "lower", "eval_plain", "call_s on eval_plain and train_smoke"),
    *_block_metrics(),
    ("model.forward_ms", "ms", "lower", "eval_plain", "call_s on eval_plain"),
    ("model.assemble_ms", "ms", "lower", "eval_plain", "call_s on eval_plain"),
    ("model.head_ms", "ms", "lower", "eval_plain", "call_s on eval_plain"),
    ("model.loss_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("model.forward_calls", "count", "lower", "eval_select", "call_s on eval_select"),
    ("model.images_per_forward", "images", "higher", "eval_select", "call_s on eval_select"),
    ("selection.select_ms", "ms", "lower", "eval_select", "call_s on eval_select"),
    ("selection.select_calls", "count", "lower", "eval_select", "call_s on eval_select"),
    ("selection.zero_shot_ms", "ms", "lower", "eval_select", "call_s on eval_select"),
    ("selection.selected_bank_ms", "ms", "lower", "eval_select", "call_s on eval_select"),
    ("selection.recall_at_k", "ratio", "higher", "eval_select", "none: outcome of the filter"),
    ("prompts.image_encode_ms", "ms", "lower", "eval_select", "call_s on eval_select"),
    ("prompts.image_encode_calls", "count", "lower", "eval_select", "call_s on eval_select"),
    ("prompts.build_bank_ms", "ms", "lower", "eval_plain", "setup_s"),
    ("dataset.generate_ms", "ms", "lower", "eval_plain", "setup_s"),
    ("dataset.load_ms", "ms", "lower", "eval_plain", "setup_s"),
    ("dataset.normalize_ms", "ms", "lower", "eval_plain", "call_s on every image workload"),
    ("dataset.batches", "count", "lower", "eval_plain", "call_s on every image workload"),
    ("trainer.adam_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("trainer.adam_calls", "count", "lower", "train_smoke", "call_s on train_smoke"),
    ("trainer.mixup_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("trainer.epoch_eval_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("checkpoint.save_ms", "ms", "lower", "train_smoke", "call_s on train_smoke"),
    ("checkpoint.saves", "count", "lower", "train_smoke", "call_s on train_smoke"),
    ("checkpoint.bytes_written", "bytes", "lower", "train_smoke", "call_s on train_smoke"),
    ("gradcheck.op_checks_ms", "ms", "lower", "gradcheck", "call_s on gradcheck"),
    ("gradcheck.model_check_ms", "ms", "lower", "gradcheck", "call_s on gradcheck"),
    ("gradcheck.loss_evals", "count", "lower", "gradcheck", "call_s on gradcheck"),
    ("trace.overhead_ratio", "ratio", "lower", "*", "none: cost of tracing itself"),
]

UNITS = {name: unit for name, unit, *_ in METRICS}
