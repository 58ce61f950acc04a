"""Time ivit's layers from outside the package.

`Tracer.install()` swaps wrappers in for the public functions and methods of
the ``ivit`` modules, at every place a module binds them (``ivit.trainer``
imports ``select``, ``evaluate`` calls ``adam_step`` as a module global, and
so on), and `Tracer.uninstall()` puts the originals back. Nothing under
``src/`` changes.

Each wrapper records a span ``[name, start, end, parent, call, extra]`` in a
list of the thread that ran it. Spans stay in memory until `write()` dumps
them once, at the end of a run. ``evaluate()`` runs batches on a thread
pool that does not carry context over, so every thread keeps its own span
stack; busy time summed across threads can exceed wall time.

What a wrapper cannot see from outside, it gets by other means:

- special methods are looked up on the type, so ``Block`` and
  ``MultiHeadAttention`` are timed by patching the class ``__call__``;
- ``model.head`` shares ``Linear.__call__`` with every other linear layer,
  so it is timed through a delegating proxy set on each model that runs a
  forward while tracing;
- backward time per op comes from wrapping the ``_backward`` closure that
  each op leaves on its output.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from layers import DEPTH, OPS

# span record fields
NAME, START, END, PARENT, CALL, EXTRA = range(6)


class _HeadProxy:
    """Stands in for ``model.head``: times the call, delegates everything else."""

    def __init__(self, tracer: "Tracer", inner):
        self._tracer = tracer
        self._inner = inner

    def __call__(self, x):
        rec = self._tracer.begin("model.head")
        try:
            return self._inner(x)
        finally:
            self._tracer.end(rec)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, labels: dict[int, int] | None = None):
        #: hash of a raw image's bytes -> its true class, for selection recall
        self.labels = labels or {}
        #: tag stored on every span: 0 while tracing a set-up, else the call number
        self.call = 0
        self.t0 = perf_counter()
        self._local = threading.local()
        self._threads: list[tuple[str, list]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._heads: list[tuple[object, object]] = []
        self._block_index: dict[int, int] = {}

    # -- spans ----------------------------------------------------------------

    def _stacks(self) -> tuple[list, list]:
        loc = self._local
        spans = getattr(loc, "spans", None)
        if spans is None:
            spans = loc.spans = []
            loc.stack = []
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return spans, loc.stack

    def begin(self, name: str) -> list:
        spans, stack = self._stacks()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._local.stack.pop()

    def _timed(self, name: str):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(rec)
            return wrapper
        return factory

    # -- wrappers that record more than a span ---------------------------------

    def _op(self, op: str):
        fwd, bwd = f"tensor.fwd.{op}", f"tensor.bwd.{op}"

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = self.begin(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end(rec)
                closure = out._backward
                if closure is not None:
                    rec[EXTRA] = 1  # one graph node recorded
                    out._backward = self._timed(bwd)(closure)
                return out
            return wrapper
        return factory

    def _encoder(self, fn):
        @functools.wraps(fn)
        def wrapper(backbone, *args, **kwargs):
            for i, block in enumerate(backbone.blocks):
                self._block_index[id(block)] = i
                self._block_index[id(block.attn)] = i
            rec = self.begin("backbone.encoder")
            try:
                return fn(backbone, *args, **kwargs)
            finally:
                self.end(rec)
        return wrapper

    def _indexed(self, kind: str):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(layer, *args, **kwargs):
                rec = self.begin(f"backbone.{kind}{self._block_index.get(id(layer), -1)}")
                try:
                    return fn(layer, *args, **kwargs)
                finally:
                    self.end(rec)
            return wrapper
        return factory

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, images, *args, **kwargs):
            with self._lock:
                if not isinstance(model.head, _HeadProxy):
                    self._heads.append((model, model.head))
                    model.head = _HeadProxy(self, model.head)
            rec = self.begin("model.forward")
            rec[EXTRA] = images.shape[0]
            try:
                return fn(model, images, *args, **kwargs)
            finally:
                self.end(rec)
        return wrapper

    def _select(self, fn):
        @functools.wraps(fn)
        def wrapper(image, *args, **kwargs):
            rec = self.begin("selection.select")
            try:
                out = fn(image, *args, **kwargs)
            finally:
                self.end(rec)
            label = self.labels.get(hash(np.asarray(image).tobytes()))
            if label is not None:
                rec[EXTRA] = int(label in out.kept_indices)
            return out
        return wrapper

    def _save(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            rec = self.begin("checkpoint.save")
            try:
                fn(path, *args, **kwargs)
            finally:
                self.end(rec)
            rec[EXTRA] = os.path.getsize(path)
        return wrapper

    def _check_gradients(self, fn):
        count = self._timed("gradcheck.loss_eval")

        @functools.wraps(fn)
        def wrapper(build_loss, *args, **kwargs):
            return fn(count(build_loss), *args, **kwargs)
        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for everything the trace times."""
        from ivit import backbone, checkpoint, dataset, gradcheck, model, prompts, selection, tensor, trainer

        t = self._timed
        out = [(tensor, op, self._op(op)) for op in OPS]
        out += [
            (tensor, "backward", t("tensor.backward")),
            (backbone.Backbone, "patch_embed", t("backbone.patch_embed")),
            (backbone.Backbone, "encoder_forward", self._encoder),
            (backbone.Block, "__call__", self._indexed("block")),
            (backbone.MultiHeadAttention, "__call__", self._indexed("attn")),
            (model.InstructionModel, "forward", self._forward),
            (model.InstructionModel, "assemble", t("model.assemble")),
            (model.InstructionModel, "loss_pred", t("model.loss")),
            (model.InstructionModel, "loss_score", t("model.loss")),
            (model.InstructionModel, "combine_losses", t("model.loss")),
            (selection, "select", self._select),
            (selection, "zero_shot_scores", t("selection.zero_shot")),
            (selection, "selected_bank", t("selection.selected_bank")),
            (prompts, "toy_image_encode", t("prompts.image_encode")),
            (prompts, "build_text_bank", t("prompts.build_bank")),
            (prompts, "build_image_bank", t("prompts.build_bank")),
            (prompts, "build_mixed_bank", t("prompts.build_bank")),
            (dataset, "generate_synthetic", t("dataset.generate")),
            (dataset, "load", t("dataset.load")),
            (dataset.SyntheticDataset, "normalize", t("dataset.normalize")),
            (trainer, "train", t("trainer.train")),
            (trainer, "evaluate", t("trainer.evaluate")),
            (trainer, "adam_step", t("trainer.adam")),
            (trainer, "mixup", t("trainer.mixup")),
            (checkpoint, "save_checkpoint", self._save),
            (gradcheck, "run_op_checks", t("gradcheck.op_checks")),
            (gradcheck, "run_model_check", t("gradcheck.model_check")),
            (gradcheck, "check_gradients", self._check_gradients),
        ]
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ivit" or name.startswith("ivit.")]
        for owner, attr, factory in self._targets():
            original = vars(owner)[attr]
            wrapped = factory(original)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules if any(v is original for v in vars(m).values())]
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, name, wrapped)
                        self._patches.append((site, name, original))

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        for model, head in self._heads:
            model.head = head
        self._patches.clear()
        self._heads.clear()

    # -- results -------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Every span as (id, name, start_s, end_s, parent_id, call, thread, extra)."""
        out = []
        for thread, recs in self._threads:
            base = len(out)
            for rec in list(recs):
                parent = rec[PARENT] + base if rec[PARENT] >= 0 else -1
                out.append((len(out), rec[NAME], rec[START] - self.t0, rec[END] - self.t0,
                            parent, rec[CALL], thread, rec[EXTRA]))
        return out

    def totals(self, n_calls: int, n_setups: int = 1) -> dict[str, list[float]]:
        """name -> [seconds, count, extra sum, self seconds], per set-up or per call.

        Spans tagged 0 were recorded during a traced set-up and are divided by
        ``n_setups``; the rest by ``n_calls``. An ``evaluate`` span whose parent
        is ``train`` counts as ``trainer.epoch_eval``.
        """
        spans = self.spans()
        child_time = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        sums: dict[tuple[str, bool], list[float]] = defaultdict(lambda: [0.0, 0, 0, 0.0])
        for sid, name, start, end, parent, call, _, extra in spans:
            if name == "trainer.evaluate" and parent >= 0 and spans[parent][1] == "trainer.train":
                name = "trainer.epoch_eval"
            row = sums[(name, call == 0)]
            row[0] += end - start
            row[1] += 1
            row[2] += extra or 0
            row[3] += end - start - child_time[sid]
        tot: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
        for (name, in_setup), row in sums.items():
            n = n_setups if in_setup else n_calls
            tot[name] = [a + b / n for a, b in zip(tot[name], row)]
        return tot

    def threads(self) -> int:
        return len(self._threads)

    def write(self, path: str, header: dict) -> None:
        """Dump every span once, as gzipped JSON; times are seconds since the tracer was made."""
        doc = dict(header)
        doc["columns"] = ["id", "name", "start_s", "end_s", "parent", "call", "thread", "extra"]
        doc["spans"] = [[sid, name, round(a, 7), round(b, 7), p, c, th, x]
                        for sid, name, a, b, p, c, th, x in self.spans()]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))


def layer_metrics(tot: dict[str, list[float]], overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics listed in ``layers.METRICS``, from `Tracer.totals`."""
    def ms(name):
        return tot[name][0] * 1e3 if name in tot else 0.0

    def count(name):
        return tot[name][1] if name in tot else 0.0

    def extra(name):
        return tot[name][2] if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for op in OPS:
        m[f"tensor.fwd_ms.{op}"] = ms(f"tensor.fwd.{op}")
        m[f"tensor.calls.{op}"] = count(f"tensor.fwd.{op}")
        m[f"tensor.bwd_ms.{op}"] = ms(f"tensor.bwd.{op}")
    recorded = sum(extra(f"tensor.fwd.{op}") for op in OPS)
    used = sum(count(f"tensor.bwd.{op}") for op in OPS)
    m["tensor.backward_ms"] = ms("tensor.backward")
    m["tensor.backward_calls"] = count("tensor.backward")
    m["tensor.graph_nodes_recorded"] = recorded
    m["tensor.graph_nodes_used"] = used
    m["tensor.graph_nodes_unused"] = recorded - used
    m["backbone.patch_embed_ms"] = ms("backbone.patch_embed")
    m["backbone.encoder_ms"] = ms("backbone.encoder")
    for i in range(DEPTH):
        m[f"backbone.block{i}.attn_ms"] = ms(f"backbone.attn{i}")
        # the rest of the block: both layer norms, the MLP and the residual adds
        m[f"backbone.block{i}.mlp_ms"] = ms(f"backbone.block{i}") - ms(f"backbone.attn{i}")
    m["model.forward_ms"] = ms("model.forward")
    m["model.assemble_ms"] = ms("model.assemble")
    m["model.head_ms"] = ms("model.head")
    m["model.loss_ms"] = ms("model.loss")
    m["model.forward_calls"] = count("model.forward")
    m["model.images_per_forward"] = ratio(extra("model.forward"), count("model.forward"))
    m["selection.select_ms"] = ms("selection.select")
    m["selection.select_calls"] = count("selection.select")
    m["selection.zero_shot_ms"] = ms("selection.zero_shot")
    m["selection.selected_bank_ms"] = ms("selection.selected_bank")
    m["selection.recall_at_k"] = ratio(extra("selection.select"), count("selection.select"))
    m["prompts.image_encode_ms"] = ms("prompts.image_encode")
    m["prompts.image_encode_calls"] = count("prompts.image_encode")
    m["prompts.build_bank_ms"] = ms("prompts.build_bank")
    m["dataset.generate_ms"] = ms("dataset.generate")
    m["dataset.load_ms"] = ms("dataset.load")
    m["dataset.normalize_ms"] = ms("dataset.normalize")
    m["dataset.batches"] = count("dataset.normalize")
    m["trainer.adam_ms"] = ms("trainer.adam")
    m["trainer.adam_calls"] = count("trainer.adam")
    m["trainer.mixup_ms"] = ms("trainer.mixup")
    m["trainer.epoch_eval_ms"] = ms("trainer.epoch_eval")
    m["checkpoint.save_ms"] = ms("checkpoint.save")
    m["checkpoint.saves"] = count("checkpoint.save")
    m["checkpoint.bytes_written"] = extra("checkpoint.save")
    m["gradcheck.op_checks_ms"] = ms("gradcheck.op_checks")
    m["gradcheck.model_check_ms"] = ms("gradcheck.model_check")
    m["gradcheck.loss_evals"] = count("gradcheck.loss_eval")
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def self_time_by_layer(tot: dict[str, list[float]]) -> dict[str, float]:
    """Self milliseconds per layer (the module a span name starts with)."""
    out: dict[str, float] = defaultdict(float)
    for name, row in tot.items():
        out[name.split(".", 1)[0]] += row[3] * 1e3
    return dict(out)
