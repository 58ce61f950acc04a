"""Optimization loop and evaluation.

Adam with bias correction, a linear-warmup + cosine-decay schedule (warmup
rises from 0 to the peak over the warmup epochs, the cosine then lands
exactly on the floor at the last step), per-batch mixup, and two tuning
regimes: `full` trains everything, `prompt_tuning` trains only the
classification head and the prompt projection while the backbone stays
bit-frozen. `config.TRAINABLE` maps each regime to the parameter-name prefixes
the optimizer updates. Prompt-bank features are data, never parameters, in both.

Mixup blends each batch with a permutation of itself: the training rng draws
the permutation, then lambda from Beta(alpha, alpha), and `mixup` returns the
blended images with their soft labels. It runs only when ``mixup_alpha > 0``.

Per-epoch metrics (losses averaged over the training batches, top-1
accuracies from an evaluation pass over the train split) go to a CSV with
one column per `EpochMetrics` field, in field order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import _blas
from . import tensor as T
from ._atomic import write_atomic
from .checkpoint import save_checkpoint
from .config import TRAINABLE, ModelConfig, TrainConfig
from .dataset import LabeledBatch, SyntheticDataset, check_batch_size
from .errors import ConfigError, ConsistencyError, NonFiniteError, ShapeError
from .model import ForwardOutput, InstructionModel, one_hot
from .prompts import PromptBank
from .selection import predict_scores, select, selected_bank
from .tensor import Tensor


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Learning rate at a global step in [0, total_steps].

    Warmup is linear from 0, reaching peak_lr exactly at the end of the
    warmup span; afterwards cosine decay reaches floor_lr exactly at
    total_steps, where ``math.cos(math.pi) == -1.0``. The junction is continuous.
    """
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = round(total_steps * cfg.warmup_epochs / cfg.epochs)
    if step < warmup_steps:
        lr = cfg.peak_lr * step / warmup_steps
        # peak_lr * step overflows only for a peak_lr near the float maximum
        return lr if math.isfinite(lr) else cfg.peak_lr * (step / warmup_steps)
    if step == warmup_steps:
        return cfg.peak_lr
    t = (step - warmup_steps) / (total_steps - warmup_steps)
    lr = cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * 0.5 * (1.0 + math.cos(math.pi * t))
    return min(lr, cfg.peak_lr)  # floor + (peak - floor) can round one ulp past peak


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place; ``grads`` holds a gradient for every entry of ``params``."""
    state.t += 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def mixup(batch: LabeledBatch, alpha: float, rng: np.random.Generator,
          n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Blend the batch with a permutation of itself by one Beta(alpha, alpha) draw.

    Draws the permutation, then lambda; returns the blended images and their
    soft labels, ``lam * one_hot(labels) + (1 - lam) * one_hot(labels[perm])``.
    """
    perm = rng.permutation(len(batch))
    lam = float(rng.beta(alpha, alpha))
    images = lam * batch.images + (1.0 - lam) * batch.images[perm]
    labels = batch.hard_labels
    soft = lam * one_hot(labels, n_classes) + (1.0 - lam) * one_hot(labels[perm], n_classes)
    return images.astype(np.float32), soft


@dataclass
class EpochMetrics:
    epoch: int
    loss_pred: float
    loss_score: float
    loss_total: float
    head_top1: float
    score_top1: float
    lr: float

    def csv_row(self) -> str:
        return ",".join(format(getattr(self, name), ".6g" if kind is float else "")
                        for name, kind in _METRIC_TYPES.items())


_METRIC_TYPES = get_type_hints(EpochMetrics)
METRICS_HEADER = ",".join(_METRIC_TYPES)


@dataclass
class EvalMetrics:
    head_top1: float
    score_top1: float
    n_samples: int


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale


def _selected_forwards(model: InstructionModel, batch: LabeledBatch, bank: PromptBank, k: int,
                       dropout_rng: np.random.Generator | None = None):
    """Per image: ``select``, its ``selected_bank`` and one batch-size-1 forward.

    Yields ``(output, labels [1], classes [K])`` in batch order, as `_hits`
    takes them: score column ``j`` stands for class ``classes[j]``.
    """
    for i in range(len(batch)):
        sel = select(batch.raw_images[i], bank, k)
        out = model.forward(batch.images[i : i + 1], selected_bank(sel), dropout_rng)
        yield out, batch.hard_labels[i : i + 1], np.array(sel.kept_indices)


def _selected_batch_loss(model: InstructionModel, batch: LabeledBatch, bank: PromptBank, k: int,
                         dropout_rng: np.random.Generator) -> tuple[Tensor, float, float]:
    """Per-image selection during training (the ablation path).

    Each image sees only its own top-k prompts plus the remainder token.
    ``loss_pred`` runs over every image's logits, ``loss_score`` over the
    score rows of the samples whose true class survived the filter, each
    with that class's column; it is skipped when none did. Returns what
    ``total_loss`` does.
    """
    logits: list[Tensor] = []
    scores: list[Tensor] = []
    cols: list[np.ndarray] = []
    for out, labels, classes in _selected_forwards(model, batch, bank, k, dropout_rng):
        logits.append(out.logits)
        col = np.flatnonzero(classes == labels[0])
        if col.size:
            scores.append(out.score)
            cols.append(col)
    pred = model.loss_pred(T.concat(logits, axis=0), batch.hard_labels)
    score = model.loss_score(T.concat(scores, axis=0), np.concatenate(cols)) if scores else None
    loss = model.combine_losses(pred, score)
    return loss, pred.item(), score.item() if score is not None else 0.0


def _train_step(model: InstructionModel, trainable: dict[str, Tensor], state: AdamState,
                batch: LabeledBatch, images: np.ndarray, target, bank: PromptBank,
                dropout_rng: np.random.Generator, lr: float, cfg: TrainConfig) -> tuple[float, float, float]:
    """Forward, backward and one Adam update; returns the step's (loss_pred, loss_score, loss_total).

    Only floats leave this frame, so the step's graph and every array it
    holds are freed when it returns, not kept through the epoch's evaluation
    and checkpoint writes. A non-finite loss raises ``NonFiniteError`` before
    the backward.
    """
    if model.config.select_in_training:
        loss, pred_val, score_val = _selected_batch_loss(model, batch, bank, model.config.select_k, dropout_rng)
    else:
        loss, pred_val, score_val = model.total_loss(model.forward(images, bank.features, dropout_rng), target)
    total = loss.item()
    if not math.isfinite(total):
        raise NonFiniteError(f"training loss is {total}")
    leaf_grads = T.backward(loss)
    grads = {name: leaf_grads[p] for name, p in trainable.items()}
    if cfg.grad_clip > 0:
        _clip_grads(grads, cfg.grad_clip)
    adam_step(trainable, grads, state, lr, cfg)
    return pred_val, score_val, total


def apply_freeze(model: InstructionModel, regime: str) -> tuple[dict[str, Tensor], int, int]:
    """Mark the parameters ``regime`` freezes as non-differentiable; returns (trainable, n_train, n_total)."""
    trainable: dict[str, Tensor] = {}
    n_total = 0
    n_train = 0
    for name, p in model.named_parameters():
        n_total += p.size
        if name.startswith(TRAINABLE[regime]):
            p.requires_grad = True
            trainable[name] = p
            n_train += p.size
        else:
            p.requires_grad = False
    return trainable, n_train, n_total


def check_agreement(cfg: ModelConfig, dataset: SyntheticDataset, bank: PromptBank) -> None:
    """Raise ``ConsistencyError``, naming both sides, unless a model of ``cfg``, ``dataset`` and ``bank`` fit.

    They fit when the dataset and the bank list the same classes, ``cfg.n_classes == bank.n_classes``,
    ``(cfg.channels, cfg.image_size)`` are the dataset's and ``cfg.prompt_dim == bank.dim``.
    """
    if dataset.class_names != bank.class_names:
        raise ConsistencyError(f"dataset classes {dataset.class_names} do not match bank classes {bank.class_names}")
    if cfg.n_classes != bank.n_classes:
        raise ConsistencyError(f"model head has {cfg.n_classes} classes, the bank {bank.n_classes}")
    meta = dataset.meta
    if (cfg.channels, cfg.image_size) != (meta.channels, meta.image_size):
        raise ConsistencyError(
            f"model image geometry {cfg.channels}x{cfg.image_size} does not match "
            f"dataset {meta.channels}x{meta.image_size}"
        )
    if cfg.prompt_dim != bank.dim:
        raise ConsistencyError(f"bank feature width {bank.dim} != configured prompt_dim {cfg.prompt_dim}")


def train(model: InstructionModel, dataset: SyntheticDataset, bank: PromptBank,
          cfg: TrainConfig, out_dir: str | None = None,
          stop_at_head_top1: float | None = None) -> list[EpochMetrics]:
    """Run the full loop; returns the per-epoch metrics history.

    Before any work, `check_agreement` rejects a model, dataset and bank that
    disagree (class lists, head width, image geometry, prompt width) with
    ``ConsistencyError``, a ``select_in_training`` model with
    ``select_k < 1`` or mixup on raises ``ConfigError``, and a seed numpy
    cannot seed from (a negative one) raises numpy's ``ValueError``: a
    rejected call makes no directory, changes no flag and runs no forward.

    Every training forward gets ``bank``'s feature rows and the run's
    attention-dropout rng as arguments; the model keeps neither. When ``out_dir`` is set, a
    checkpoint lands there every epoch plus a final ``metrics.csv``. A
    floating-point overflow, invalid value or division by zero in a step
    (forward, loss, backward, clipping, Adam), a non-finite step loss, or a
    trainable parameter that is not finite at the end of an epoch, raises
    ``NonFiniteError`` before anything more is written. ``stop_at_head_top1``
    ends training early once the train-split accuracy reaches the threshold
    (used by smoke tests). numpy's OpenBLAS is held at one thread for the
    whole epoch loop (see `_blas`), and its previous count comes back after.

    The per-epoch evaluation runs with every parameter at
    ``requires_grad=False``, so it records no graph and holds activations
    only. However `train` returns or raises, each parameter's flag is then
    what `apply_freeze` set for ``cfg.regime``.
    """
    check_agreement(model.config, dataset, bank)
    _eval_workers()  # a bad IVIT_THREADS fails here, not at the first epoch's eval
    if model.config.select_in_training:
        if model.config.select_k < 1:
            raise ConfigError("select_in_training needs select_k >= 1")
        if cfg.mixup_alpha > 0:
            raise ConfigError("select_in_training with mixup is undefined; set mixup_alpha=0")

    # numpy rejects a negative seed here, before any flag changes
    rng = np.random.default_rng([cfg.seed, 0x7EA1])
    dropout_rng = np.random.default_rng([cfg.seed, 0xD120])
    trainable, _, _ = apply_freeze(model, cfg.regime)
    state = AdamState()

    steps_per_epoch = -(-dataset.meta.n_train // cfg.batch_size)  # exact for any int, unlike a float quotient
    total_steps = steps_per_epoch * cfg.epochs
    global_step = 0
    history: list[EpochMetrics] = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    # the steps' GEMMs are too small for BLAS threads to pay, and workers they
    # wake keep spinning next to the per-epoch eval's pool
    with _blas.single_threaded():
        for epoch in range(1, cfg.epochs + 1):
            sums = {"pred": 0.0, "score": 0.0, "total": 0.0}
            for batch in dataset.train_batches(cfg.batch_size, rng=rng):
                global_step += 1
                images, target = batch.images, batch.hard_labels
                if cfg.mixup_alpha > 0:
                    images, target = mixup(batch, cfg.mixup_alpha, rng, dataset.n_classes)
                lr = lr_at(global_step, total_steps, cfg)
                try:
                    with np.errstate(over="raise", invalid="raise", divide="raise"):
                        pred_val, score_val, total = _train_step(
                            model, trainable, state, batch, images, target, bank, dropout_rng, lr, cfg)
                except (FloatingPointError, NonFiniteError) as e:
                    raise NonFiniteError(f"epoch {epoch}, step {global_step}: {e}") from e

                sums["pred"] += pred_val
                sums["score"] += score_val
                sums["total"] += total

            # before the epoch's eval and checkpoint; final.ckpt holds these same parameters
            for name, p in trainable.items():
                if not np.isfinite(p.data).all():
                    raise NonFiniteError(f"epoch {epoch}: parameter {name} is not finite")
            # no backward reads this pass, so its forwards record no graph
            for p in trainable.values():
                p.requires_grad = False
            try:
                ev = evaluate(model, dataset, bank, split="train")
            finally:
                for p in trainable.values():
                    p.requires_grad = True
            metrics = EpochMetrics(
                epoch=epoch,
                loss_pred=sums["pred"] / steps_per_epoch,
                loss_score=sums["score"] / steps_per_epoch,
                loss_total=sums["total"] / steps_per_epoch,
                head_top1=ev.head_top1,
                score_top1=ev.score_top1,
                lr=lr,
            )
            history.append(metrics)
            if out_dir:
                save_checkpoint(os.path.join(out_dir, f"epoch_{epoch:03d}.ckpt"), model, step=global_step)
            if stop_at_head_top1 is not None and metrics.head_top1 >= stop_at_head_top1:
                break

    if out_dir:
        save_checkpoint(os.path.join(out_dir, "final.ckpt"), model, step=global_step)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), history)
    return history


def write_metrics_csv(path, history: list[EpochMetrics]) -> None:
    rows = [METRICS_HEADER] + [m.csv_row() for m in history]
    write_atomic(path, "".join(row + "\n" for row in rows).encode("utf-8"))


def _eval_workers() -> int:
    """IVIT_THREADS, else the CPUs in this process's affinity mask (every core where the OS has no
    mask). A CPU quota such as cgroup ``cpu.max`` does not show in the mask."""
    raw = os.environ.get("IVIT_THREADS", "").strip()
    if not raw:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"IVIT_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _hits(out: ForwardOutput, labels: np.ndarray, classes: np.ndarray) -> tuple[int, int]:
    """Head and score top-1 hits of one forward; score column ``j`` stands for ``classes[j]``."""
    head = np.argmax(out.logits.data, axis=1)
    return int((head == labels).sum()), int((predict_scores(out.score.data, classes) == labels).sum())


def _pooled(work, shards, workers: int) -> list:
    """``work`` over ``shards`` on ``workers`` threads; the next shard is made only once a worker is free."""
    results, pending = [], set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while True:
            if len(pending) == workers:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                results += [f.result() for f in done]
            shard = next(shards, None)
            if shard is None:
                break
            pending.add(pool.submit(work, shard))
            del shard  # the pool holds it until its result is in
        results += [f.result() for f in pending]
    return results


def evaluate(model: InstructionModel, dataset: SyntheticDataset, bank: PromptBank,
             select_k: int | None = None, split: str = "val", batch_size: int = 64) -> EvalMetrics:
    """Top-1 accuracy of both prediction routes over one split, with ``bank`` as the prompts.

    Before any forward, `check_agreement` rejects a model, dataset and bank
    that disagree (class lists, head width, image geometry, prompt width)
    with ``ConsistencyError``.

    Every forward is deterministic (no dropout rng) and leaves the model as
    it was, so calls with different banks may share a model. A forward
    records a backward graph if and only if some model parameter requires
    grad, and nothing here reads it; `train`'s per-epoch pass and
    ``ivit eval`` freeze every parameter first, so they hold activations
    only.

    ``select_k`` routes each image through zero-shot prompt selection first;
    ``select_k >= n_classes`` degenerates to the unselected path (identical
    output, same code path). Selection only picks each image's prompt rows
    and the class each score column stands for; both routes count hits with
    `_hits`.

    The prompt layout alone picks the route. Plain evaluation runs on a
    thread pool with OpenBLAS held at one thread, so the pool is the only
    parallelism, even with one worker. It cuts the split into contiguous
    shards of ``batch_size // workers`` images, ``workers =
    min(IVIT_THREADS, batch_size)``, and runs ``workers`` of them at once.
    A shard is made only once a pool thread is free, so at most
    ``batch_size`` images are held, whatever IVIT_THREADS is. Groupings
    that are not a multiple of 16 images can move logits in the last float32
    bits, since OpenBLAS picks another kernel: on the benchmark's eval
    model, shards of 21 and of 1 image moved head logits by up to 3.6e-7,
    shards of 8, 16, 22 and 32 by nothing.

    Selected evaluation runs in the calling thread whatever the cap, one
    ``batch_size`` batch at a time, with OpenBLAS left as it is: each image
    is its own batch-size-1 forward, bound by the interpreter. Pooled on 2
    threads, the benchmark's eval_select took 1.91–2.13 s against
    1.16–1.27 s in the calling thread (2-core Xeon, OpenBLAS 0.3.31). A
    floating-point overflow, invalid value or division by zero in any batch
    raises ``NonFiniteError``.
    """
    check_agreement(model.config, dataset, bank)
    if split == "train":
        batches, n = dataset.train_batches, dataset.meta.n_train
    elif split == "val":
        batches, n = dataset.val_batches, dataset.meta.n_val
    else:
        raise ValueError(f"unknown split {split!r}")
    check_batch_size(batch_size)

    use_selection = select_k is not None and select_k < bank.n_classes
    if use_selection and select_k < 1:
        raise ValueError(f"select_k must be >= 1, got {select_k}")

    workers = min(_eval_workers(), int(batch_size))  # checked on both routes, used by the plain one
    all_classes = np.arange(bank.n_classes)

    def work(batch: LabeledBatch) -> tuple[int, int]:
        # entered per batch: an errstate does not carry into the pool's threads
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if use_selection:
                    runs = _selected_forwards(model, batch, bank, select_k)
                else:
                    runs = [(model.forward(batch.images, bank.features), batch.hard_labels, all_classes)]
                hits = [_hits(*run) for run in runs]
            return sum(h for h, _ in hits), sum(s for _, s in hits)
        except FloatingPointError as e:
            raise NonFiniteError(f"evaluation on the {split} split: {e}") from e

    if use_selection:
        results = [work(b) for b in batches(batch_size)]
    else:
        with _blas.single_threaded():
            results = _pooled(work, batches(int(batch_size) // workers), workers)

    head = sum(r[0] for r in results)
    score = sum(r[1] for r in results)
    return EvalMetrics(head_top1=head / n, score_top1=score / n, n_samples=n)
