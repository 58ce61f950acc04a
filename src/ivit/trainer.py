"""Optimization loop and evaluation.

Adam with bias correction, a linear-warmup + cosine-decay schedule (warmup
rises from 0 to the peak over the warmup epochs, the cosine then lands
exactly on the floor at the last step), per-batch mixup, and two tuning
regimes: `full` trains everything, `prompt_tuning` trains only the
classification head and the prompt projection while the backbone stays
bit-frozen. Prompt-bank features are data, never parameters, in both.

Per-epoch metrics (losses averaged over the training batches, top-1
accuracies from an evaluation pass over the train split) go to a CSV with
header ``epoch,loss_pred,loss_score,loss_total,head_top1,score_top1,lr``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from . import tensor as T
from .config import TrainConfig
from .dataset import LabeledBatch, SyntheticDataset
from .errors import ConfigError, ConsistencyError, NonFiniteError, ShapeError
from .model import InstructionModel, one_hot
from .prompts import PromptBank
from .selection import predict_from_selection, select, selected_bank
from .tensor import Tensor

METRICS_HEADER = "epoch,loss_pred,loss_score,loss_total,head_top1,score_top1,lr"


@dataclass(frozen=True)
class FreezePolicy:
    """Which parameter-name prefixes the optimizer may update."""

    trainable_prefixes: frozenset[str]

    @classmethod
    def for_regime(cls, regime: str) -> "FreezePolicy":
        if regime == "prompt_tuning":
            return cls(frozenset({"head", "prompt_embed"}))
        if regime == "full":
            return cls(frozenset({""}))
        raise ValueError(f"unknown regime {regime!r}")

    def is_trainable(self, name: str) -> bool:
        return any(name.startswith(p) for p in self.trainable_prefixes)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Learning rate at a global step in [0, total_steps].

    Warmup is linear from 0, reaching peak_lr exactly at the end of the
    warmup span; afterwards cosine decay reaches floor_lr exactly at
    total_steps. The junction is continuous.
    """
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = round(total_steps * cfg.warmup_epochs / cfg.epochs)
    if step < warmup_steps:
        return cfg.peak_lr * step / warmup_steps
    if step == warmup_steps:
        return cfg.peak_lr
    if step == total_steps:
        return cfg.floor_lr
    t = (step - warmup_steps) / (total_steps - warmup_steps)
    return cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data -= (lr * (m / c1) / (np.sqrt(v / c2) + eps)).astype(p.data.dtype)


def mixup(batch_a: LabeledBatch, batch_b: LabeledBatch, alpha: float,
          rng: np.random.Generator, n_classes: int) -> LabeledBatch:
    """Convex combination of two batches with one Beta(alpha, alpha) draw.

    alpha == 0 short-circuits to batch_a with one-hot soft labels.
    """
    if batch_a.images.shape != batch_b.images.shape:
        raise ShapeError(f"mixup: batch shapes differ: {batch_a.images.shape} vs {batch_b.images.shape}")
    lam = 1.0 if alpha == 0 else float(rng.beta(alpha, alpha))
    ya = one_hot(batch_a.hard_labels, n_classes)
    if lam == 1.0:
        return LabeledBatch(
            images=batch_a.images, hard_labels=batch_a.hard_labels,
            raw_images=batch_a.raw_images, soft_labels=ya,
        )
    images = lam * batch_a.images.data + (1.0 - lam) * batch_b.images.data
    soft = lam * ya + (1.0 - lam) * one_hot(batch_b.hard_labels, n_classes)
    return LabeledBatch(
        images=Tensor(images.astype(np.float32)),
        hard_labels=batch_a.hard_labels,
        raw_images=batch_a.raw_images,
        soft_labels=soft,
    )


def _permuted(batch: LabeledBatch, perm: np.ndarray) -> LabeledBatch:
    return LabeledBatch(
        images=Tensor(batch.images.data[perm]),
        hard_labels=batch.hard_labels[perm],
        raw_images=batch.raw_images[perm] if batch.raw_images is not None else None,
    )


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
        return (
            f"{self.epoch},{self.loss_pred:.6g},{self.loss_score:.6g},{self.loss_total:.6g},"
            f"{self.head_top1:.6g},{self.score_top1:.6g},{self.lr:.6g}"
        )


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


def _selected_forwards(model: InstructionModel, batch: LabeledBatch, bank: PromptBank, k: int):
    """Per image: ``select``, its ``selected_bank`` and one batch-size-1 forward.

    Yields ``(label, selection, output)`` in batch order.
    """
    for i in range(len(batch)):
        sel = select(batch.raw_images[i], bank, k)
        out = model.forward(Tensor(batch.images.data[i : i + 1]), bank=selected_bank(bank, sel))
        yield int(batch.hard_labels[i]), sel, out


def _selected_batch_loss(model: InstructionModel, batch: LabeledBatch,
                         bank: PromptBank, k: int) -> tuple[Tensor, float, float]:
    """Per-image selection during training (the ablation path).

    Each image sees only its own top-k prompts plus the remainder token; the
    similarity loss is computed for the samples whose true class survived
    the filter and skipped for the rest. Returns what ``total_loss`` does.
    """
    pred_terms: list[Tensor] = []
    score_terms: list[Tensor] = []
    for label, sel, out in _selected_forwards(model, batch, bank, k):
        pred_terms.append(model.loss_pred(out.logits, np.array([label])))
        if label in sel.kept_indices:
            col = sel.kept_indices.index(label)
            score_terms.append(model.loss_score(out.score, np.array([col])))

    def average(terms: list[Tensor]) -> Tensor:
        acc = T.scale(terms[0], 1.0 / len(terms))
        for t in terms[1:]:
            acc = T.add(acc, T.scale(t, 1.0 / len(terms)))
        return acc

    pred = average(pred_terms)
    score = average(score_terms) if score_terms else None
    loss = model.combine_losses(pred, score)
    return loss, pred.item(), score.item() if score is not None else 0.0


def apply_freeze(model: InstructionModel, policy: FreezePolicy) -> tuple[dict[str, Tensor], int, int]:
    """Mark frozen parameters as non-differentiable; returns (trainable, n_train, n_total)."""
    trainable: dict[str, Tensor] = {}
    n_total = 0
    n_train = 0
    for name, p in model.named_parameters():
        n_total += p.size
        if policy.is_trainable(name):
            p.requires_grad = True
            trainable[name] = p
            n_train += p.size
        else:
            p.requires_grad = False
    return trainable, n_train, n_total


def train(model: InstructionModel, dataset: SyntheticDataset, bank: PromptBank,
          cfg: TrainConfig, out_dir: str | None = None,
          stop_at_head_top1: float | None = None) -> list[EpochMetrics]:
    """Run the full loop; returns the per-epoch metrics history.

    When ``out_dir`` is set, a checkpoint lands there every epoch plus a
    final ``metrics.csv``. A non-finite step loss, or a trainable parameter
    that is not finite at the end of an epoch, raises ``NonFiniteError``
    before anything more is written. ``stop_at_head_top1`` ends training
    early once the train-split accuracy reaches the threshold (used by smoke
    tests).
    """
    if dataset.class_names != bank.class_names:
        raise ConsistencyError(
            f"dataset classes {dataset.class_names[:4]}... do not match bank classes {bank.class_names[:4]}..."
        )
    if dataset.meta.n_train == 0:
        raise ConsistencyError("training split is empty")
    _eval_workers()  # a bad IVIT_THREADS fails here, not at the first epoch's eval

    from .checkpoint import save_checkpoint  # deferred: checkpoint imports config

    model.set_bank(bank)
    policy = FreezePolicy.for_regime(cfg.regime)
    trainable, _, _ = apply_freeze(model, policy)
    state = AdamState()
    rng = np.random.default_rng([cfg.seed, 0x7EA1])

    select_training = model.config.select_in_training
    if select_training:
        if model.config.select_k < 1:
            raise ConfigError("select_in_training needs select_k >= 1")
        if cfg.mixup_alpha > 0:
            raise ConfigError("select_in_training with mixup is undefined; set mixup_alpha=0")

    steps_per_epoch = math.ceil(dataset.meta.n_train / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    global_step = 0
    history: list[EpochMetrics] = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    model.set_training(True, dropout_rng=np.random.default_rng([cfg.seed, 0xD120]))
    for epoch in range(1, cfg.epochs + 1):
        sums = {"pred": 0.0, "score": 0.0, "total": 0.0}
        n_batches = 0
        lr = 0.0
        for batch in dataset.train_batches(cfg.batch_size, rng=rng):
            if select_training:
                loss, pred_val, score_val = _selected_batch_loss(
                    model, batch, bank, model.config.select_k)
            else:
                if cfg.mixup_alpha > 0:
                    perm = rng.permutation(len(batch))
                    batch = mixup(batch, _permuted(batch, perm), cfg.mixup_alpha, rng,
                                  dataset.n_classes)
                    target = batch.soft_labels
                else:
                    target = batch.hard_labels
                loss, pred_val, score_val = model.total_loss(model.forward(batch.images), target)

            total = loss.item()
            if not math.isfinite(total):
                raise NonFiniteError(f"epoch {epoch}, step {global_step + 1}: training loss is {total}")
            model.zero_grad()
            T.backward(loss)
            grads = {name: p.grad for name, p in trainable.items() if p.grad is not None}
            if cfg.grad_clip > 0:
                _clip_grads(grads, cfg.grad_clip)
            global_step += 1
            lr = lr_at(global_step, total_steps, cfg)
            adam_step(trainable, grads, state, lr, cfg)

            sums["pred"] += pred_val
            sums["score"] += score_val
            sums["total"] += total
            n_batches += 1

        # before the epoch's eval and checkpoint; final.ckpt holds these same parameters
        for name, p in trainable.items():
            if not np.isfinite(p.data).all():
                raise NonFiniteError(f"epoch {epoch}: parameter {name} is not finite")
        ev = evaluate(model, dataset, bank, split="train", batch_size=cfg.batch_size)
        metrics = EpochMetrics(
            epoch=epoch,
            loss_pred=sums["pred"] / n_batches,
            loss_score=sums["score"] / n_batches,
            loss_total=sums["total"] / n_batches,
            head_top1=ev.head_top1,
            score_top1=ev.score_top1,
            lr=lr,
        )
        history.append(metrics)
        if out_dir:
            save_checkpoint(os.path.join(out_dir, f"epoch_{epoch:03d}.ckpt"), model, step=global_step)
        if stop_at_head_top1 is not None and metrics.head_top1 >= stop_at_head_top1:
            break

    model.set_training(False)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "final.ckpt"), model, step=global_step)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), history)
    return history


def write_metrics_csv(path, history: list[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(METRICS_HEADER + "\n")
        for m in history:
            f.write(m.csv_row() + "\n")


def _eval_workers() -> int:
    raw = os.environ.get("IVIT_THREADS", "").strip()
    if not raw:
        return max(1, os.cpu_count() or 1)
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"IVIT_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _eval_batch_plain(model: InstructionModel, batch: LabeledBatch) -> tuple[int, int]:
    out = model.forward(batch.images)
    head_hits = int((model.predict(out, "head") == batch.hard_labels).sum())
    score_hits = int((model.predict(out, "score") == batch.hard_labels).sum())
    return head_hits, score_hits


def _eval_batch_selected(model: InstructionModel, batch: LabeledBatch,
                         bank: PromptBank, k: int) -> tuple[int, int]:
    head_hits = 0
    score_hits = 0
    for label, sel, out in _selected_forwards(model, batch, bank, k):
        head_hits += int(np.argmax(out.logits.data[0])) == label
        score_hits += predict_from_selection(out.score.data[0], sel) == label
    return head_hits, score_hits


def evaluate(model: InstructionModel, dataset: SyntheticDataset, bank: PromptBank | None = None,
             select_k: int | None = None, split: str = "val", batch_size: int = 64) -> EvalMetrics:
    """Top-1 accuracy of both prediction routes over one split.

    ``select_k`` routes each image through zero-shot prompt selection first;
    ``select_k >= n_classes`` degenerates to the unselected path (identical
    output, same code path). Plain batches run on a thread pool whose workers
    IVIT_THREADS caps, with OpenBLAS held at one thread while the pool runs so
    the pool is the only parallelism; selected batches run in the calling
    thread, since each is one batch-size-1 forward per image, bound by the
    interpreter, and threads would only contend for the GIL.
    """
    if bank is not None:
        if dataset.class_names != bank.class_names:
            raise ConsistencyError("dataset and bank class lists differ")
        model.set_bank(bank)
    bank = model.active_bank
    if bank is None:
        raise ConsistencyError("evaluation needs a prompt bank")
    if split == "train":
        batches = list(dataset.train_batches(batch_size, shuffle=False))
    elif split == "val":
        batches = list(dataset.val_batches(batch_size))
    else:
        raise ValueError(f"unknown split {split!r}")

    use_selection = select_k is not None and select_k < bank.n_classes
    if use_selection and select_k < 1:
        raise ValueError(f"select_k must be >= 1, got {select_k}")

    workers = _eval_workers()  # checked on both paths, used by the plain one

    def work(batch: LabeledBatch) -> tuple[int, int]:
        if use_selection:
            return _eval_batch_selected(model, batch, bank, select_k)
        return _eval_batch_plain(model, batch)

    was_training = model.backbone.training
    saved_rng = model.backbone.dropout_rng
    model.set_training(False)
    try:
        if workers > 1 and len(batches) > 1 and not use_selection:
            with _blas.single_threaded(), ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(work, batches))
        else:
            results = [work(b) for b in batches]
    finally:
        model.set_training(was_training, dropout_rng=saved_rng)

    n = sum(len(b) for b in batches)
    head = sum(r[0] for r in results)
    score = sum(r[1] for r in results)
    return EvalMetrics(head_top1=head / n, score_top1=score / n, n_samples=n)
