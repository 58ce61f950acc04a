"""The benchmark's four workloads, each built from a seed.

A workload is one set-up, an untimed ``prepare`` before every call, and one
timed call whose result is reduced to a plain summary. ``check`` lists what
is wrong with a summary; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ivit
from ivit import gradcheck
from ivit.config import ModelConfig, TrainConfig

N_IMAGES = 512
SELECT_K = 3

SMOKE_MODEL = dict(dim=64, depth=2, heads=4, n_classes=8, prompt_dim=64)
SMOKE_TRAIN = dict(epochs=2, batch_size=32, warmup_epochs=1, peak_lr=1e-3, floor_lr=1e-4,
                   mixup_alpha=0.2)
EVAL_MODEL = dict(dim=128, depth=4, heads=4, n_classes=32, prompt_dim=64)
EVAL_BATCH = 64


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], dict]
    call: Callable[[dict], tuple]
    check: Callable[[dict, tuple], list[str]]
    #: images one call processes, 0 when the call is not about images
    images: int
    prepare: Callable[[dict], None] = lambda state: None


def _data(seed: int, work_dir: str, n_classes: int, n_train: int, n_val: int):
    path = os.path.join(work_dir, "data")
    ivit.generate_synthetic(path, n_classes=n_classes, n_train=n_train, n_val=n_val,
                            image_size=32, seed=seed)
    data = ivit.load(path)
    bank = ivit.build_text_bank(data.class_names, dim=64)
    return data, bank


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- train_smoke ---------------------------------------------------------------


def _train_setup(seed: int, work_dir: str) -> dict:
    data, bank = _data(seed, work_dir, SMOKE_MODEL["n_classes"], N_IMAGES, 64)
    cfg = ModelConfig(**SMOKE_MODEL)
    return {"seed": seed, "data": data, "bank": bank, "cfg": cfg,
            "model": ivit.InstructionModel(cfg, seed=seed),
            "out_dir": os.path.join(work_dir, "run")}


def _train_prepare(state: dict) -> None:
    """A fresh model and an empty output directory for every call."""
    if state["model"] is None:
        state["model"] = ivit.InstructionModel(state["cfg"], seed=state["seed"])
    shutil.rmtree(state["out_dir"], ignore_errors=True)


def _train_call(state: dict) -> tuple:
    model, state["model"] = state["model"], None
    cfg = TrainConfig(seed=state["seed"], **SMOKE_TRAIN)
    history = ivit.train(model, state["data"], state["bank"], cfg, out_dir=state["out_dir"])
    return tuple((m.epoch, m.loss_pred, m.loss_score, m.loss_total, m.head_top1, m.score_top1, m.lr)
                 for m in history)


def _train_check(state: dict, summary: tuple) -> list[str]:
    problems = []
    if len(summary) != SMOKE_TRAIN["epochs"]:
        problems.append(f"{len(summary)} epochs of history, expected {SMOKE_TRAIN['epochs']}")
    if not all(_finite(row) for row in summary):
        problems.append("non-finite loss, accuracy or learning rate")
    out = state["out_dir"]
    expected = [f"epoch_{e:03d}.ckpt" for e in range(1, len(summary) + 1)] + ["final.ckpt", "metrics.csv"]
    missing = [f for f in expected if not os.path.isfile(os.path.join(out, f))]
    if missing:
        problems.append(f"missing outputs {missing}")
    else:
        with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as f:
            rows = f.read().splitlines()
        if len(rows) != len(summary) + 1:
            problems.append(f"metrics.csv has {len(rows)} lines for {len(summary)} epochs")
    return problems


# -- eval_plain / eval_select ------------------------------------------------------


def _eval_setup(seed: int, work_dir: str) -> dict:
    n_classes = EVAL_MODEL["n_classes"]
    # the train split only has to exist; evaluation reads the val split
    data, bank = _data(seed, work_dir, n_classes, n_classes, N_IMAGES)
    model = ivit.InstructionModel(ModelConfig(**EVAL_MODEL), seed=seed)
    return {"data": data, "bank": bank, "model": model}


def _eval_call(select_k: int | None):
    def call(state: dict) -> tuple:
        m = ivit.evaluate(state["model"], state["data"], state["bank"], select_k=select_k,
                          split="val", batch_size=EVAL_BATCH)
        return (m.head_top1, m.score_top1, m.n_samples)
    return call


def _eval_check(state: dict, summary: tuple) -> list[str]:
    head, score, n = summary
    problems = []
    if n != N_IMAGES:
        problems.append(f"evaluated {n} images, expected {N_IMAGES}")
    if not (_finite((head, score)) and 0.0 <= head <= 1.0 and 0.0 <= score <= 1.0):
        problems.append(f"top-1 values out of range: head {head}, score {score}")
    return problems


def image_labels(state: dict) -> dict[int, int]:
    """Hash of each val image's raw bytes -> its class, for selection recall."""
    data = state["data"]
    return {hash(np.ascontiguousarray(img).tobytes()): int(label)
            for img, label in zip(data.val_images, data.val_labels)}


# -- gradcheck -----------------------------------------------------------------------


def _gradcheck_setup(seed: int, work_dir: str) -> dict:
    """The suite's inputs: the per-op cases and the tiny float64 model.

    ``run_suite`` rebuilds both itself; building them here times that
    construction as the workload's set-up.
    """
    cases = gradcheck.op_cases(seed)
    cfg = ModelConfig(image_size=4, patch_size=2, channels=3, dim=16, depth=1, heads=2,
                      mlp_ratio=2.0, prompt_dim=8, n_classes=2)
    model = ivit.InstructionModel(cfg, seed=seed, dtype=np.float64)
    return {"seed": seed, "cases": cases, "model": model}


def _gradcheck_call(state: dict) -> tuple:
    errors, ok = gradcheck.run_suite(state["seed"])
    return (ok, tuple(sorted(errors.items())))


def _gradcheck_check(state: dict, summary: tuple) -> list[str]:
    ok, errors = summary
    problems = []
    if ok is not True:
        bad = {name: e for name, e in errors if not e < (
            gradcheck.MODEL_TOL if name == "full_model" else gradcheck.ELEMENTWISE_TOL)}
        problems.append(f"run_suite returned ok={ok}, errors over tolerance: {bad}")
    if not _finite(e for _, e in errors):
        problems.append("non-finite gradient error")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_smoke", _train_setup, _train_call, _train_check,
                 images=SMOKE_TRAIN["epochs"] * N_IMAGES, prepare=_train_prepare),
        Workload("eval_plain", _eval_setup, _eval_call(None), _eval_check, images=N_IMAGES),
        Workload("eval_select", _eval_setup, _eval_call(SELECT_K), _eval_check, images=N_IMAGES),
        Workload("gradcheck", _gradcheck_setup, _gradcheck_call, _gradcheck_check, images=0),
    )
}
