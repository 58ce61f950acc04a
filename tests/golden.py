"""Golden outputs: fixed tiny runs whose results must not change by accident.

    PYTHONPATH=src python tests/golden.py            # compare with golden.json
    PYTHONPATH=src python tests/golden.py --update   # rewrite golden.json

The runs use 4 classes, 8x8 images and a dim-16, depth-1 model, on seeds 0
and 3: the three bank files, `train()` in five regimes (history, every
checkpoint and ``metrics.csv``), `evaluate()` plain and with ``select_k=2``, one
forward's logits and scores, and `run_suite(0)`.

Float32 GEMM results depend on the BLAS build, its core type and thread
count, so the file records the machine it was made on. On that machine every
hash must match. Elsewhere `test_golden.py` skips the hashes and still
requires equal top-1 values and logits and scores within `FLOAT_TOL`.
``--update`` prints the largest change of a logit or score against the old
file, which a change that moves outputs on purpose reports.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ivit import dataset as ds
from ivit.config import ModelConfig, TrainConfig
from ivit.gradcheck import run_suite
from ivit.model import InstructionModel
from ivit.prompts import build_image_bank, build_mixed_bank, build_text_bank, save_bank
from ivit.trainer import evaluate, train

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 3)

# Logits and scores are O(1) float32 values from reductions at most 48 terms
# long; another GEMM kernel reorders those sums and moves each result by a few
# float32 ulps (~1e-7 at magnitude 1), and four Adam steps carry such changes
# into the parameters at about the same size. 1e-5 leaves a 100x margin while
# a one-ulp change of a kernel constant on the recording machine still fails
# the hashes.
FLOAT_TOL = 1e-5

MODEL = dict(image_size=8, patch_size=4, channels=3, dim=16, depth=1, heads=2,
             mlp_ratio=2.0, prompt_dim=16, n_classes=4)
TRAIN = dict(epochs=2, batch_size=8, warmup_epochs=1, peak_lr=1e-3, floor_lr=1e-4, mixup_alpha=0.0)
# name -> (ModelConfig overrides, TrainConfig overrides)
REGIMES = {
    "full_mixup": ({}, {"mixup_alpha": 0.2}),
    "attn_dropout": ({"attn_dropout": 0.1}, {}),
    "select_in_training": ({"select_in_training": True, "select_k": 2}, {}),
    "prompt_tuning": ({}, {"regime": "prompt_tuning", "mixup_alpha": 0.2}),
    "loss_weights": ({"loss_pred_weight": 0.5, "loss_score_weight": 2.0}, {"grad_clip": 1.0}),
}


def _openblas_core() -> str | None:
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
        "numpy": np.__version__,
    }


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _hexes(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in np.asarray(a, dtype=np.float64).reshape(-1)]


def compute() -> dict:
    """Run every golden case; returns ``{"hashes", "exact", "floats"}``."""
    hashes: dict[str, str] = {}
    exact: dict[str, object] = {}
    floats: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        for seed in SEEDS:
            tag = f"seed{seed}"
            data_dir = root / tag / "data"
            ds.generate_synthetic(data_dir, n_classes=4, n_train=16, n_val=8, image_size=8, seed=seed)
            data = ds.load(data_dir)
            text = build_text_bank(data.class_names, 16)
            image = build_image_bank(data, 16, seed=seed)
            for name, bank in (("text", text), ("image", image), ("mixed", build_mixed_bank(text, image))):
                path = root / tag / f"{name}.ivpb"
                save_bank(bank, path)
                hashes[f"{tag}/bank/{name}"] = _sha(path.read_bytes())

            for regime, (model_over, train_over) in REGIMES.items():
                key = f"{tag}/train/{regime}"
                model = InstructionModel(ModelConfig(**{**MODEL, **model_over}), seed=seed)
                out_dir = root / tag / regime
                history = train(model, data, text, TrainConfig(**{**TRAIN, **train_over}, seed=seed),
                                out_dir=str(out_dir))
                hashes[f"{key}/history"] = _sha(repr([vars(m) for m in history]).encode())
                for f in sorted(os.listdir(out_dir)):
                    hashes[f"{key}/{f}"] = _sha((out_dir / f).read_bytes())
                exact[f"{key}/top1"] = [[m.head_top1, m.score_top1] for m in history]
                if regime != "full_mixup":
                    continue
                for label, k in (("plain", None), ("select_k2", 2)):
                    ev = evaluate(model, data, text, select_k=k)
                    exact[f"{tag}/eval/{label}"] = [ev.head_top1, ev.score_top1, ev.n_samples]
                images = data.normalize(data.val_images)
                out = model.forward(images, text.features)
                floats[f"{tag}/forward/logits"] = _hexes(out.logits.data)
                floats[f"{tag}/forward/score"] = _hexes(out.score.data)

    errors, ok = run_suite(0)
    hashes["suite/seed0"] = _sha(repr({k: v.hex() for k, v in errors.items()}).encode())
    exact["suite/seed0/ok"] = ok
    return {"hashes": hashes, "exact": exact, "floats": floats}


def _float_diff(old: list[str], new: list[str]) -> float:
    a = np.array([float.fromhex(h) for h in old])
    b = np.array([float.fromhex(h) for h in new])
    return float(np.abs(a - b).max(initial=0.0)) if a.shape == b.shape else float("inf")


def max_float_diff(old: dict, new: dict) -> float:
    """Largest absolute difference over the float arrays both records hold."""
    keys = old["floats"].keys() & new["floats"].keys()
    return max((_float_diff(old["floats"][k], new["floats"][k]) for k in keys), default=0.0)


def value_problems(golden: dict, got: dict) -> list[str]:
    """What differs in the machine-independent part: exact values and floats past `FLOAT_TOL`."""
    problems = [f"{k}: {got['exact'].get(k)!r} != {v!r}"
                for k, v in golden["exact"].items() if got["exact"].get(k) != v]
    for key, hexes in golden["floats"].items():
        diff = _float_diff(hexes, got["floats"].get(key, []))
        if not diff <= FLOAT_TOL:
            problems.append(f"{key}: max abs diff {diff:.3g} > {FLOAT_TOL}")
    return problems


def hash_problems(golden: dict, got: dict) -> list[str]:
    problems = [f"{k}: hash changed" for k, v in golden["hashes"].items() if got["hashes"].get(k) != v]
    problems += [f"{k}: not in golden.json" for k in got["hashes"].keys() - golden["hashes"].keys()]
    problems += [f"{k}: float bits changed" for k, v in golden["floats"].items() if got["floats"].get(k) != v]
    return problems


def main(argv: list[str]) -> int:
    got = compute()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    if "--update" in argv:
        record = {"machine": machine(), **got}
        GOLDEN.write_text("{\n" + ",\n".join(
            f" {json.dumps(section)}: {{\n" + ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(values.items())) + "\n }"
            for section, values in record.items()) + "\n}\n")
        if old is not None:
            print(f"max abs diff of logits and scores against the old file: {max_float_diff(old, got):.6g}")
        print(f"wrote {GOLDEN}")
        return 0
    if old is None:
        print(f"no {GOLDEN}; run with --update")
        return 1
    problems = value_problems(old, got)
    if old["machine"] == machine():
        problems += hash_problems(old, got)
    else:
        print(f"machine differs from the recorded one, hashes not compared: {machine()} vs {old['machine']}")
    print("\n".join(problems) or "golden outputs match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
