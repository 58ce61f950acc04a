"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to watch them stream). Criteria:

  1. gradient suite (finite differences, double precision)
  2. prompt permutation equivariance, 20 random permutations
  3. loss construction fixtures (ln 4, ln 5, exact sum, shift invariance)
  4. selection vs stable-sort oracle, 200 vectors incl. ties
  5. regime freeze contract (bit-exact backbone under prompt_tuning)
  6. schedule endpoints and junction continuity
  7. mixed-prompt identity
  8. learning smoke test (>= 95% train head top-1, halved score loss,
     untrained model near chance)
  9. all three prompt modalities train to >= 90%
 10. file-format round-trips and designated error classes
"""

import hashlib
import math
import time

import numpy as np
import pytest

from ivit import dataset as ds
from ivit import tensor as T
from ivit.checkpoint import load_checkpoint, save_checkpoint
from ivit.config import ModelConfig, TrainConfig
from ivit.errors import BadMagicError, TruncatedFileError, VersionMismatchError
from ivit.gradcheck import ELEMENTWISE_TOL, MODEL_TOL, run_op_checks, run_model_check
from ivit.model import InstructionModel
from ivit.prompts import (
    PromptBank,
    build_image_bank,
    build_mixed_bank,
    build_text_bank,
    load_bank,
    save_bank,
)
from ivit.selection import rank_descending, select, selected_bank
from ivit.tensor import Tensor
from ivit.trainer import TrainConfig as TC, evaluate, lr_at, train


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# -- shared smoke-test artifacts ---------------------------------------------

SMOKE_MODEL = ModelConfig(image_size=32, patch_size=8, channels=3, dim=64, depth=2,
                          heads=4, mlp_ratio=4.0, prompt_dim=64, n_classes=8)
SMOKE_TRAIN = TrainConfig(epochs=12, batch_size=32, peak_lr=1e-3, floor_lr=1e-4,
                          warmup_epochs=2, mixup_alpha=0.2, regime="full", seed=0)
MAX_EPOCHS = 30


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Synthetic 8-class dataset, the three banks, and a finished text-prompt run."""
    root = tmp_path_factory.mktemp("smoke")
    data_dir = root / "data"
    ds.generate_synthetic(data_dir, n_classes=8, n_train=512, n_val=1024,
                          image_size=32, channels=3, seed=11)
    data = ds.load(data_dir)
    text = build_text_bank(data.class_names, SMOKE_MODEL.prompt_dim)
    image = build_image_bank(data, SMOKE_MODEL.prompt_dim, seed=5)
    mixed = build_mixed_bank(text, image)
    started = time.monotonic()
    model = InstructionModel(SMOKE_MODEL, seed=0)
    history = train(model, data, text, SMOKE_TRAIN)
    return {
        "data": data,
        "banks": {"text": text, "image": image, "mixed": mixed},
        "model": model,
        "history": history,
        "train_seconds": time.monotonic() - started,
    }


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    op_errors = run_op_checks(seed=0)
    model_error = run_model_check(seed=0)
    elapsed = time.monotonic() - started
    worst_op = max(op_errors.values())
    ok = worst_op < ELEMENTWISE_TOL and model_error < MODEL_TOL and elapsed < 120.0
    report("gradient suite", ok,
           f"worst op rel err {worst_op:.2e}, model {model_error:.2e}, {elapsed:.1f}s")


def test_criterion_2_prompt_permutation_equivariance():
    cfg = ModelConfig(image_size=16, patch_size=8, channels=3, dim=32, depth=2, heads=4,
                      mlp_ratio=2.0, prompt_dim=16, n_classes=8)
    model = InstructionModel(cfg, seed=2, dtype=np.float64)
    rng = np.random.default_rng(7)
    prompts = rng.normal(size=(8, 16))
    images = rng.normal(size=(3, 3, 16, 16))
    base = model.forward(images, prompts)
    worst_score = 0.0
    worst_logits = 0.0
    for _ in range(20):
        perm = rng.permutation(8)
        out = model.forward(images, prompts=prompts[perm])
        worst_score = max(worst_score, float(np.abs(out.score.data - base.score.data[:, perm]).max()))
        worst_logits = max(worst_logits, float(np.abs(out.logits.data - base.logits.data).max()))
    ok = worst_score < 1e-6 and worst_logits < 1e-6
    report("prompt permutation equivariance", ok,
           f"max score dev {worst_score:.2e}, max logit dev {worst_logits:.2e} over 20 permutations")


def test_criterion_3_loss_construction():
    model = InstructionModel(ModelConfig(image_size=8, patch_size=4, dim=16, depth=0, heads=2,
                                         prompt_dim=8, n_classes=4), seed=0)
    pred = model.loss_pred(Tensor(np.zeros((3, 4))), np.array([0, 1, 3])).item()
    uniform_ok = abs(pred - math.log(4.0)) < 1e-5

    score5 = model.loss_score(Tensor(np.full((2, 5), 0.3)), np.array([1, 4])).item()
    equal_ok = abs(score5 - math.log(5.0)) < 1e-5

    logits = Tensor(np.array([[0.2, -0.1, 0.4, 0.0]], dtype=np.float32))
    score = Tensor(np.array([[0.5, -0.5, 0.1, 0.2]], dtype=np.float32))
    target = np.array([2])
    lp = model.loss_pred(logits, target)
    lsc = model.loss_score(score, target)
    total = T.add(lp, lsc).item()
    sum_ok = total == lp.item() + lsc.item()

    shifted = model.loss_score(Tensor(score.data + 3.25), target).item()
    shift_ok = abs(shifted - lsc.item()) < 1e-6

    report("loss construction", uniform_ok and equal_ok and sum_ok and shift_ok,
           f"ln4 dev {abs(pred - math.log(4)):.1e}, ln5 dev {abs(score5 - math.log(5)):.1e}, "
           f"shift dev {abs(shifted - lsc.item()):.1e}")


def test_criterion_4_selection_oracle():
    def oracle(scores, k):
        return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]

    rng = np.random.default_rng(13)
    rank_ok = True
    for trial in range(200):
        n = int(rng.integers(2, 16))
        scores = rng.normal(size=n)
        if trial % 3 == 0:
            scores = np.round(scores)  # deliberate ties
        k = int(rng.integers(1, n + 1))
        if list(rank_descending(scores)[:k]) != oracle(list(scores), k):
            rank_ok = False
            break

    # the full select() path, including duplicated rows that tie exactly
    full_ok = True
    count_ok = True
    remainder_ok = True
    for trial in range(40):
        n = int(rng.integers(2, 10))
        rows = rng.normal(size=(n, 24)).astype(np.float32)
        if trial % 4 == 0 and n >= 3:
            rows[1] = rows[0]  # exact tie through the encoder scores
        bank = PromptBank([f"c{i}" for i in range(n)], rows, "image")
        img = rng.normal(size=(3, 8, 8))
        k = int(rng.integers(1, n + 1))
        sel = select(img, bank, k)
        expected = oracle(list(sel.scores), min(k, n))
        full_ok = full_ok and sel.kept_indices == expected
        if k < n:
            count_ok = count_ok and selected_bank(sel).shape[0] == k + 1
            excluded = [i for i in range(n) if i not in sel.kept_indices]
            dev = np.abs(sel.remainder_feature
                         - rows[excluded].astype(np.float64).mean(axis=0)).max()
            remainder_ok = remainder_ok and dev < 1e-5
        else:
            count_ok = count_ok and selected_bank(sel).shape[0] == n and sel.remainder_feature is None

    report("selection oracle", rank_ok and full_ok and count_ok and remainder_ok,
           "200 ranking vectors incl. ties, 40 full select() calls")


def test_criterion_5_regime_freeze_contract(tmp_path):
    data_dir = tmp_path / "freeze_data"
    ds.generate_synthetic(data_dir, n_classes=4, n_train=64, n_val=16, image_size=16,
                          channels=3, seed=3)
    data = ds.load(data_dir)
    bank = build_text_bank(data.class_names, 16)
    cfg = ModelConfig(image_size=16, patch_size=8, channels=3, dim=32, depth=1, heads=4,
                      mlp_ratio=2.0, prompt_dim=16, n_classes=4)

    def backbone_checksum(model):
        h = hashlib.sha256()
        for name, p in sorted(model.named_parameters()):
            if name.startswith("backbone"):
                h.update(p.data.tobytes())
        return h.hexdigest()

    frozen = InstructionModel(cfg, seed=1)
    before = backbone_checksum(frozen)
    train(frozen, data, bank, TC(epochs=1, batch_size=16, warmup_epochs=0,
                                 regime="prompt_tuning", mixup_alpha=0.0, seed=0))
    frozen_ok = backbone_checksum(frozen) == before

    full = InstructionModel(cfg, seed=1)
    before_full = backbone_checksum(full)
    train(full, data, bank, TC(epochs=1, batch_size=16, warmup_epochs=0,
                               regime="full", mixup_alpha=0.0, seed=0))
    full_ok = backbone_checksum(full) != before_full

    report("regime freeze contract", frozen_ok and full_ok,
           "backbone bit-identical under prompt_tuning, changed under full")


def test_criterion_6_schedule_endpoints():
    cfg = TrainConfig()  # peak 1e-4, floor 1e-5, warmup 5 of 20 epochs
    steps_per_epoch = 10
    total = steps_per_epoch * cfg.epochs
    warmup = steps_per_epoch * cfg.warmup_epochs
    end_warmup_ok = lr_at(warmup, total, cfg) == 1e-4
    final_ok = lr_at(total, total, cfg) == 1e-5
    # one-sided values at the junction
    from_warmup = cfg.peak_lr * warmup / warmup
    from_cosine = cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * 0.5 * (1.0 + math.cos(0.0))
    junction_gap = abs(from_warmup - from_cosine) / cfg.peak_lr
    report("schedule endpoints", end_warmup_ok and final_ok and junction_gap < 1e-12,
           f"junction relative gap {junction_gap:.2e}")


def test_criterion_7_mixed_prompt_identity(smoke):
    banks = smoke["banks"]
    # double precision: the identity holds exactly
    text64 = PromptBank(banks["text"].class_names, banks["text"].features.astype(np.float64), "text")
    image64 = PromptBank(banks["image"].class_names, banks["image"].features.astype(np.float64), "image")
    mixed64 = build_mixed_bank(text64, image64)
    exact = np.array_equal(mixed64.features,
                           (text64.features + image64.features) / 2.0)
    # single precision: the stored rows sit within 1e-6 of the true mean
    m32 = banks["mixed"].features
    single_dev = float(np.abs(m32.astype(np.float64) - mixed64.features).max())
    report("mixed-prompt identity", exact and single_dev < 1e-6,
           f"double exact={exact}, single dev {single_dev:.1e}")


def test_criterion_8_learning_smoke(smoke):
    history = smoke["history"]
    head_ok = any(m.head_top1 >= 0.95 for m in history) and len(history) <= MAX_EPOCHS
    ratio = history[-1].loss_score / history[0].loss_score
    ratio_ok = ratio <= 0.50
    time_ok = smoke["train_seconds"] < 600.0

    untrained = InstructionModel(SMOKE_MODEL, seed=321)
    chance = evaluate(untrained, smoke["data"], smoke["banks"]["text"], split="val")
    chance_ok = chance.n_samples >= 1000 and abs(chance.head_top1 - 1.0 / 8.0) <= 0.05

    report("learning smoke test", head_ok and ratio_ok and time_ok and chance_ok,
           f"best head {max(m.head_top1 for m in history):.3f}, score-loss ratio {ratio:.3f}, "
           f"{smoke['train_seconds']:.0f}s, untrained val {chance.head_top1:.3f} on {chance.n_samples}")


def test_criterion_9_all_modalities_learn(smoke):
    results = {"text": max(m.head_top1 for m in smoke["history"])}
    for name in ("image", "mixed"):
        cfg = TC(epochs=MAX_EPOCHS, batch_size=32, peak_lr=1e-3, floor_lr=1e-4, warmup_epochs=2,
                 mixup_alpha=0.2, regime="full", seed=0)
        hist = train(InstructionModel(SMOKE_MODEL, seed=0), smoke["data"], smoke["banks"][name],
                     cfg, stop_at_head_top1=0.90)
        results[name] = max(m.head_top1 for m in hist)
    ok = all(acc >= 0.90 for acc in results.values())
    report("all prompt modalities learn", ok,
           ", ".join(f"{k} {v:.3f}" for k, v in results.items()))


def test_criterion_10_file_formats(tmp_path, smoke):
    # dataset round-trip
    resaved = tmp_path / "resaved"
    smoke["data"].save(resaved)
    gen_dir = tmp_path / "regen"
    ds.generate_synthetic(gen_dir, n_classes=8, n_train=512, n_val=1024,
                          image_size=32, channels=3, seed=11)
    dataset_ok = all(
        (resaved / f).read_bytes() == (gen_dir / f).read_bytes()
        for f in ("meta.txt", "train_images.bin", "train_labels.bin", "val_images.bin", "val_labels.bin")
    )

    # bank round-trip
    bank_path = tmp_path / "bank.ivpb"
    save_bank(smoke["banks"]["mixed"], bank_path)
    loaded = load_bank(bank_path)
    bank_path2 = tmp_path / "bank2.ivpb"
    save_bank(loaded, bank_path2)
    bank_ok = (np.array_equal(loaded.features, smoke["banks"]["mixed"].features)
               and bank_path.read_bytes() == bank_path2.read_bytes())

    # checkpoint round-trip
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, smoke["model"], step=42)
    cfg, params, step = load_checkpoint(ckpt)
    own = smoke["model"].parameter_dict()
    ckpt_ok = (step == 42 and cfg == smoke["model"].config
               and all(np.array_equal(params[n], own[n].data) for n in own))

    # designated error classes on corrupted files
    blob = bytearray(bank_path.read_bytes())
    blob[:4] = b"ZZZZ"
    bad_magic = tmp_path / "bad_magic.ivpb"
    bad_magic.write_bytes(bytes(blob))
    blob = bytearray(bank_path.read_bytes())
    blob[4] = 9
    bad_version = tmp_path / "bad_version.ivpb"
    bad_version.write_bytes(bytes(blob))
    truncated = tmp_path / "trunc.ivpb"
    truncated.write_bytes(bank_path.read_bytes()[:40])
    errors_ok = True
    for path, exc in ((bad_magic, BadMagicError), (bad_version, VersionMismatchError),
                      (truncated, TruncatedFileError)):
        try:
            load_bank(path)
            errors_ok = False
        except exc:
            pass
    trunc_ckpt = tmp_path / "trunc.ckpt"
    trunc_ckpt.write_bytes(ckpt.read_bytes()[:60])
    try:
        load_checkpoint(trunc_ckpt)
        errors_ok = False
    except TruncatedFileError:
        pass
    trunc_data = tmp_path / "trunc_data"
    smoke["data"].save(trunc_data)
    images = trunc_data / "val_images.bin"
    images.write_bytes(images.read_bytes()[:-8])
    try:
        ds.load(trunc_data)
        errors_ok = False
    except TruncatedFileError:
        pass

    report("file formats", dataset_ok and bank_ok and ckpt_ok and errors_ok,
           "bank/dataset/checkpoint round-trips bit-exact, corrupt files raise their classes")
