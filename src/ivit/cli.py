"""Command-line entry point.

Subcommands: gen-data, build-bank, train, eval, gradcheck.

Exit codes (stable contract):
    0  success
    1  check failure (gradcheck found a bad gradient)
    2  argument error, a size too large to allocate included
    3  I/O or file-format error
    4  consistency error (data/bank/checkpoint/config disagree)
    5  non-finite arithmetic: training diverged (nothing more is written) or
       evaluation overflowed
"""

from __future__ import annotations

import argparse
import sys

from . import dataset as ds
from .checkpoint import model_from_checkpoint
from .config import REGIMES, parse_run_config, run_config_defaults, split_run_config
from .errors import ConfigError, ConsistencyError, FormatError, NonFiniteError
from .gradcheck import run_suite, tolerance
from .model import InstructionModel
from .prompts import (MODALITIES, build_image_bank, build_mixed_bank, build_text_bank, check_bank_seed,
                      load_bank, save_bank)
from .trainer import apply_freeze, check_agreement, evaluate, train

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_CONSISTENCY = 4
EXIT_NONFINITE = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--val", type=int, required=True)
    p.add_argument("--size", type=int, default=32, help="square image size in pixels")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=ds.NOISE_STD)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("build-bank", help="build a prompt bank from a dataset's classes")
    p.add_argument("--data", required=True)
    p.add_argument("--modality", required=True, choices=MODALITIES)
    p.add_argument("--dim", type=int, default=64, help="prompt feature width D_p")
    p.add_argument("--seed", type=int, default=0, help="image-prompt selection seed")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build_bank)

    p = sub.add_parser("train", help="train a model and write checkpoints + metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--config", default=None, help="key=value run-config file")
    p.add_argument("--out", required=True)
    p.add_argument("--regime", choices=REGIMES, default=None,
                   help="overrides the config file's regime")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--select-k", type=int, default=None,
                   help="zero-shot prompt selection: keep K prompts plus one averaged remainder")
    p.add_argument("--split", choices=["train", "val"], default="val")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all op and model gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def _check_seed(seed: int) -> None:
    """numpy seeds its generators from non-negative integers only."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def cmd_gen_data(args) -> int:
    _check_seed(args.seed)
    meta = ds.generate_synthetic(
        args.out, n_classes=args.classes, n_train=args.train, n_val=args.val,
        image_size=args.size, channels=args.channels, seed=args.seed,
        noise_std=args.noise_std,
    )
    print(
        f"dataset written to {args.out}: {meta.n_classes} classes, "
        f"{meta.n_train} train / {meta.n_val} val images of "
        f"{meta.channels}x{meta.image_size}x{meta.image_size}, "
        f"mean={meta.mean:.4f} std={meta.std:.4f}"
    )
    return EXIT_OK


def cmd_build_bank(args) -> int:
    check_bank_seed(args.seed)  # every modality, though only image rows use it
    data = ds.load(args.data)
    if args.modality == "text":
        bank = build_text_bank(data.class_names, args.dim)
    elif args.modality == "image":
        bank = build_image_bank(data, args.dim, args.seed)
    else:
        bank = build_mixed_bank(
            build_text_bank(data.class_names, args.dim),
            build_image_bank(data, args.dim, args.seed),
        )
    save_bank(bank, args.out)
    print(f"{bank.modality} bank written to {args.out}: {bank.n_classes} classes, D_p={bank.dim}")
    return EXIT_OK


def cmd_train(args) -> int:
    data = ds.load(args.data)
    bank = load_bank(args.bank)
    values = parse_run_config(args.config) if args.config else run_config_defaults()
    if args.regime:
        values["regime"] = args.regime
    # validate the config (exit 2), then compare it with the data (exit 4) before allocating the model
    model_cfg, train_cfg = split_run_config(values, n_classes=data.n_classes, prompt_dim=bank.dim)
    check_agreement(model_cfg, data, bank)
    model = InstructionModel(model_cfg, seed=train_cfg.seed)
    _, n_train, n_total = apply_freeze(model, train_cfg.regime)
    print(f"regime={train_cfg.regime}: {n_train} trainable of {n_total} parameters")
    history = train(model, data, bank, train_cfg, out_dir=args.out)
    last = history[-1]
    print(f"done: epoch {last.epoch} head_top1={last.head_top1:.6g} score_top1={last.score_top1:.6g}")
    print(f"checkpoints and metrics.csv under {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    data = ds.load(args.data)
    bank = load_bank(args.bank)
    model, _ = model_from_checkpoint(args.checkpoint)
    for _, p in model.named_parameters():
        p.requires_grad = False  # no backward follows, so the forwards record no graph
    metrics = evaluate(model, data, bank, select_k=args.select_k, split=args.split)
    print(f"head_top1={metrics.head_top1:.6g} score_top1={metrics.score_top1:.6g}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    _check_seed(args.seed)
    errors, _ = run_suite(seed=args.seed)
    failing = []
    for name, err in errors.items():
        passed = err < tolerance(name)
        if not passed:
            failing.append(name)
        measure = "max_abs_diff" if name == "forward_vs_reference" else "max_rel_err"
        print(f"{name:20s} {measure}={err:.3e}  {'ok' if passed else 'FAIL'}")
    if failing:
        print(f"gradcheck failed for: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK
    print("gradcheck passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_ARGS
    except NonFiniteError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
