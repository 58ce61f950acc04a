"""ivit: a vision transformer conditioned on frozen per-class prompt tokens.

Text, image, or mixed prompt features join the input sequence after the
patch tokens, the model trains with a joint classification + CLS-prompt
similarity loss, and evaluation can pre-filter prompts with a zero-shot
top-K selection step.
"""

from .backbone import Backbone
from .config import ModelConfig, TrainConfig
from .dataset import LabeledBatch, SyntheticDataset, generate_synthetic, load
from .model import ForwardOutput, InstructionModel
from .prompts import (
    PromptBank,
    build_image_bank,
    build_mixed_bank,
    build_text_bank,
    load_bank,
    render_templates,
    save_bank,
    toy_image_encode,
    toy_text_encode,
)
from .selection import SelectionResult, select, zero_shot_scores
from .tensor import Tensor, backward
from .trainer import EvalMetrics, EpochMetrics, evaluate, lr_at, mixup, train

__version__ = "0.1.0"

__all__ = [
    "Backbone",
    "EvalMetrics",
    "EpochMetrics",
    "ForwardOutput",
    "InstructionModel",
    "LabeledBatch",
    "ModelConfig",
    "PromptBank",
    "SelectionResult",
    "SyntheticDataset",
    "Tensor",
    "TrainConfig",
    "backward",
    "build_image_bank",
    "build_mixed_bank",
    "build_text_bank",
    "evaluate",
    "generate_synthetic",
    "load",
    "load_bank",
    "lr_at",
    "mixup",
    "render_templates",
    "save_bank",
    "select",
    "toy_image_encode",
    "toy_text_encode",
    "train",
    "zero_shot_scores",
]
