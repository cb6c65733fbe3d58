"""Tree-of-cue dataset construction toolchain and exact reward engine."""

from .cue_tree import backtrack, layer_compilations
from .records import Clip, QaPair, RlSample, SftSample
from .rewards import (
    closed_form_advantages,
    extract_answer,
    grpo_objective,
    normalize_advantages,
    rd_reward,
    scale_advantages,
)
from .segmentation import ShotBoundarySet, stitch

__version__ = "0.1.0"

__all__ = [
    "Clip",
    "QaPair",
    "RlSample",
    "SftSample",
    "ShotBoundarySet",
    "backtrack",
    "closed_form_advantages",
    "extract_answer",
    "grpo_objective",
    "layer_compilations",
    "normalize_advantages",
    "rd_reward",
    "scale_advantages",
    "stitch",
]
