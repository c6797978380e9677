from imukit.diffusion.schedule import NoiseSchedule, build_schedule, forward_diffuse
from imukit.diffusion.text import (
    MAX_TOKENS, PAD_ID, VOCAB_SIZE, decode_tokens, encode_caption,
)
from imukit.diffusion.model import (
    AttentionRecord, DenoiserModel, ModelConfig, PromptEmbedding,
    bottleneck_features, predict_noise,
)
from imukit.diffusion.dataset import (
    ToyItem, make_dataset, render_item, unseen_captions,
)
from imukit.diffusion.training import (
    TrainConfig, TrainingDiverged, TrainResult, evaluate_loss, train,
)
from imukit.diffusion.sampling import edit, reverse_step
from imukit.diffusion.io import load_model, save_model

__all__ = [
    "NoiseSchedule", "build_schedule", "forward_diffuse",
    "MAX_TOKENS", "PAD_ID", "VOCAB_SIZE", "decode_tokens", "encode_caption",
    "AttentionRecord", "DenoiserModel", "ModelConfig", "PromptEmbedding",
    "bottleneck_features", "predict_noise",
    "ToyItem", "make_dataset", "render_item", "unseen_captions",
    "TrainConfig", "TrainingDiverged", "TrainResult", "evaluate_loss", "train",
    "edit", "reverse_step",
    "load_model", "save_model",
]
