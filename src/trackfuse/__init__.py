"""trackfuse: cross-view consistent pseudo-labels from noisy per-view
detections (track, cluster synonyms, vote, pick keyframes) plus a toy
language-grounded Gaussian referring field trained with a multi-positive
contrastive objective.
"""

__version__ = "0.1.0"

from .consensus import (
    ConsensusRecord,
    ConsensusResult,
    SynonymClustering,
    cluster_synonyms,
    cosine_distance_matrix,
    propagate,
    run_consensus,
    vote_trajectory,
)
from .errors import NumericError, SchemaError, StageError, TrackfuseError
from .field import (
    ToyGaussian,
    ToyReferringField,
    TrainConfig,
    contrastive_loss,
    render_mask,
    seg_loss,
    select_gaussians,
    train,
)
from .keyframes import (
    KeyframeChoice,
    attach_descriptions,
    median_area,
    select_keyframe,
    visibility_score,
)
from .metrics import consensus_accuracy, emit_report, miou
from .records import (
    Detection,
    DescriptionSet,
    LabelEmbedding,
    SceneDataset,
    Trajectory,
    load_dataset,
    save_dataset,
    text_embedding,
)
from .rle import RleMask, mask_area, mask_bbox, mask_iou, rle_decode, rle_encode
from .synth import GroundTruth, NoiseSpec, SynthConfig, SynonymGroup, corrupt, generate_scene
from .tracking import AssocParams, associate_greedy, import_tracks
