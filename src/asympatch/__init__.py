"""Asymmetric patch sampling for contrastive learning.

A numpy/scipy library covering the full pipeline: exact crop/patch overlap
geometry, uniform + selective (overlap-penalized) patch samplers, analytic
and Monte Carlo asymmetry quantification, a stop-gradient contrastive
objective with hand-derived gradients, adaptive gradient clipping and
schedules, a manually backpropagated vision-transformer encoder, dataset
ingestion/augmentation, and a desk-scale training harness with a kNN probe.
"""

from .asymmetry import (AsymmetryReport, expected_overlap_naive,
                        expected_overlap_selective, mechanism_expectation,
                        monte_carlo_overlap, pdf_normalization,
                        selective_density)
from .data import (AugmentParams, ImageRecord, augment_batch,
                   cifar_augment_params, identity_augment_params,
                   load_cifar, synth_dataset)
from .encoder import (BACKBONES, HEADS, BackboneConfig, HeadConfig, encode,
                      forward_branch, backward_branch, init_params, patchify,
                      predict, project)
from .geometry import (CropBox, PatchGrid, Rect, full_image_crop,
                       intersection_area, intersection_areas,
                       map_patch_to_image, overlap_ratio, patch_rects)
from .objective import (LossResult, MultiviewLossResult, contrastive_loss,
                        cosine_similarity_matrix, info_nce, multiview_loss)
from .optim import (AdamWState, ClipState, EmaSchedule, adamw_step,
                    clip_update, cosine_lr, momentum_encoder_update)
from .sampling import (SamplerConfig, random_crops, sample_views,
                       selective_weights)
from .serialize import CheckpointError, load_arrays, save_arrays
from .train import (DatasetSpec, TrainConfig, TrainState, checkpoint_load,
                    checkpoint_save, cifar_config, init_train_state,
                    knn_probe, probe_split, run_training, smoke_config,
                    train_step)

__version__ = "0.1.0"
