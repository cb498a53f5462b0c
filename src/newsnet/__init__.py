"""Network-based fake news detection from diffusion patterns on a follow graph."""

from .corpus import (CorpusError, EngagementTable, SocialGraph,
                     corpus_stats, load_corpus, save_corpus)
from .diffusion import DiffusionNetwork, build_all_networks, build_network, subsample
from .features import (FEATURE_REGISTRY, PATTERNS, FeatureExtractor, FeatureMatrix,
                       extract, extract_matrix, pattern_mask)

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "DiffusionNetwork",
    "EngagementTable",
    "FEATURE_REGISTRY",
    "FeatureExtractor",
    "FeatureMatrix",
    "PATTERNS",
    "SocialGraph",
    "build_all_networks",
    "build_network",
    "corpus_stats",
    "extract",
    "extract_matrix",
    "load_corpus",
    "pattern_mask",
    "save_corpus",
    "subsample",
]
