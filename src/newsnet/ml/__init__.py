from .baselines import GaussianNBClassifier, KNNClassifier, MinMaxScaler
from .crossval import (CLASSIFIERS, DatasetSplit, EvalReport, cross_validate,
                       encode_labels, evaluate_masks, fit_classifier,
                       stratified_folds)
from .forest import DecisionTreeClassifier, RandomForestClassifier
from .relief import relief_rank, relief_weights

__all__ = [
    "CLASSIFIERS",
    "DatasetSplit",
    "DecisionTreeClassifier",
    "EvalReport",
    "GaussianNBClassifier",
    "KNNClassifier",
    "MinMaxScaler",
    "RandomForestClassifier",
    "cross_validate",
    "encode_labels",
    "evaluate_masks",
    "fit_classifier",
    "relief_rank",
    "relief_weights",
    "stratified_folds",
]
