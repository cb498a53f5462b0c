"""Leakage-safe stratified cross-validation, metrics, and classifier fitting.

Per fold: susceptibility models and WL reference sets are fit on the training
news only, features are re-extracted for the whole corpus under those models,
the classifier is trained on training rows and scored on the held-out fold.
The fake class is positive for F1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ..corpus import FAKE, CorpusError
from ..features import FEATURE_REGISTRY, STATIC, FeatureExtractor, extract_matrix
from ..util import derive_seed, left_sum
from .baselines import GaussianNBClassifier, KNNClassifier
from .forest import DecisionTreeClassifier, RandomForestClassifier

N_FOLDS = 5


def _int_at_least(low):
    return lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= low


_positive = _int_at_least(1)


# kind -> (class, accepted parameters, takes the fit seed)
CLASSIFIERS = {
    "random_forest": (RandomForestClassifier,
                      ("n_trees", "max_features", "max_depth", "min_leaf", "bootstrap"),
                      True),
    "decision_tree": (DecisionTreeClassifier, ("max_depth", "min_leaf"), False),
    "knn": (KNNClassifier, ("k",), False),
    "gaussian_nb": (GaussianNBClassifier, (), False),
}
# parameter -> (value check, what the check expects)
_PARAM_RULES = {
    "n_trees": (_positive, "an int >= 1"),
    "max_features": (lambda v: v == "sqrt" or _positive(v), '"sqrt" or an int >= 1'),
    "max_depth": (lambda v: v is None or _int_at_least(0)(v), "null or an int >= 0"),
    "min_leaf": (_positive, "an int >= 1"),
    "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
    "k": (_positive, "an int >= 1"),
}


def encode_labels(labels) -> np.ndarray:
    return np.array([1 if lab == FAKE else 0 for lab in labels], dtype=np.int64)


@dataclass(frozen=True)
class DatasetSplit:
    folds: dict  # news_id -> fold index
    n_folds: int

    def train_news(self, fold) -> list:
        return sorted(n for n, f in self.folds.items() if f != fold)


def stratified_folds(labels: dict, n_folds: int = N_FOLDS, seed: int = 0) -> DatasetSplit:
    """Deal each class round-robin after a seeded shuffle; counts differ <= 1."""
    assignment = {}
    rng = random.Random(derive_seed(seed, "folds"))
    for label in sorted(set(labels.values())):
        ids = sorted(n for n, lab in labels.items() if lab == label)
        if len(ids) < n_folds:
            raise CorpusError(f"too few {label!r} news to stratify into "
                              f"{n_folds} folds ({len(ids)})")
        rng.shuffle(ids)
        for pos, news in enumerate(ids):
            assignment[news] = pos % n_folds
    return DatasetSplit(folds=assignment, n_folds=n_folds)


def confusion(y_true, y_pred) -> dict:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return {
        "tp": int(np.sum((y_true == 1) & (y_pred == 1))),
        "fp": int(np.sum((y_true == 0) & (y_pred == 1))),
        "tn": int(np.sum((y_true == 0) & (y_pred == 0))),
        "fn": int(np.sum((y_true == 1) & (y_pred == 0))),
    }


def accuracy_from(conf) -> float:
    total = conf["tp"] + conf["fp"] + conf["tn"] + conf["fn"]
    return (conf["tp"] + conf["tn"]) / total if total else 0.0


def f1_from(conf) -> float:
    denom = 2 * conf["tp"] + conf["fp"] + conf["fn"]
    return 2 * conf["tp"] / denom if denom else 0.0


@dataclass(frozen=True)
class EvalReport:
    classifier: str
    theta: float
    fold_accuracy: tuple
    fold_f1: tuple
    confusion: dict  # summed over folds

    @property
    def accuracy(self) -> float:
        return left_sum(self.fold_accuracy) / len(self.fold_accuracy)

    @property
    def f1(self) -> float:
        return left_sum(self.fold_f1) / len(self.fold_f1)

    def to_dict(self) -> dict:
        return {
            "classifier": self.classifier,
            "theta": self.theta,
            "fold_accuracy": list(self.fold_accuracy),
            "fold_f1": list(self.fold_f1),
            "accuracy_mean": self.accuracy,
            "f1_mean": self.f1,
            "confusion": dict(self.confusion),
        }


def fit_classifier(kind: str, X, y, seed: int = 0, params: dict | None = None):
    """Fit a fresh `kind` classifier; seeded kinds get `seed`."""
    params = dict(params or {})
    check_params(kind, params)
    _check_training_set(y)
    cls, _, seeded = CLASSIFIERS[kind]
    if seeded:
        params["seed"] = seed
    return cls(**params).fit(X, y)


def check_params(kind: str, params: dict) -> None:
    """Raise ValueError for an unknown kind, or a parameter `kind` does not
    accept or whose value is out of range."""
    if kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    accepted = CLASSIFIERS[kind][1]
    for name, value in params.items():
        if name not in accepted:
            raise ValueError(f"{kind} does not take parameter {name!r} "
                             f"(accepted: {', '.join(accepted) or 'none'})")
        valid, expected = _PARAM_RULES[name]
        if not valid(value):
            raise ValueError(f"{kind} parameter {name!r} must be {expected}, "
                             f"got {value!r}")


def _check_training_set(y):
    y = np.asarray(y)
    if y.size < 2:
        raise CorpusError("need at least 2 training samples")
    if len(set(y.tolist())) < 2:
        raise CorpusError("single-class training set")


def evaluate_masks(extractor: FeatureExtractor, masks: dict, thetas, *, classifier: str,
                   seed: int, params: dict | None = None) -> dict:
    """Cross-validate named feature masks at every threshold in `thetas`.

    `masks` maps a row name to a list of 1-based feature indices. Returns
    {(θ, name): EvalReport}. The fold assignment and classifier seeds depend
    only on the master seed, never on the mask or θ, so masks over identical
    feature values produce identical reports.

    One key rule decides the work: a fit is keyed by (fold, θ, name), and a
    mask of static columns only drops θ from its key, as its values are the
    same at every θ. Each distinct key is fitted once, and its report repeats
    at every θ that shares the key. A fold is extracted at a θ only when
    some fit needs that matrix.
    """
    check_params(classifier, params or {})
    # split over the extractor's networks: a restricted corpus sees only its news
    table = extractor.node_table  # every fold matrix's rows, as in split.train_news
    split = stratified_folds(dict(zip(table.order, table.labels)), N_FOLDS, seed)
    y = encode_labels(table.labels)
    fold_of = np.array([split.folds[news] for news in table.order])
    fits = {(theta, name): (None if all(FEATURE_REGISTRY[i - 1].block == STATIC
                                        for i in mask) else theta, name)
            for theta in thetas for name, mask in masks.items()}
    fitted_at: dict = {}  # fit key -> the θ whose fold matrices it is fitted on
    for (theta, _), fit in fits.items():
        fitted_at.setdefault(fit, theta)
    confusions = {fit: [] for fit in fitted_at}  # fit key -> one confusion per fold
    for fold in range(split.n_folds):
        train, test = fold_of != fold, fold_of == fold
        clf_seed = derive_seed(seed, "clf", classifier, fold)
        for theta in dict.fromkeys(fitted_at.values()):
            X = extract_matrix(extractor, split.train_news(fold), theta).X
            for fit in (fit for fit, at in fitted_at.items() if at == theta):
                cols = [i - 1 for i in masks[fit[1]]]
                clf = fit_classifier(classifier, X[train][:, cols], y[train],
                                     seed=clf_seed, params=params)
                confusions[fit].append(confusion(y[test], clf.predict(X[test][:, cols])))
    reports = {}
    for (theta, name), fit in fits.items():
        folds = confusions[fit]
        reports[theta, name] = EvalReport(classifier=classifier, theta=theta,
                                          fold_accuracy=tuple(map(accuracy_from, folds)),
                                          fold_f1=tuple(map(f1_from, folds)),
                                          confusion={key: sum(conf[key] for conf in folds)
                                                     for key in folds[0]})
    return reports


def cross_validate(extractor: FeatureExtractor, *, mask, classifier: str = "random_forest",
                   theta: float = 0.5, seed: int = 0,
                   params: dict | None = None) -> EvalReport:
    """`evaluate_masks` for one mask at one θ."""
    return evaluate_masks(extractor, {"all": list(mask)}, (theta,), classifier=classifier,
                          seed=seed, params=params)[theta, "all"]
