"""Weisfeiler-Lehman subtree signatures and kernel over labeled graphs.

Diffusion networks are symmetrized and labeled either by user identity or by
susceptibility class. Signature: at iteration 0 the histogram of compressed
raw labels; each following iteration relabels every node with the compression
of (own label, sorted multiset of neighbor labels). All graphs that will be
compared must share one compression dictionary. The kernel is the sum over
iterations of histogram inner products; the normalized variant lies in [0, 1].

That kernel is a linear kernel on per-iteration label counts (Shervashidze
et al., JMLR 2011), so SimilarityIndex takes every pairwise value from one
Gram matrix per labelling: the sum over iterations of A_i A_iᵀ, with A_i the
networks x labels count block of iteration i. The sums are exact integers,
and the normalization keeps the pairwise function's Python `** 0.5`, so each
entry equals wl_kernel_normalized bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionNetwork

IDENTITY = "identity"
SUSCEPTIBILITY_CLASS = "susceptibility_class"
LABELING_SCHEMES = (IDENTITY, SUSCEPTIBILITY_CLASS)


class WLDictionary:
    """Shared label-compression table; assigns dense ids in first-seen order."""

    def __init__(self):
        self._ids: dict = {}

    def encode(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self._ids)
        return self._ids[label]


@dataclass(frozen=True)
class LabeledGraph:
    nodes: tuple
    adjacency: dict  # node -> tuple of neighbors (undirected, sorted)
    labels: dict  # node -> label string


def labeled_graph(network: DiffusionNetwork, scheme: str, model=None) -> LabeledGraph:
    if scheme not in LABELING_SCHEMES:
        raise ValueError(f"scheme must be one of {LABELING_SCHEMES}, got {scheme!r}")
    und = {v: set() for v in network.nodes}
    for u, v in network.edges:
        und[u].add(v)
        und[v].add(u)
    nodes = tuple(network.sorted_nodes())
    if scheme == IDENTITY:
        labels = {v: v for v in nodes}
    else:
        if model is None:
            raise ValueError("susceptibility_class labeling requires a model")
        labels = {v: model.classify(v) for v in nodes}
    return LabeledGraph(
        nodes=nodes,
        adjacency={v: tuple(sorted(und[v])) for v in nodes},
        labels=labels,
    )


@dataclass(frozen=True)
class WLSignature:
    h: int
    dictionary: WLDictionary
    histograms: tuple  # one Counter per iteration 0..h


def wl_signature(graph: LabeledGraph, h: int, dictionary: WLDictionary) -> WLSignature:
    if h < 0:
        raise ValueError("h must be >= 0")
    current = {v: dictionary.encode(graph.labels[v]) for v in graph.nodes}
    histograms = [Counter(current.values())]
    for _ in range(h):
        relabeled = {}
        for v in graph.nodes:
            neighborhood = ",".join(str(c) for c in
                                    sorted(current[u] for u in graph.adjacency[v]))
            relabeled[v] = dictionary.encode(f"{current[v]}|{neighborhood}")
        current = relabeled
        histograms.append(Counter(current.values()))
    return WLSignature(h=h, dictionary=dictionary, histograms=tuple(histograms))


def wl_kernel(a: WLSignature, b: WLSignature) -> float:
    if a.h != b.h:
        raise ValueError(f"signature iteration counts differ: {a.h} vs {b.h}")
    if a.dictionary is not b.dictionary:
        raise ValueError("signatures were built with different compression dictionaries")
    total = 0.0
    for ha, hb in zip(a.histograms, b.histograms):
        small, large = (ha, hb) if len(ha) <= len(hb) else (hb, ha)
        total += float(sum(count * large.get(label, 0) for label, count in small.items()))
    return total


def wl_kernel_normalized(a: WLSignature, b: WLSignature) -> float:
    k = wl_kernel(a, b)
    if k == 0.0:
        return 0.0
    kaa = wl_kernel(a, a)
    kbb = wl_kernel(b, b)
    if kaa == 0.0 or kbb == 0.0:
        return 0.0
    return k / (kaa * kbb) ** 0.5


def _gram(signatures: list) -> np.ndarray:
    """Exact kernel matrix: entry [t, r] is wl_kernel(signatures[t], signatures[r]).

    Iteration i adds A_i A_iᵀ, where A_i[t, c] is the count of label c in
    network t's iteration-i histogram. Every iteration keeps its own columns:
    a raw label containing "|" (a user id may) can share its dictionary id
    with a later iteration's label, and pooling the iterations would then
    match labels across iterations. A label held by a single network adds
    only count² to that network's diagonal, so A_i keeps shared labels only:
    N x D_i float64, with D_i the labels two or more networks hold. Counts
    are small integers and every sum is an exact integer below 2**53, so BLAS
    summation order does not matter.
    """
    n = len(signatures)
    gram = np.zeros((n, n))
    diagonal = np.arange(n)
    for hists in zip(*(sig.histograms for sig in signatures)):
        entries = [(t, label, count) for t, hist in enumerate(hists)
                   for label, count in hist.items()]
        rows, labels, counts = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        _, label_ids, holders = np.unique(labels, return_inverse=True,
                                          return_counts=True)
        private = holders[label_ids] == 1
        gram[diagonal, diagonal] += np.bincount(rows[private],
                                                weights=counts[private] ** 2,
                                                minlength=n)
        kept = ~private
        column = (np.cumsum(holders > 1) - 1)[label_ids[kept]]
        block = np.zeros((n, np.count_nonzero(holders > 1)))
        block[rows[kept], column] = counts[kept]
        gram += block @ block.T
    return gram


def normalized_gram(networks: dict, scheme: str, model=None, h: int = 3) -> np.ndarray:
    """wl_kernel_normalized between every pair of networks, in sorted news order.

    All signatures share one dictionary. Entry [t, r] equals the pairwise
    function's value bit for bit: the square root is Python's float `** 0.5`
    (libm pow), which differs from np.sqrt in the last place on some products.
    """
    dictionary = WLDictionary()
    gram = _gram([wl_signature(labeled_graph(networks[news], scheme, model), h,
                               dictionary) for news in sorted(networks)])
    diag = np.diag(gram)
    roots = [x ** 0.5 for x in np.outer(diag, diag).ravel().tolist()]
    root = np.array(roots).reshape(gram.shape)
    return np.divide(gram, root, out=np.zeros_like(gram), where=gram != 0.0)


class SimilarityIndex:
    """Mean normalized kernel of every network to one fold's training references.

    features(news) is (fake_identity, true_identity, fake_class, true_class),
    each in [0, 1]; a value is 0 when its reference class is empty. The
    kernels come from one normalized Gram matrix per labelling scheme. The
    identity-labelled one depends on the networks and h only, so a caller
    building several indexes over the same networks passes it as `_identity`.
    """

    def __init__(self, networks: dict, training_news, model, h: int = 3,
                 _identity=None):
        training = set(training_news)
        self.h = h
        order = sorted(networks)
        if _identity is None:
            _identity = normalized_gram(networks, IDENTITY, h=h)
        grams = (_identity, normalized_gram(networks, SUSCEPTIBILITY_CLASS, model, h))
        refs = [[i for i, news in enumerate(order)
                 if news in training and networks[news].label == label]
                for label in ("fake", "true")]
        columns = []
        for gram in grams:
            for cols in refs:
                if not cols:
                    columns.append([0.0] * len(order))
                    continue
                # Python's sum over each row adds the kernels in sorted news
                # order, exactly as the pairwise loop did
                columns.append([sum(row) / len(cols)
                                for row in gram[:, cols].tolist()])
        self._values = dict(zip(order, zip(*columns)))

    def features(self, news_id) -> tuple:
        return self._values[news_id]
