"""Weisfeiler-Lehman subtree similarity between diffusion networks.

Networks are symmetrized and labeled by user identity or susceptibility
class. The kernel (Shervashidze et al., JMLR 2011) sums, over iterations
0..h, the inner products of two networks' label histograms; iteration 0 uses
the raw labels, and each later one relabels every node with (own label,
sorted multiset of neighbor labels). The normalized kernel lies in [0, 1].

`features.NodeTable` numbers every network's nodes once (news in sorted
order, nodes sorted within a network) and holds their undirected adjacency;
`normalized_gram` refines integers over it: a node's new label is
`ids.setdefault((own, sorted neighbor labels), len(ids))`, with one fresh
`ids` per iteration shared by all networks. Two nodes of any networks then
share an iteration's label exactly when any injective relabelling, such as
the string one `tests/oracles.py` keeps as the reference, gives them one.
The identity labels are the nodes' graph ranks, which partition the nodes
as the user ids do.

All pairwise values come from one Gram matrix per labelling: the sum over
iterations of A_i A_iᵀ, with A_i the networks x labels count block of
iteration i. It depends only on which nodes share a label within an
iteration, and its entries are exact integer sums, so it is the same matrix
for every injective relabelling. The normalization keeps Python's `** 0.5`,
so each entry equals wl_kernel_normalized of the string signatures bit for bit.

WLSignature, wl_kernel and wl_kernel_normalized are that pairwise reference.
No package code calls them, but the benchmark's tracer counts
wl_kernel_normalized by this module path, so they stay here until the
benchmark stops naming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WLSignature:
    h: int
    dictionary: object  # the compression table the histograms' label ids index
    histograms: tuple  # one Counter per iteration 0..h


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


def _gram(network: np.ndarray, iterations, n: int) -> np.ndarray:
    """Exact kernel matrix of n networks from every iteration's node labels.

    `network[k]` is node k's network and each entry of `iterations` is every
    node's label id, ids dense from 0. Iteration i adds A_i A_iᵀ, where
    A_i[t, c] counts the nodes of network t labelled c. A label held by a
    single network adds only count² to that network's diagonal, so A_i keeps
    shared labels only: N x D_i float64, with D_i the labels two or more
    networks hold. Counts are small integers and every sum is an exact
    integer below 2**53, so BLAS summation order does not matter.
    """
    gram = np.zeros((n, n))
    diagonal = np.arange(n)
    for labels in iterations:
        # one entry per (label, network) pair that occurs, with its node count
        pairs, counts = np.unique(np.asarray(labels, dtype=np.int64) * n + network,
                                  return_counts=True)
        labels, rows = np.divmod(pairs, n)
        shared = np.bincount(labels) > 1
        private = ~shared[labels]
        gram[diagonal, diagonal] += np.bincount(rows[private],
                                                weights=counts[private] ** 2,
                                                minlength=n)
        kept = ~private
        block = np.zeros((n, np.count_nonzero(shared)))
        block[rows[kept], (np.cumsum(shared) - 1)[labels[kept]]] = counts[kept]
        gram += block @ block.T
    return gram


def normalized_gram(table, labels) -> np.ndarray:
    """wl_kernel_normalized between every pair of a node table's networks.

    `table` is a `features.NodeTable`, which fixes the node numbering, the
    undirected adjacency and h; `labels` holds every node's raw label, in
    node order. Entries follow `table.order` and equal the pairwise
    function's value bit for bit: the square root is Python's float `** 0.5`
    (libm pow), which differs from np.sqrt in the last place on some
    products.
    """
    flat, bounds = table.neighbours.tolist(), table.neighbour_ptr.tolist()
    neighbours = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    ids: dict = {}
    current = [ids.setdefault(label, len(ids)) for label in labels]
    iterations = [current]
    for _ in range(table.h):
        previous, ids = current, {}
        current = [ids.setdefault((own, tuple(sorted([previous[u] for u in adjacent]))),
                                  len(ids))
                   for own, adjacent in zip(previous, neighbours)]
        iterations.append(current)
    gram = _gram(table.network, iterations, len(table.order))
    diag = np.diag(gram)
    roots = [x ** 0.5 for x in np.outer(diag, diag).ravel().tolist()]
    root = np.array(roots).reshape(gram.shape)
    return np.divide(gram, root, out=np.zeros_like(gram), where=gram != 0.0)


class SimilarityIndex:
    """Mean normalized kernel of every network to one fold's training references.

    features(news) is (fake_identity, true_identity, fake_class, true_class),
    each in [0, 1]; a value is 0 when its reference class is empty. The
    kernels come from the identity-labelled Gram matrix the table keeps and one
    Gram matrix of `classes`, every node's susceptibility class in node
    order (any labels that tell the classes apart).
    """

    def __init__(self, table, training_news, classes):
        training = set(training_news)
        order = table.order
        grams = (table.identity_gram, normalized_gram(table, classes))
        refs = [[i for i, news in enumerate(order)
                 if news in training and table.labels[i] == label]
                for label in ("fake", "true")]
        columns = []
        for gram in grams:
            for cols in refs:
                if not cols:
                    columns.append([0.0] * len(order))
                    continue
                # each row's kernels added left to right in sorted news
                # order, exactly as the pairwise loop did
                columns.append((np.cumsum(gram[:, cols], axis=1)[:, -1]
                                / len(cols)).tolist())
        self._values = dict(zip(order, zip(*columns)))

    def features(self, news_id) -> tuple:
        return self._values[news_id]
