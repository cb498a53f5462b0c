"""Weisfeiler-Lehman subtree similarity between diffusion networks.

Networks are symmetrized and labeled by user identity or susceptibility
class. The kernel (Shervashidze et al., JMLR 2011) sums, over iterations
0..h, the inner products of two networks' label histograms; iteration 0 uses
the raw labels, and each later one relabels every node with (own label,
sorted multiset of neighbor labels). The normalized kernel lies in [0, 1].

`features.NodeTable` numbers every network's nodes once (news in sorted
order, nodes sorted within a network) and holds their undirected adjacency
as one CSR. `normalized_gram` refines integers over it, all networks at
once, with one array pass per iteration (`_refine`): it gathers every
node's neighbour labels, maps each label to a random 64-bit value and takes
each node's wrapping sum of them as differences of one uint64 `cumsum`, an
order-free multiset hash (Clarke et al., ASIACRYPT 2003). Adding a second
random value of the node's own label gives one key per (own label,
neighbour multiset); one sort groups equal keys, and a node's new label is
its group's index. Hashes can collide, so the grouping is checked exactly:
every node's own label, degree and sorted neighbour labels (one sort of the
flat keys node * n + label) must equal those of its group's first node. On
a mismatch the values are redrawn from the next seed. Two nodes of any
networks therefore share an iteration's label exactly when any injective
relabelling, such as the dict and string ones `tests/oracles.py` keeps as
references, gives them one, whichever values passed. The identity labels
are the nodes' graph ranks, which partition the nodes as the user ids do.

All pairwise values come from one Gram matrix per labelling: the sum over
iterations of A_i A_iᵀ, with A_i the networks x labels count block of
iteration i. It depends only on which nodes share a label within an
iteration, and its entries are exact integer sums, so it is the same matrix
for every injective relabelling, and so are its bytes. The normalization
keeps Python's `** 0.5`, so each entry equals wl_kernel_normalized of the
string signatures bit for bit; the matrix is symmetric and x * y == y * x,
so the square roots are taken over its nonzero upper triangle and mirrored.

WLSignature, wl_kernel and wl_kernel_normalized are that pairwise reference.
No package code calls them, but the benchmark's tracer counts
wl_kernel_normalized by this module path, so they stay here until the
benchmark stops naming them.
"""

from __future__ import annotations

import itertools
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


def _hash_values(size: int, attempt: int) -> np.ndarray:
    """`size` random 64-bit values, drawn from seed `attempt`."""
    return np.random.default_rng(attempt).integers(0, 1 << 64, size=size, dtype=np.uint64)


def _refine(table, labels) -> list:
    """Every node's label id at iterations 0..h, in node order: hashed
    groups of (own label, neighbour multiset), checked exactly and redrawn
    on a collision (see the module docstring)."""
    ptr = table.neighbour_ptr
    n = ptr.size - 1
    degree = np.diff(ptr)
    owner = np.repeat(np.arange(n), degree)  # the node of each neighbour slot
    slot = np.arange(owner.size) - ptr[:-1][owner]  # its place in the node's row
    current = np.unique(np.asarray(labels), return_inverse=True)[1]
    iterations = [current]
    attempt = 0
    # neighbour values, then own-label values (labels are below n); from one
    # table, x next to y and y next to x would collide under every draw
    values = _hash_values(2 * n, attempt)
    for _ in range(table.h):
        gathered = current[table.neighbours]
        # each node's neighbour labels ascending; keys below n * n, inside
        # int64 for any table of fewer than 3e9 nodes
        offset = owner * n
        ascending = np.sort(offset + gathered) - offset
        while True:
            sums = np.zeros(gathered.size + 1, dtype=np.uint64)
            np.cumsum(values[gathered], out=sums[1:])
            hashed = sums[ptr[1:]] - sums[ptr[:-1]] + values[n:][current]
            order = np.argsort(hashed)
            ranked = hashed[order]
            starts = np.ones(n, dtype=bool)
            np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
            group = np.empty(n, dtype=np.int64)
            group[order] = np.cumsum(starts) - 1
            first = order[starts][group]
            if (np.array_equal(current[first], current)
                    and np.array_equal(degree[first], degree)
                    and np.array_equal(ascending[ptr[first][owner] + slot], ascending)):
                break
            attempt += 1
            values = _hash_values(2 * n, attempt)
        current = group
        iterations.append(current)
    return iterations


def normalized_gram(table, labels) -> np.ndarray:
    """wl_kernel_normalized between every pair of a node table's networks.

    `table` is a `features.NodeTable`, which fixes the node numbering, the
    undirected adjacency and h; `labels` holds every node's raw label, in
    node order (an array or a list of any values numpy can sort). Entries
    follow `table.order` and equal the pairwise function's value bit for
    bit: the square root is Python's float `** 0.5` (libm pow), which differs
    from np.sqrt in the last place on some products. The Gram matrix is
    symmetric and x * y == y * x, so only its nonzero upper triangle is
    normalized, then mirrored.
    """
    gram = _gram(table.network, _refine(table, labels), len(table.order))
    i, j = np.nonzero(np.triu(gram))
    diag = np.diag(gram)
    roots = [x ** 0.5 for x in (diag[i] * diag[j]).tolist()]
    out = np.zeros_like(gram)
    out[i, j] = gram[i, j] / np.array(roots)
    out[j, i] = out[i, j]
    return out


class SimilarityIndex:
    """Mean normalized kernel of every network to one fold's training references.

    features() is one (networks, 4) array in `table.order`, columns
    (fake_identity, true_identity, fake_class, true_class), each in [0, 1];
    a value is 0 when its reference class is empty. The kernels come from
    the identity-labelled Gram matrix the table keeps and one Gram matrix of
    `classes`, every node's susceptibility class in node order (any labels
    that tell the classes apart).
    """

    def __init__(self, table, training_news, classes):
        training = set(training_news)
        grams = (table.identity_gram, normalized_gram(table, classes))
        refs = [[i for i, news in enumerate(table.order)
                 if news in training and table.labels[i] == label]
                for label in ("fake", "true")]
        self._values = np.zeros((len(table.order), 4))
        for k, (gram, cols) in enumerate(itertools.product(grams, refs)):
            if cols:
                # each row's kernels added left to right in sorted news
                # order, exactly as the pairwise loop did
                self._values[:, k] = np.cumsum(gram[:, cols], axis=1)[:, -1] / len(cols)

    def features(self) -> np.ndarray:
        return self._values
