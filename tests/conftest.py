import dataclasses

import numpy as np
from hypothesis import strategies as st

from swat import heads
from swat.buckets import BucketScheme
from swat.dataio import Dataset
from swat.heads import HeadKind


@st.composite
def schemes(draw, max_buckets=8, max_width=25):
    """Random bucket schemes via positive widths."""
    widths = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_buckets))
    return BucketScheme(tuple(np.cumsum(widths).tolist()))


def constant_feature_dataset(targets, c=1.0):
    """Every row carries the one token `feat=all`; targets are integers."""
    n = len(targets)
    return Dataset([str(i) for i in range(n)], np.asarray(targets, dtype=float), {"feat": ["all"] * n}, c=c)


def fit_binom_to_labels(monkeypatch, labels):
    """Make the binom head fit the soft labels ``labels[t]`` in place of those
    of watch time t: on ``constant_feature_dataset(np.arange(n))`` each row's
    target is its row number, so row i fits ``labels[i]``.  As binom's own
    encoding does, the successes are the labels in the loss's dtype and the
    failures 1 minus them."""
    entry = heads.HEADS[HeadKind.BINOM]

    def encode(scheme, t, dtype):
        soft = labels[t].astype(dtype)
        return soft, 1 - soft

    monkeypatch.setitem(heads.HEADS, HeadKind.BINOM, dataclasses.replace(entry, encode=encode))


def encode_tokens(spec, tokens):
    """(1, hash_dim) features of one row whose `feat` cell holds the tokens,
    through the batch encoder; each is pooled as `feat=<token>`."""
    return spec.encode_dataset(Dataset(["0"], [0.0], {"feat": [" ".join(tokens)]})).rows([0])
