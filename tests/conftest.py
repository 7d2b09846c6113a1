import numpy as np
from hypothesis import strategies as st

from swat.buckets import BucketScheme
from swat.dataio import Dataset


@st.composite
def schemes(draw, max_buckets=8, max_width=25, tail_open=None):
    """Random bucket schemes via positive widths."""
    widths = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_buckets))
    tail = draw(st.booleans()) if tail_open is None else tail_open
    return BucketScheme(tuple(np.cumsum(widths).tolist()), tail)


def constant_feature_dataset(targets, c=1.0):
    """Every row carries the one token `feat=all`; targets are integers."""
    n = len(targets)
    return Dataset([str(i) for i in range(n)], np.asarray(targets, dtype=float), {"feat": ["all"] * n}, c=c)


def encode_tokens(spec, tokens):
    """(1, hash_dim) features of one row whose `feat` cell holds the tokens,
    through the batch encoder; each is pooled as `feat=<token>`."""
    return spec.encode_dataset(Dataset(["0"], [0.0], {"feat": [" ".join(tokens)]}))
