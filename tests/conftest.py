import numpy as np
from hypothesis import strategies as st

from swat.buckets import BucketScheme
from swat.dataio import Dataset, Sample


@st.composite
def schemes(draw, max_buckets=8, max_width=25, tail_open=None):
    """Random bucket schemes via positive widths."""
    widths = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_buckets))
    tail = draw(st.booleans()) if tail_open is None else tail_open
    return BucketScheme(tuple(np.cumsum(widths).tolist()), tail)


def constant_feature_dataset(targets, c=1.0):
    """Every sample carries the same categorical token; targets are integers."""
    samples = tuple(
        Sample(
            id=str(i),
            categorical_ids=("all",),
            numeric=(),
            raw_target=float(t),
        )
        for i, t in enumerate(targets)
    )
    return Dataset(samples, c=c)


def encode_tokens(spec, tokens, numeric=()):
    """(1, input_dim) features of one sample, through the batch encoder."""
    return spec.encode_dataset(Dataset((Sample("0", tuple(tokens), tuple(numeric), 0.0),), c=1.0))
