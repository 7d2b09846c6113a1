"""Seeded generators for KuaiRec-shaped and CIKM-shaped interaction logs.

Each generator is a pure function of its seed: the same seed writes a
byte-identical file.  The targets carry a learnable signal (a lognormal id
effect) so that the quality metrics the benchmark reports gate something.
"""

from __future__ import annotations

import numpy as np


# The effect of the id at each popularity rank is the same for every workload
# seed; the seed draws the rows and which id string carries which rank.  Every
# seed thus samples one population, and quality metrics compare across seeds.
_POPULATION_SEED = 2408


def _effects(n: int, scale: float, stream: int) -> np.ndarray:
    return np.random.default_rng([_POPULATION_SEED, stream]).normal(0.0, scale, n)


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def kuairec_csv(path, n_rows: int, seed: int) -> int:
    """`user_id,video_id,play_duration` rows; play time in seconds.

    log(play_duration) is a user effect plus a video effect plus noise, with
    Zipf-like user and video popularity.  Returns the number of rows written.
    """
    rng = np.random.default_rng(seed)
    n_users, n_videos = 1411, 3327
    user_effect = _effects(n_users, 0.8, 0)
    video_effect = _effects(n_videos, 0.8, 1)
    users = rng.choice(n_users, size=n_rows, p=_zipf_probs(n_users, 1.0))
    videos = rng.choice(n_videos, size=n_rows, p=_zipf_probs(n_videos, 1.0))
    log_play = 2.0 + user_effect[users] + video_effect[videos] + rng.normal(0.0, 0.3, n_rows)
    play = np.exp(log_play)
    user_ids = rng.permutation(n_users)[users].tolist()
    video_ids = rng.permutation(n_videos)[videos].tolist()
    lines = ["user_id,video_id,play_duration"]
    lines.extend(f"{u},{v},{p:.3f}" for u, v, p in zip(user_ids, video_ids, play.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return n_rows


def cikm_csv(path, n_sessions: int, seed: int) -> int:
    """`session_id,items,dwell_time` rows; items are '|'-separated ids.

    Each session holds 5..60 items drawn Zipf-like from a 50k catalogue;
    log(dwell_time) is the mean item effect plus noise, capped at 10 s.  Returns the number
    of rows written.
    """
    rng = np.random.default_rng(seed)
    catalogue = 50_000
    item_effect = _effects(catalogue, 1.5, 2)
    lengths = rng.integers(5, 61, size=n_sessions)
    items = rng.choice(catalogue, size=int(lengths.sum()), p=_zipf_probs(catalogue, 1.05))
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    mean_effect = np.add.reduceat(item_effect[items], bounds[:-1]) / lengths
    # Dwell is cut at a fixed 10 s, as a logging timeout would; about 0.4% of
    # sessions reach it.  The largest target, and so the last closed bucket
    # of the binom head, is then the same for every seed.
    dwell = np.minimum(np.exp(1.0 + mean_effect + rng.normal(0.0, 0.3, n_sessions)), 10.0)
    item_list = rng.permutation(catalogue)[items].tolist()
    lines = ["session_id,items,dwell_time"]
    for s, (lo, hi, d) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist(), dwell.tolist())):
        lines.append(f"{s},{'|'.join(map(str, item_list[lo:hi]))},{d:.3f}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return n_sessions
