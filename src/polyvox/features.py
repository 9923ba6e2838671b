"""Deterministic stand-ins for the pretrained content and timbre encoders.

Content: the clip's loudness and its onsets, which carry little of the sung
pitch or of the singer. Timbre: a pitch-independent spectral envelope through
a linear discriminant projection fitted in closed form on singer labels,
then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FRAME_RATE, MelSpectrogram
from .errors import ContractError

N_CONTENT = 2
CONTENT_FLOOR = 1e-6  # content floor relative to the clip's loudest mel cell
TIMBRE_DIM = 192
TIMBRE_BANDS = 48  # mel bands 0..47, centres 69 Hz .. 3.99 kHz: the formant region
_ENVELOPE_HALF_WIDTH = 2  # bands; about one harmonic spacing of a sung f0 near F2-F3
_VOICED_RANGE = np.log(100.0)  # 40 dB in log amplitude


def _dct_rows(n_out: int, n_in: int) -> np.ndarray:
    """Type-II cosine transform rows 1..n_out (row 0, the energy term, is
    deliberately absent). The rows are orthogonal, each of norm sqrt(n_in/2)."""
    k = np.arange(1, n_out + 1)[:, None]
    b = np.arange(n_in)[None, :]
    return np.cos(np.pi * k * (2 * b + 1) / (2 * n_in))


def extract_content(m: MelSpectrogram) -> np.ndarray:
    """Per-frame content of a whole clip, (frames, 2): loudness, centred over
    the frames given, and onset.

    Cells are first floored at `CONTENT_FLOOR` times the loudest mel cell
    given. A gain change scales every cell by one factor, and a floor relative
    to the frames follows it, where the absolute `LOG_FLOOR` of the mel does
    not (a band clamped there stays put while the rest shift). Loudness is the
    log of the summed exponentiated cells, so a gain change adds one constant
    to it, which the centring removes; onset is loudness's rise from the frame
    before (0 at frame 0 and wherever it falls). Neither moves with gain while
    the frames peak more than 1/CONTENT_FLOOR above `LOG_FLOOR`. Loudness is
    centred, not divided by its spread: on legato singing it barely moves,
    and a division would blow each singer's small ripple up to unit size.
    """
    values = np.maximum(m.values, m.values.max() + np.log(CONTENT_FLOOR))
    loudness = np.log(np.exp(values).sum(axis=1))
    onset = np.maximum(np.diff(loudness, prepend=loudness[0]), 0.0)
    return np.stack([loudness - loudness.mean(), onset], axis=1)


def timbre_stats(m: MelSpectrogram) -> np.ndarray:
    """Pitch-independent spectral envelope of a clip, a `TIMBRE_BANDS`-vector.

    Frames whose loudest band lies within 40 dB of the clip's loudest are
    voiced. In each, the log-mel's upper envelope (maximum over +/-2 bands)
    reads the partials' peaks rather than the pitch-dependent valleys between
    them; it is kept for the bands below 4 kHz and its mean over those bands
    is subtracted, which removes level and with it the log-f0 offset that a
    harmonic roll-off adds to every band. The result is averaged over the
    voiced frames. Above 4 kHz, past the formants, how much of a band the
    partials reach moves with pitch, so those bands are left out.
    """
    v = m.values
    voiced = v[v.max(axis=1) >= v.max() - _VOICED_RANGE]
    k = _ENVELOPE_HALF_WIDTH
    padded = np.pad(voiced, ((0, 0), (k, k)), mode="edge")
    env = np.max([padded[:, s : s + TIMBRE_BANDS] for s in range(2 * k + 1)], axis=0)
    return (env - env.mean(axis=1, keepdims=True)).mean(axis=0)


@dataclass
class TimbreSpace:
    """Frozen linear projection from standardized timbre statistics to the
    unit sphere."""

    weight: np.ndarray  # (TIMBRE_BANDS, TIMBRE_DIM)
    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if (np.shape(self.weight) != (TIMBRE_BANDS, TIMBRE_DIM)
                or np.shape(self.mean) != (TIMBRE_BANDS,) or np.shape(self.scale) != (TIMBRE_BANDS,)):
            raise ContractError(
                f"timbre space of shape {np.shape(self.weight)} was fitted on other statistics "
                f"than the {TIMBRE_BANDS}-band envelope; refit it")

    def embed(self, m: MelSpectrogram) -> np.ndarray:
        """L2-normalized 192-d timbre embedding of a clip of at least 1 s."""
        if m.frames < int(FRAME_RATE):
            raise ContractError(f"timbre embedding needs >= 1 s, got {m.frames} frames")
        v = ((timbre_stats(m) - self.mean) / self.scale) @ self.weight
        return v / max(np.linalg.norm(v), 1e-12)


def _ledoit_wolf(resid: np.ndarray) -> float:
    """Ledoit-Wolf shrinkage intensity of the covariance of `resid` (rows are
    centred observations) toward a scaled identity; 1 when it is degenerate."""
    n, d = resid.shape
    cov = resid.T @ resid / n
    delta = np.sum((cov - np.trace(cov) / d * np.eye(d)) ** 2)
    if delta <= 0.0:
        return 1.0
    sq = resid**2
    beta = (np.sum(sq.T @ sq) / n - np.sum(cov**2)) / n
    return float(np.clip(beta / delta, 0.0, 1.0))


def train_timbre_space(stats: np.ndarray, labels: np.ndarray) -> TimbreSpace:
    """Fit the projection in closed form by shrinkage linear discriminant
    analysis of the singer labels, one per row of `stats`; any distinct
    values name the singers.

    Statistics are centred and divided by one pooled standard deviation (they
    share one unit). The within-singer covariance is shrunk toward a scaled
    identity by the Ledoit-Wolf intensity, which grows as examples per
    dimension fall. The discriminant directions solve S_b v = lambda S_w v;
    the leading (singers - 1), each of unit within-singer variance, span the
    embedding, so every direction of the output is set by the data. An
    orthonormal cosine basis spreads that span over the `TIMBRE_DIM` outputs:
    it keeps every cosine and gives the unit-norm embedding elements of about
    1/sqrt(TIMBRE_DIM), the scale the converter's conditioning expects. With
    a single singer there is no discriminant direction: the weight is zero,
    nothing is factorised, and every clip maps to the zero vector.
    """
    if stats.ndim != 2 or stats.shape[0] != labels.shape[0] or stats.shape[1] != TIMBRE_BANDS:
        raise ContractError(f"bad timbre-space inputs: stats {stats.shape}, labels {labels.shape}")
    mu = stats.mean(axis=0)
    scale = np.full(stats.shape[1], max(float(np.sqrt(stats.var(axis=0).mean())), 1e-6))
    x = (stats - mu) / scale

    classes, idx, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if classes.size < 2:
        return TimbreSpace(np.zeros((TIMBRE_BANDS, TIMBRE_DIM)), mu, scale)
    means = np.stack([x[idx == c].mean(axis=0) for c in range(classes.size)])
    resid = x - means[idx]
    n, d = x.shape
    s_b = (means.T * counts) @ means / n
    s_w = resid.T @ resid / n
    shrink = _ledoit_wolf(resid)
    s_w = (1.0 - shrink) * s_w + shrink * max(np.trace(s_w) / d, 1e-6) * np.eye(d)

    # S_b v = lambda S_w v through the Cholesky factor S_w = L L^T; the
    # eigenvectors come out with v^T S_w v = 1
    inv = np.linalg.inv(np.linalg.cholesky(s_w))
    _, u = np.linalg.eigh(inv @ s_b @ inv.T)
    vecs = inv.T @ u
    rank = min(classes.size - 1, d)
    lead = vecs[:, ::-1][:, :rank]
    spread = _dct_rows(rank, TIMBRE_DIM) * np.sqrt(2.0 / TIMBRE_DIM)
    return TimbreSpace(weight=lead @ spread, mean=mu, scale=scale)
