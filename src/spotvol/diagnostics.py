"""Chain convergence diagnostics: split R-hat and effective sample size."""

from __future__ import annotations

import numpy as np

from .errors import TooFewDraws

# parameters per ESS pass: bounds the FFT work arrays to a few MB, where one
# pass over all T+9 parameters of a T=3500 fit peaks near 200 MB
ESS_BLOCK = 16


def _chain_array(chains) -> np.ndarray:
    """Draws of shape (chains, draws) or (chains, draws, params) as a float
    (chains, draws, params) array with at least 2 chains and 4 draws."""
    chains = np.asarray(chains, dtype=float)
    if chains.ndim == 2:
        chains = chains[..., None]
    if chains.shape[0] < 2:
        raise TooFewDraws("need at least 2 chains")
    if chains.shape[1] < 4:
        raise TooFewDraws("need at least 4 draws per chain")
    return chains


def _variances(x: np.ndarray):
    """W (mean within-chain variance) and var+ (W shrunk by (n-1)/n plus the
    between-chain variance of the means) per parameter of x, shape
    (chains, draws, params)."""
    n = x.shape[1]
    w = x.var(axis=1, ddof=1).mean(axis=0)
    return w, (n - 1) / n * w + x.mean(axis=1).var(axis=0, ddof=1)


def split_rhat(chains: np.ndarray):
    """Split R-hat per parameter.

    Parameters
    ----------
    chains : ndarray, shape (n_chains, n_draws) or (n_chains, n_draws, n_params)

    Returns
    -------
    rhat : ndarray
        One value per parameter, >= 1 up to floating error. Chains with
        zero total variance report 1.0.
    zero_variance : ndarray of bool
        Flags parameters where every split sequence was constant.
    """
    chains = _chain_array(chains)
    half = chains.shape[1] // 2  # an odd draw count drops the middle draw
    w, var_plus = _variances(np.concatenate(
        [chains[:, :half], chains[:, chains.shape[1] - half:]], axis=0))
    zero = w <= 0
    rhat = np.ones(chains.shape[2])
    rhat[~zero] = np.sqrt(var_plus[~zero] / w[~zero])
    return rhat, zero


def ess(chains: np.ndarray) -> np.ndarray:
    """Effective sample size per parameter (Geyer initial monotone sequence).

    Autocorrelations are estimated per chain by FFT, combined across chains
    with the usual between/within variance weighting, then paired sums are
    truncated at the first negative pair and forced monotone. Parameters
    with zero within-chain variance report chains x draws, the cap.
    """
    chains = _chain_array(chains)
    m, n, p = chains.shape
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    k = (n - 1) // 2  # lag pairs (t, t + 1) for t = 1, 3, ... while t + 1 < n
    out = np.empty(p)
    for lo in range(0, p, ESS_BLOCK):
        # (m, b, n) with draws contiguous, so every reduction over draws
        # sums in the same order as it does on one parameter's chains
        x = np.ascontiguousarray(
            chains[:, :, lo:lo + ESS_BLOCK].transpose(0, 2, 1))
        w, var_plus = _variances(x.transpose(0, 2, 1))
        zero = w <= 0
        f = np.fft.rfft(x - x.mean(axis=2, keepdims=True), nfft)
        acov = np.fft.irfft(f * np.conj(f), nfft)[..., :n] / n
        # a constant parameter would divide 0 by 0; it reports the cap
        rho = 1.0 - ((w[:, None] - acov.mean(axis=0))
                     / np.where(zero, 1.0, var_plus)[:, None])
        pairs = rho[:, 1:2 * k:2] + rho[:, 2:2 * k + 1:2]
        keep = np.logical_and.accumulate(pairs >= 0, axis=1)
        steps = np.where(keep, 2.0 * np.minimum.accumulate(pairs, axis=1), 0.0)
        # sequential sum from 1.0, in lag order
        tau = np.cumsum(np.column_stack([np.ones(len(w)), steps]), axis=1)[:, -1]
        out[lo:lo + ESS_BLOCK] = np.where(zero, m * n,
                                          np.minimum(m * n, m * n / tau))
    return out
