"""Dense SVD and the singular-value-thresholding prox operator, as thin factors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Relative cutoff below which a singular value counts as zero when reporting rank.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: M = U @ diag(sigma) @ V.T with column-orthonormal U, V."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def svd(M: np.ndarray) -> SvdResult:
    """Thin SVD with singular values sorted non-increasing.

    Raises NumericalError on a non-finite entry or if the SVD does not converge.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericalError("matrix contains non-finite entries")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdResult(U=U, sigma=s, V=Vt.T)


def svt_factors(M: np.ndarray, threshold: float) -> SvdResult:
    """Thin SVD of the minimizer of 1/2 ||X - M||_F^2 + threshold * ||X||_tr:
    the singular values of M soft-thresholded by `threshold`, keeping only the
    nonzero ones and their vectors."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    res = svd(M)
    shrunk = res.sigma - threshold
    r = int(np.count_nonzero(shrunk > 0.0))  # sigma is sorted non-increasing
    return SvdResult(U=res.U[:, :r], sigma=shrunk[:r], V=res.V[:, :r])


def sigma_rank(sigma: np.ndarray) -> int:
    """Number of the non-increasing singular values `sigma` above RANK_CUTOFF
    times the largest one: the numerical rank of their matrix."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_CUTOFF * sigma[0]))
