"""Linear measurement ensembles and their adjoints.

Three concrete ensembles: dense Gaussian sensing matrices, Gaussian rank-one
probes a_j b_j', and Fourier-domain rank-one measurements as they arise in
blind deconvolution (complex measurements flattened to a real vector, real
parts first). Operators are immutable after construction and deterministic
given (kind, dims, m, seed).

All ensembles are scaled by 1/sqrt(m) by default so that E |A(Z)|_2^2 =
|Z|_F^2, which makes the near-isometry probe directly interpretable; the
recovery algorithms are invariant to this scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, generate_ground_truth

__all__ = [
    "MeasurementOperator",
    "DenseGaussianOperator",
    "RankOneGaussianOperator",
    "FourierRankOneOperator",
    "MatrixOperator",
    "gaussian_dense",
    "gaussian_rank_one",
    "fourier_rank_one",
    "rip_probe",
    "RipEstimate",
]

#: cap on n1 * n2 * m for building the dense matrix representation
MATERIALIZE_BUDGET = 10**8


class MeasurementOperator:
    """Linear map from n1 x n2 matrices to R^m with an adjoint.

    Subclasses implement ``_apply`` and ``_adjoint``; ``m`` is the real
    output dimension.
    """

    kind = "abstract"

    def __init__(self, n1: int, n2: int, m: int, seed=None):
        if m < 1:
            raise ValueError("need at least one measurement")
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.m = int(m)
        self.seed = seed
        self._matrix = None

    @property
    def dims(self):
        return (self.n1, self.n2)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X)
        if X.shape != (self.n1, self.n2):
            raise ValueError(f"expected shape {(self.n1, self.n2)}, got {X.shape}")
        return self._apply(X)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}, got {w.shape}")
        return self._adjoint(w)

    def check_data(self, y) -> np.ndarray:
        """Return the data ``y`` as a float vector, rejecting anything but a
        finite vector of length m."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"data y must be a vector of length {self.m}, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("data y contains non-finite entries")
        return y

    def as_matrix(self) -> np.ndarray:
        """Dense m x (n1 n2) representation (cached; row-major flattening)."""
        if self._matrix is None:
            if self.n1 * self.n2 * self.m > MATERIALIZE_BUDGET:
                raise MemoryError(
                    f"materialization of size {self.m} x {self.n1 * self.n2} "
                    f"exceeds the budget of {MATERIALIZE_BUDGET} entries"
                )
            self._matrix = self._materialize()
        return self._matrix

    def _materialize(self) -> np.ndarray:
        N = self.n1 * self.n2
        out = np.empty((self.m, N))
        E = np.zeros((self.n1, self.n2))
        for j in range(N):
            E.flat[j] = 1.0
            out[:, j] = self._apply(E)
            E.flat[j] = 0.0
        return out

    def _apply(self, X):
        raise NotImplementedError

    def _adjoint(self, w):
        raise NotImplementedError


class DenseGaussianOperator(MeasurementOperator):
    """A(X)_j = <A_j, X>_F with i.i.d. standard normal A_j (times the scale).

    Stores the m x (n1 n2) matrix representation outright.
    """

    kind = "gaussian-dense"

    def __init__(self, n1, n2, m, seed, normalize=True):
        super().__init__(n1, n2, m, seed)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n1 * n2))
        if normalize:
            A /= math.sqrt(m)
        self._matrix = A

    def _apply(self, X):
        return self._matrix @ X.ravel()

    def _adjoint(self, w):
        return (self._matrix.T @ w).reshape(self.n1, self.n2)


class RankOneGaussianOperator(MeasurementOperator):
    """A(X)_j = a_j' X b_j with independent standard normal vectors a_j, b_j.

    The rank-one probes are kept factored; nothing of size n1 * n2 per
    measurement is ever formed.
    """

    kind = "rank-one"

    def __init__(self, n1, n2, m, seed, normalize=True):
        super().__init__(n1, n2, m, seed)
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((m, n1))
        self.b = rng.standard_normal((m, n2))
        self.scale = 1.0 / math.sqrt(m) if normalize else 1.0

    @classmethod
    def from_factors(cls, a, b, normalize=True):
        """Operator with injected probe vectors (rows of a and b)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        op = cls.__new__(cls)
        MeasurementOperator.__init__(op, a.shape[1], b.shape[1], a.shape[0], None)
        op.a = a
        op.b = b
        op.scale = 1.0 / math.sqrt(a.shape[0]) if normalize else 1.0
        return op

    def _apply(self, X):
        return self.scale * np.sum((self.a @ X) * self.b, axis=1)

    def _adjoint(self, w):
        return self.scale * (self.a.T @ (w[:, None] * self.b))

    def _materialize(self):
        rows = (self.a[:, :, None] * self.b[:, None, :]).reshape(self.m, -1)
        return self.scale * rows


class FourierRankOneOperator(MeasurementOperator):
    """Fourier-domain rank-one measurements from the blind-deconvolution model.

    With real Gaussian A (m_c x n1) and B (m_c x n2) and the unitary DFT F,
    the complex measurements are c_j = (FA)_{j,:} X ((FB)_{j,:})'. The real
    operator returns [Re c; Im c] scaled by 1/sqrt(m_c), so its output
    dimension m equals 2 m_c. Since X is real, c has Hermitian symmetry and
    the real operator has rank about m_c.
    """

    kind = "fourier"

    def __init__(self, n1, n2, m, seed, normalize=True):
        # m counts complex measurements; the real output has length 2m
        super().__init__(n1, n2, 2 * m, seed)
        self.m_complex = int(m)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n1))
        B = rng.standard_normal((m, n2))
        self.fa = np.fft.fft(A, axis=0, norm="ortho")
        self.fb = np.fft.fft(B, axis=0, norm="ortho")
        self.scale = 1.0 / math.sqrt(m) if normalize else 1.0

    @classmethod
    def from_factors(cls, A, B, normalize=True):
        """Operator with injected time-domain factor matrices A, B."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        m = A.shape[0]
        op = cls.__new__(cls)
        MeasurementOperator.__init__(op, A.shape[1], B.shape[1], 2 * m, None)
        op.m_complex = m
        op.fa = np.fft.fft(A, axis=0, norm="ortho")
        op.fb = np.fft.fft(B, axis=0, norm="ortho")
        op.scale = 1.0 / math.sqrt(m) if normalize else 1.0
        return op

    def _apply(self, X):
        c = self.scale * np.sum((self.fa @ X) * self.fb, axis=1)
        return np.concatenate([c.real, c.imag])

    def _adjoint(self, w):
        lam = w[: self.m_complex] + 1j * w[self.m_complex:]
        return self.scale * np.real(self.fa.T @ (np.conj(lam)[:, None] * self.fb))

    def _materialize(self):
        rows = (self.fa[:, :, None] * self.fb[:, None, :]).reshape(self.m_complex, -1)
        return self.scale * np.vstack([rows.real, rows.imag])


class MatrixOperator(MeasurementOperator):
    """Operator defined by an explicit m x (n1 n2) matrix (used to inject
    special ensembles such as identity embeddings in tests)."""

    kind = "injected"

    def __init__(self, matrix, n1, n2):
        matrix = np.asarray(matrix, dtype=float)
        super().__init__(n1, n2, matrix.shape[0], seed=None)
        if matrix.shape[1] != n1 * n2:
            raise ValueError("matrix width must equal n1 * n2")
        self._matrix = matrix

    def _apply(self, X):
        return self._matrix @ X.ravel()

    def _adjoint(self, w):
        return (self._matrix.T @ w).reshape(self.n1, self.n2)


def gaussian_dense(n1, n2, m, seed, normalize=True) -> DenseGaussianOperator:
    return DenseGaussianOperator(n1, n2, m, seed, normalize)


def gaussian_rank_one(n1, n2, m, seed, normalize=True) -> RankOneGaussianOperator:
    return RankOneGaussianOperator(n1, n2, m, seed, normalize)


def fourier_rank_one(n1, n2, m, seed, normalize=True) -> FourierRankOneOperator:
    return FourierRankOneOperator(n1, n2, m, seed, normalize)


OPERATOR_FACTORIES = {
    "gaussian-dense": gaussian_dense,
    "rank-one": gaussian_rank_one,
    "fourier": fourier_rank_one,
}


@dataclass(frozen=True)
class RipEstimate:
    """Empirical lower bound on the restricted-isometry constant."""

    delta_lower_bound: float
    ratio_min: float
    ratio_max: float
    trials: int


def rip_probe(op: MeasurementOperator, r: int, s: int, trials: int, seed) -> RipEstimate:
    """Probe |A(Z)|_2^2 / |Z|_F^2 on random unit-norm rank-r, s-row-sparse Z.

    Returns the worst observed deviation from one, an empirical lower bound
    on the near-isometry constant over that structure set.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    lo, hi = np.inf, -np.inf
    for sq in seeds:
        gt = generate_ground_truth(op.n1, op.n2, r, s, sq)
        ratio = float(np.sum(op.apply(gt.X) ** 2))  # |Z|_F = 1 by construction
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    return RipEstimate(
        delta_lower_bound=max(abs(lo - 1.0), abs(hi - 1.0)),
        ratio_min=lo,
        ratio_max=hi,
        trials=trials,
    )
