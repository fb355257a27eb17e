"""Independent brute-force references used by the tests: finite-difference
gradients, explicit kernel bases, the full-basis Hadamard form of the
spectral weight, dense operator materializations, and a dense KKT solve of
the weighted least squares step.

These deliberately avoid the implicit formulas used by the production code:
orthogonal complements are materialized, gradients are differenced, kernels
come from a full SVD of the measurement matrix.
"""

import numpy as np
import scipy.linalg as sla

from sparselowrank.weights import apply_w

#: size guards so a misconfigured test cannot silently burn minutes
MAX_DENSE_DIM = 2500


def finite_diff_grad(f, X, step=1e-6):
    """Central differences entrywise; step scaled by max(1, |X_ij|)."""
    X = np.asarray(X, dtype=float)
    G = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        h = step * max(1.0, abs(X[idx]))
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        G[idx] = (f(Xp) - f(Xm)) / (2 * h)
    return G


def kernel_basis(op):
    """Orthonormal basis of ker A as a stack of matrices (k, n1, n2)."""
    Amat = op.as_matrix()
    if Amat.shape[1] > MAX_DENSE_DIM:
        raise ValueError("kernel basis oracle exceeds its size budget")
    null = sla.null_space(Amat)
    return null.T.reshape(-1, op.n1, op.n2)


def _complete_basis(M, n):
    """[M M_perp] with orthonormal columns spanning R^n."""
    k = M.shape[1]
    if k == 0:
        return np.eye(n)
    Q, _ = np.linalg.qr(np.hstack([M, np.random.default_rng(0).standard_normal((n, n))]))
    # first k columns of Q span col(M) but may differ by sign/rotation; use M itself
    full = np.hstack([M, Q[:, k:n]])
    # re-orthogonalize the complement against M exactly
    comp = Q[:, k:n] - M @ (M.T @ Q[:, k:n])
    comp, _ = np.linalg.qr(comp)
    return np.hstack([M, comp[:, : n - k]])


def hadamard_weight_oracle(X, eps, delta, Z):
    """Spectral weight part applied through the explicit full-basis Hadamard
    form: [U U_perp] (H o ([U U_perp]' Z [V V_perp])) [V V_perp]', with
    H_ij = min(eps/sigma_i, 1) min(eps/sigma_j, 1) on the full spectra."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n1, n2 = X.shape
    U, sig, Vt = np.linalg.svd(X, full_matrices=False)
    if np.isinf(eps):
        r_k = 0
    else:
        r_k = int(np.sum(sig > eps * (1 + 1e-12)))
    Ufull = _complete_basis(U[:, :r_k], n1)
    Vfull = _complete_basis(Vt[:r_k].T, n2)
    h1 = np.ones(n1)
    h2 = np.ones(n2)
    h1[:r_k] = eps / sig[:r_k]
    h2[:r_k] = eps / sig[:r_k]
    H = np.outer(h1, h2)
    return Ufull @ (H * (Ufull.T @ Z @ Vfull)) @ Vfull.T


def dense_weight_matrix(ws, apply_w):
    """n1 n2 x n1 n2 matrix of the weight operator, by application to the
    standard basis (row-major flattening)."""
    n1, n2 = ws.n1, ws.n2
    N = n1 * n2
    if N > MAX_DENSE_DIM:
        raise ValueError("dense weight oracle exceeds its size budget")
    cols = np.empty((N, N))
    E = np.zeros((n1, n2))
    for j in range(N):
        E.flat[j] = 1.0
        cols[:, j] = apply_w(ws, E).ravel()
        E.flat[j] = 0.0
    return cols


def dense_oracle_solve(op, y, ws):
    """KKT reference solve of min <X, W(X)> s.t. A(X) = y: factor
    [[W, A'], [A, 0]] densely and return the X block."""
    Wmat = dense_weight_matrix(ws, apply_w)
    Amat = op.as_matrix()
    N, m = Wmat.shape[0], Amat.shape[0]
    K = np.zeros((N + m, N + m))
    K[:N, :N] = Wmat
    K[:N, N:] = Amat.T
    K[N:, :N] = Amat
    rhs = np.concatenate([np.zeros(N), np.asarray(y, dtype=float)])
    try:
        sol = sla.solve(K, rhs)
    except sla.LinAlgError:
        sol, *_ = sla.lstsq(K, rhs)
    return sol[:N].reshape(op.n1, op.n2)


def kernel_orthogonality(ws, X, kernel_dirs):
    """Worst normalized |<W(X), Xi>| over the kernel directions Xi: the
    optimality condition of the weighted least squares step."""
    WX = apply_w(ws, X)
    wnorm = np.linalg.norm(WX)
    worst = 0.0
    for Xi in kernel_dirs:
        denom = wnorm * np.linalg.norm(Xi)
        if denom > 0:
            worst = max(worst, abs(float(np.sum(WX * Xi))) / denom)
    return worst


def sorted_row_norms(X):
    """Brute-force nonincreasing rearrangement of row norms (stable in index)."""
    norms = [float(np.linalg.norm(row)) for row in X]
    order = sorted(range(len(norms)), key=lambda i: (-norms[i], i))
    return [norms[i] for i in order]
