"""Classical channels as polysimplex points, Choi-matrix calculus for
small quantum channels, the retraction/section pair between channels
and polysimplices, and the causal-channel realization of no-signalling
boxes. That realization builds Φ_{T_γ} from the box's table and checks
the channel; it decides nothing about the box: `Box` checks
no-signalling, and `bell.is_local` decides locality.

Exact (rational) arithmetic is kept wherever the Choi matrix is
diagonal, which covers every classical-to-classical construction here;
dense complex matrices are float-mode only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import R0, R1, TOL, nonneg, rat, same, scalars
from .measurements import MeasurementCollection, make_collection
from .polysimplex import PolySimplex, polysimplex_space
from .witnesses import maximal_incompatibility_certificate, retraction_check


class StochasticMatrix:
    """Rows T(·|i): conditional distributions over outputs; the
    identification with polysimplex points is literal row-wise."""

    def __init__(self, rows):
        rows = tuple(tuple(v for v in r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be non-empty and rectangular")
        values, self.exact = scalars(v for r in rows for v in r)
        width = len(rows[0])
        self.rows = tuple(values[r * width:(r + 1) * width] for r in range(len(rows)))
        for i, r in enumerate(self.rows):
            if not all(nonneg(v) for v in r):
                raise ValueError(f"negative entry in row {i}")
            if not same(sum(r), R1):
                raise ValueError(f"row {i} does not sum to 1")

    @property
    def n_inputs(self):
        return len(self.rows)

    @property
    def n_outputs(self):
        return len(self.rows[0])

    def __call__(self, j, i):
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, StochasticMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"StochasticMatrix({self.n_inputs}x{self.n_outputs})"


class ChoiMatrix:
    """Choi matrix of a channel A → A', indices ordered A'⊗A: the basis
    vector |j⟩_{A'}|i⟩_A sits at position j·d_a + i. Diagonal matrices
    are stored exactly by their diagonal; anything else is a dense
    complex matrix in float mode, finite and checked Hermitian to within
    TOL (every comparison with NaN is false)."""

    def __init__(self, d_a, d_ap, diagonal=None, dense=None):
        if (diagonal is None) == (dense is None):
            raise ValueError("exactly one of diagonal/dense must be given")
        self.d_a = d_a
        self.d_ap = d_ap
        n = d_a * d_ap
        if diagonal is not None:
            diagonal = tuple(diagonal)
            if len(diagonal) != n:
                raise ValueError("diagonal has wrong length")
            self.diagonal, self.exact = scalars(diagonal)
            self.dense = None
        else:
            m = np.asarray(dense, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"dense Choi must be {n}x{n}")
            if not np.isfinite(m).all():
                raise ValueError("Choi matrix entries must be finite")
            if np.max(np.abs(m - m.conj().T)) > TOL * (1.0 + np.max(np.abs(m))):
                raise ValueError("Choi matrix must be Hermitian")
            self.exact = False
            self.diagonal = None
            self.dense = m

    def index(self, j, i):
        return j * self.d_a + i

    def diag_entry(self, j, i):
        k = self.index(j, i)
        if self.diagonal is not None:
            return self.diagonal[k]
        return self.dense[k, k].real

    def is_psd(self):
        if self.diagonal is not None:
            return all(nonneg(v) for v in self.diagonal)
        w = np.linalg.eigvalsh(self.dense)
        scale = max(1.0, float(np.max(np.abs(self.dense))))
        return bool(w.min() >= -TOL * scale)

    def trace_out_output(self):
        """Tr_{A'} X as a d_a×d_a matrix; equals I_A iff trace-preserving."""
        if self.diagonal is not None:
            out = [[R0 if self.exact else 0.0] * self.d_a for _ in range(self.d_a)]
            for i in range(self.d_a):
                out[i][i] = sum(self.diagonal[self.index(j, i)]
                                for j in range(self.d_ap))
            return tuple(tuple(r) for r in out)
        m = self.dense.reshape(self.d_ap, self.d_a, self.d_ap, self.d_a)
        return np.einsum("jajb->ab", m)

    def is_trace_preserving(self):
        t = self.trace_out_output()
        if self.exact:
            return all(t[a][b] == (R1 if a == b else R0)
                       for a in range(self.d_a) for b in range(self.d_a))
        return bool(np.max(np.abs(np.asarray(t, dtype=complex)
                                  - np.eye(self.d_a))) <= TOL)

    def as_dense(self):
        if self.dense is not None:
            return self.dense
        return np.diag(np.array([float(v) for v in self.diagonal], dtype=complex))

    def __repr__(self):
        kind = "diag" if self.diagonal is not None else "dense"
        return f"ChoiMatrix({self.d_a}->{self.d_ap}, {kind})"


def cc_channel(T: StochasticMatrix) -> ChoiMatrix:
    """Classical-to-classical channel σ ↦ Σ ⟨i|σ|i⟩ T(j|i) |j⟩⟨j|: its
    Choi matrix is diagonal with entries T(j|i)."""
    d_a, d_ap = T.n_inputs, T.n_outputs
    diag = [None] * (d_a * d_ap)
    for i in range(d_a):
        for j in range(d_ap):
            diag[j * d_a + i] = T(j, i)
    return ChoiMatrix(d_a, d_ap, diagonal=diag)


def stochastic_from_point(shape: PolySimplex, s) -> StochasticMatrix:
    """The polysimplex point as a padded stochastic matrix:
    T(j|i) = m^i_j(s) for j ≤ l_i and 0 above. Coordinates are read
    raw so float-mode points pass through unconverted."""
    n_out = max(shape.shape) + 1
    rows = []
    for i, l in enumerate(shape.shape):
        rows.append([s[shape.index(i, j)] if j <= l else R0 for j in range(n_out)])
    return StochasticMatrix(rows)


def retraction_R(phi: ChoiMatrix, shape: PolySimplex | None = None):
    """R(Φ) ∈ Δ^{d_A}_{d_{A'}−1} with m^i_j R(Φ) = ⟨j|Φ(|i⟩⟨i|)|j⟩, read
    off the Choi diagonal. R is defined on channels: a Choi matrix that
    is not PSD or not trace-preserving raises ValueError."""
    if not phi.is_psd():
        raise ValueError("Choi matrix is not completely positive")
    if not phi.is_trace_preserving():
        raise ValueError("Choi matrix is not trace-preserving")
    if shape is None:
        shape = PolySimplex((phi.d_ap - 1,) * phi.d_a)
    if shape.k + 1 != phi.d_a or max(shape.shape) + 1 > phi.d_ap:
        raise ValueError("shape does not fit the channel dimensions")
    return tuple(phi.diag_entry(j, i) for i, j in shape.keys)


def section_S(shape: PolySimplex, s) -> ChoiMatrix:
    """The c-c channel with T = T_s; a right inverse of retraction_R."""
    return cc_channel(stochastic_from_point(shape, s))


@dataclass
class CausalChannelReport:
    """Φ_{T_γ} and its checks. `causal` holds for every box: T_γ's entries
    are γ's probabilities padded with exact zeros, so both marginal
    channels ignore the remote input exactly when γ is no-signalling,
    which `Box` has checked with the same comparator. `recovered` is
    (R_A⊗R_B)(Φ), equal to γ at every key, so it is γ itself."""
    choi: ChoiMatrix
    dims: tuple
    recovered: object
    psd: bool
    trace_preserving: bool
    causal: bool


def _bipartite_joint_matrix(box) -> tuple:
    """T_γ((j_A,j_B)|(i_A,i_B)) = p, padded per side; returns the
    StochasticMatrix together with the four local dimensions."""
    sa, sb = box.shape_a, box.shape_b
    d_a, d_b = sa.k + 1, sb.k + 1
    d_ap, d_bp = max(sa.shape) + 1, max(sb.shape) + 1
    rows = []
    for ia in range(d_a):
        for ib in range(d_b):
            row = []
            for ja in range(d_ap):
                for jb in range(d_bp):
                    if ja <= sa.shape[ia] and jb <= sb.shape[ib]:
                        row.append(box.probs[(ia, ib, ja, jb)])
                    else:
                        row.append(R0)
            rows.append(tuple(row))
    return StochasticMatrix(rows), (d_a, d_b, d_ap, d_bp)


def box_to_causal_channel(box) -> CausalChannelReport:
    """Φ := Φ_{T_γ}, with the Choi matrix's own checks (complete
    positivity, trace preservation) and the exact recovery (R_A⊗R_B)(Φ)
    = γ: the Choi diagonal at ((j_A,j_B),(i_A,i_B)) must equal
    p(j_A,j_B|i_A,i_B) at every key of the box, else AssertionError.
    Causality in both directions is γ's no-signalling (see
    `CausalChannelReport`)."""
    T, dims = _bipartite_joint_matrix(box)
    choi = cc_channel(T)
    _d_a, d_b, _d_ap, d_bp = dims
    for (ia, ib, ja, jb), p in box.probs.items():
        if choi.diag_entry(ja * d_bp + jb, ia * d_b + ib) != p:
            raise AssertionError("channel does not recover the box")
    return CausalChannelReport(choi, dims, box, choi.is_psd(),
                               choi.is_trace_preserving(), True)


@dataclass
class ChannelCollectionReport:
    """A maximally incompatible collection of d_A two-outcome
    measurements on the channel space C_{A,A'}: the polysimplex
    collection composed with the channel retraction."""
    d_a: int
    d_ap: int
    shape: PolySimplex
    collection: MeasurementCollection
    id_value: object
    certificate: object
    section: object


def channel_space_max_incompatibility(d_a, d_ap) -> ChannelCollectionReport:
    """d_A two-outcome measurements on channels A → A', h^i = (m^i_0)∘R,
    with ID = (d_A−1)/d_A: maximal incompatibility, impossible for
    quantum state spaces. The certificate lives on the polysimplex and
    transfers through the retraction/section pair."""
    if d_a < 2 or d_ap < 2:
        raise ValueError("need at least two inputs and two outputs")
    shape = PolySimplex((d_ap - 1,) * d_a)
    space = polysimplex_space(shape.shape)
    cube = PolySimplex((1,) * d_a)
    effects = {}
    for i in range(d_a):
        vals0 = tuple(v[shape.index(i, 0)] for v in space.vertices)
        effects[(i, 0)] = vals0
        effects[(i, 1)] = tuple(R1 - v for v in vals0)
    F = make_collection(space, cube, effects)
    cert = maximal_incompatibility_certificate(F)
    if not cert.maximal:
        raise AssertionError("polysimplex collection failed the maximality test")
    sect = retraction_check(F)
    if not sect.is_retraction:
        raise AssertionError("collection is not a retraction onto the hypercube")
    return ChannelCollectionReport(d_a, d_ap, shape, F,
                                   rat(d_a - 1, d_a), cert, sect)
