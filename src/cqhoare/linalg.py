"""Dense linear algebra over ordered tensor products of finite systems.

Operators live on a RegisterLayout: an ordered list of (system id, dimension)
pairs whose order fixes the tensor-factor order.  A system id is a pair
(base name, tuple of resolved subscript values); a plain variable has an
empty subscript tuple.
"""

from dataclasses import dataclass
import math

import numpy as np

from .classical import Node

# System id: (base name, resolved subscripts).  Hashable and orderable
# within one declaration, which is all the canonical ordering needs.
SystemId = tuple

DIM_CAP = 2 ** 14


class Tolerances(Node):
    hermitian: float = 1e-10
    psd: float = 1e-9
    trace: float = 1e-9
    unitary: float = 1e-9
    completeness: float = 1e-9
    prune: float = 1e-14
    fuzz: float = 1e-7

    @staticmethod
    def from_dict(d):
        return Tolerances(**{k: float(v) for k, v in d.items() if k in Tolerances._fields})


def system_id(name, subs=()):
    return (name, tuple(subs))


def format_system(sid):
    name, subs = sid
    if not subs:
        return name
    return "%s[%s]" % (name, ",".join(str(s) for s in subs))


class LayoutError(ValueError):
    pass


class DimensionCapError(LayoutError):
    """A well-formed layout whose total dimension exceeds DIM_CAP."""


class RegisterLayout(Node):
    """Ordered collection of systems; the order is the kron order."""

    systems: tuple  # tuple of (SystemId, dim)

    def __post_init__(self):
        seen = set()
        for sid, dim in self.systems:
            if sid in seen:
                raise LayoutError("duplicate system %s" % format_system(sid))
            if dim < 1:
                raise LayoutError("dimension must be positive")
            seen.add(sid)
        if self.dim > DIM_CAP:
            raise DimensionCapError(
                "total dimension %d exceeds cap %d" % (self.dim, DIM_CAP)
            )

    @property
    def dim(self):
        return math.prod(k for _, k in self.systems)

    @property
    def ids(self):
        return tuple(sid for sid, _ in self.systems)

    def dims(self):
        return tuple(k for _, k in self.systems)

    def index(self, sid):
        for i, (s, _) in enumerate(self.systems):
            if s == sid:
                return i
        raise LayoutError("system %s not in layout" % format_system(sid))

    def dim_of(self, sid):
        return self.systems[self.index(sid)][1]

    def __contains__(self, sid):
        return any(s == sid for s, _ in self.systems)


def union_layout(a, b, order_key=None):
    """Merge two layouts; overlapping systems must agree on dimension.

    The result is sorted by order_key when given, otherwise systems of `a`
    keep their order and new systems of `b` are appended.
    """
    pairs = dict(a.systems)
    for sid, d in b.systems:
        if sid in pairs and pairs[sid] != d:
            raise LayoutError("dimension mismatch for %s" % format_system(sid))
        pairs.setdefault(sid, d)
    items = list(pairs.items())
    if order_key is not None:
        items.sort(key=lambda p: order_key(p[0]))
    return RegisterLayout(tuple(items))


def permute_vector(vec, dims_src, perm):
    """Permute the tensor factors of a vector, or of each vector of a stack
    (the last axis), from dimensions `dims_src` into the order `perm`."""
    if not dims_src:
        return vec
    lead = vec.shape[:-1]
    b = len(lead)
    t = vec.reshape(lead + tuple(dims_src))
    return t.transpose(list(range(b)) + [b + p for p in perm]).reshape(lead + (-1,))


def _target_axes(targets, layout):
    axes = [layout.index(t) for t in targets]
    if len(set(axes)) != len(axes):
        raise LayoutError("repeated target system")
    return axes


def apply_left(op, a, targets, layout):
    """op @ a, with `op` acting on the `targets` factors (in that order) of
    the row index of `a`: a vector or a matrix with layout.dim rows, or a
    stack of such matrices with shape (B, layout.dim, m).  `op` may be a
    stack of B operators, one per member; a single `a` is then shared.

    The target axes are moved to the front for one matmul and moved back,
    so no operator on the whole layout is ever built.  A stack is one
    stacked matmul, which gives each member the same product, of the same
    shape, that it gets alone.
    """
    axes = _target_axes(targets, layout)
    dims = layout.dims()
    tdim = math.prod(dims[i] for i in axes)
    if op.shape[-2:] != (tdim, tdim):
        raise LayoutError(
            "operator shape %s does not match target dimension %d"
            % (op.shape, tdim)
        )
    lead = a.shape[:1] if a.ndim == 3 else ()
    b, n = len(lead), len(dims)
    perm = list(range(b)) + [b + i for i in axes] + \
        [b + i for i in range(n) if i not in axes]
    cols = list(range(b + n, a.ndim - 1 + n))
    t = a.reshape(lead + dims + a.shape[b + 1:]).transpose(perm + cols)
    out = op @ t.reshape(lead + (tdim, -1))
    k = out.ndim - 2 - b  # 1 where a stack of operators meets a single `a`
    out = out.reshape(out.shape[:k] + t.shape)
    back = [perm.index(i) for i in range(b + n)]
    return out.transpose(list(range(k)) + [k + i for i in back + cols]).reshape(
        out.shape[:k] + a.shape)


def conjugate(op, a, targets, layout):
    """E a E^dagger for E = `op` on `targets`, for a matrix or a stack of
    matrices: two kernel calls."""
    half = apply_left(op, a, targets, layout).conj().swapaxes(-1, -2)
    return apply_left(op, half, targets, layout).conj().swapaxes(-1, -2)


def embed(op, targets, layout):
    """Embed `op`, given on `targets` (in that order), into the full layout;
    for a stack of operators, each of them.

    Acts as the identity on every system of the layout not in targets.
    """
    return apply_left(op, np.eye(layout.dim, dtype=complex), targets, layout)


def embed_vector(vec, sources, layout):
    """Reorder/extend a state vector given on `sources` onto `layout`.

    Every system of the layout must appear in sources (no identity padding
    for vectors).
    """
    if set(sources) != set(layout.ids):
        raise LayoutError("vector systems do not match layout")
    dims_src = [layout.dim_of(s) for s in sources]
    perm = [sources.index(s) for s in layout.ids]
    return permute_vector(vec, dims_src, perm)


def is_hermitian(a, eps=1e-10):
    return bool(np.max(np.abs(a - a.conj().T)) <= eps) if a.size else True


def is_psd(a, eps=1e-9):
    """Positive semidefiniteness up to -eps on the smallest eigenvalue; for
    a stack of matrices (S, D, D), the array of the S verdicts.  Only the
    members that are Hermitian get an eigendecomposition."""
    adj = a.conj().swapaxes(-1, -2)
    ok = np.abs(a - adj).max(axis=(-2, -1), initial=0.0) <= max(eps, 1e-8)
    if ok.all():
        ok = np.linalg.eigvalsh((a + adj) / 2).min(axis=-1, initial=np.inf) >= -eps
    elif ok.any():
        w = np.linalg.eigvalsh((a + adj)[ok] / 2)
        ok[ok] = w.min(axis=-1, initial=np.inf) >= -eps
    return bool(ok) if a.ndim == 2 else ok


def min_eig_difference(va, vb):
    """Smallest eigenvalue of vb vb^dagger - va va^dagger, for factors with
    the same D rows, without forming either D x D product; for stacks of
    factors (S, D, r), the array of the S values.

    With [va vb] = Q R (Q orthonormal), the difference is Q C Q^dagger for
    C = Rb Rb^dagger - Ra Ra^dagger, where Ra and Rb are the columns of R
    belonging to va and vb: it is zero off the span of Q, so its spectrum
    is C's, plus zeros when Q has fewer than D columns."""
    r = np.linalg.qr(np.concatenate([va, vb], axis=-1), mode="r")
    ra, rb = r[..., :va.shape[-1]], r[..., va.shape[-1]:]
    c = rb @ rb.conj().swapaxes(-1, -2) - ra @ ra.conj().swapaxes(-1, -2)
    lo = np.linalg.eigvalsh(c).min(axis=-1)
    if r.shape[-2] < va.shape[-2]:
        lo = np.minimum(lo, 0.0)
    return float(lo) if va.ndim == 2 else lo


def is_unitary(u, eps=1e-9):
    d = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(d))) <= eps)


def is_effect(k, eps=1e-9):
    """0 <= K <= I up to eps."""
    d = k.shape[0]
    return is_psd(k, eps) and is_psd(np.eye(d) - k, eps)


def trace_product(a, rho):
    """Re tr(a @ rho), the imaginary part being numerical noise; for a
    stack of matrices rho, the array of member values."""
    val = np.trace(a @ rho, axis1=-2, axis2=-1).real
    return float(val) if rho.ndim == 2 else val


@dataclass
class DensityOperator:
    """Partial density operator: PSD with trace <= 1 (up to tolerance).

    `mat` is one D x D matrix or a stack of B of them, shape (B, D, D);
    `apply` and `trace` act on every member of a stack, and `validate`
    takes a single matrix."""

    layout: RegisterLayout
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.layout.dim
        if self.mat.ndim not in (2, 3) or self.mat.shape[-2:] != (d, d):
            raise LayoutError(
                "matrix shape %s does not match layout dimension %d"
                % (self.mat.shape, d)
            )

    def validate(self, tol=Tolerances()):
        if not is_hermitian(self.mat, tol.hermitian):
            raise ValueError("density matrix is not hermitian")
        # is_psd would re-check hermiticity at its own, tighter tolerance
        if not is_psd((self.mat + self.mat.conj().T) / 2, tol.psd):
            raise ValueError("density matrix is not positive semidefinite")
        if self.trace() > 1 + tol.trace:
            raise ValueError("density matrix trace exceeds 1")
        return self

    def trace(self):
        """tr(rho); for a stack, the array of member traces."""
        t = np.trace(self.mat, axis1=-2, axis2=-1).real
        return float(t) if self.mat.ndim == 2 else t

    def apply(self, op, targets):
        """Conjugate by an operator on the given targets: E rho E^dagger."""
        return DensityOperator(
            self.layout, conjugate(op, self.mat, targets, self.layout))

    def copy(self):
        return DensityOperator(self.layout, self.mat.copy())


def pure_state(vec, layout):
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return DensityOperator(layout, np.outer(v, v.conj()))


def basis_vector(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v
