import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from cqhoare import linalg as la


def layout(*names):
    return la.RegisterLayout(tuple((la.system_id(n), 2) for n in names))


H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                 [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def test_layout_basics():
    lay = layout("a", "b", "c")
    assert lay.dim == 8
    assert la.system_id("b") in lay
    assert lay.index(la.system_id("c")) == 2
    with pytest.raises(la.LayoutError):
        la.RegisterLayout(((la.system_id("a"), 2), (la.system_id("a"), 2)))


def test_embed_on_first_factor_is_kron_with_identity():
    lay = layout("a", "b")
    got = la.embed(X, [la.system_id("a")], lay)
    assert np.allclose(got, np.kron(X, np.eye(2)))
    got = la.embed(X, [la.system_id("b")], lay)
    assert np.allclose(got, np.kron(np.eye(2), X))


def test_embed_permuted_targets():
    lay = layout("a", "b")
    # CNOT with control b, target a: flips a when b is 1
    got = la.embed(CNOT, [la.system_id("b"), la.system_id("a")], lay)
    v = np.zeros(4)
    v[0b01] = 1.0  # a=0, b=1
    out = got @ v
    assert abs(out[0b11] - 1.0) < 1e-12


def test_embed_missing_target():
    lay = layout("a")
    with pytest.raises(la.LayoutError):
        la.embed(X, [la.system_id("zzz")], lay)


def test_permute_vector_roundtrip():
    lay = layout("a", "b", "c")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ids = list(lay.ids)
    w = la.embed_vector(v, ids[::-1], lay)
    back = la.embed_vector(w, ids, la.RegisterLayout(
        tuple((s, 2) for s in ids[::-1])))
    assert np.allclose(back, v)


def test_predicates_on_matrices():
    assert la.is_hermitian(H)
    assert la.is_unitary(H)
    assert la.is_psd(np.eye(2))
    assert not la.is_psd(np.diag([1.0, -0.1]))
    assert la.is_effect(np.diag([0.5, 1.0]))
    assert not la.is_effect(np.diag([0.5, 1.5]))


def test_density_operator_validation():
    lay = layout("a")
    la.DensityOperator(lay, np.diag([0.5, 0.5])).validate()
    with pytest.raises(ValueError):
        la.DensityOperator(lay, np.diag([0.9, 0.9])).validate()  # trace > 1
    with pytest.raises(ValueError):
        la.DensityOperator(
            lay, np.array([[0, 1], [0, 0]], dtype=complex)).validate()
    with pytest.raises(la.LayoutError):
        la.DensityOperator(lay, np.eye(3))


def test_density_operator_validation_takes_the_hermitian_tolerance():
    lay = layout("a")
    rho = la.DensityOperator(lay, np.array([[0.5, 0.1 + 1e-7j], [0.1, 0.5]]))
    with pytest.raises(ValueError, match="not hermitian"):
        rho.validate()
    rho.validate(la.Tolerances(hermitian=1e-6))


def test_apply_and_trace_product():
    lay = layout("a")
    rho = la.pure_state(la.basis_vector(0, 2), lay)
    out = rho.apply(H, [la.system_id("a")])
    assert abs(la.trace_product(np.diag([1.0, 0.0]), out.mat) - 0.5) < 1e-12
    assert abs(out.trace() - 1.0) < 1e-12


def test_union_layout_is_ordered_superset():
    a = layout("a", "c")
    b = layout("b", "c")
    u = la.union_layout(a, b, lambda s: s)
    assert [s[0] for s in u.ids] == ["a", "b", "c"]


def _dense_reference(op, targets, lay):
    """op on `targets`, the identity elsewhere, as an explicit matrix:
    kron(op, I) in the order targets + rest, then permuted to layout order."""
    ids = list(lay.ids)
    order = list(targets) + [s for s in ids if s not in targets]
    dims = [lay.dim_of(s) for s in order]
    rest = lay.dim // op.shape[0]
    big = np.kron(op, np.eye(rest)).reshape(dims + dims)
    perm = [order.index(s) for s in ids]
    return big.transpose(perm + [len(ids) + p for p in perm]).reshape(
        lay.dim, lay.dim)


def test_apply_left_matches_dense_reference():
    rng = np.random.default_rng(11)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(60):
        n = int(rng.integers(1, 6))
        lay = la.RegisterLayout(tuple(
            (la.system_id("s%d" % i), int(rng.choice([2, 3]))) for i in range(n)))
        ids = list(lay.ids)
        k = int(rng.integers(1, n + 1))
        targets = [ids[i] for i in rng.permutation(n)[:k]]
        tdim = int(np.prod([lay.dim_of(s) for s in targets]))
        op = rand(tdim, tdim)
        ref = _dense_reference(op, targets, lay)
        d = lay.dim
        v, m, rho = rand(d), rand(d, 3), rand(d, d)
        assert np.max(np.abs(la.apply_left(op, v, targets, lay) - ref @ v)) < 1e-12
        assert np.max(np.abs(la.apply_left(op, m, targets, lay) - ref @ m)) < 1e-12
        got = la.DensityOperator(lay, rho).apply(op, targets).mat
        assert np.max(np.abs(got - ref @ rho @ ref.conj().T)) < 1e-12


def test_stacked_kernel_equals_member_by_member():
    rng = np.random.default_rng(8)
    lay = la.RegisterLayout(((la.system_id("a"), 2), (la.system_id("b"), 3),
                             (la.system_id("c"), 2)))
    b, c = la.system_id("b"), la.system_id("c")
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    stack = rng.standard_normal((5, 12, 12)) + 1j * rng.standard_normal((5, 12, 12))
    wide = rng.standard_normal((5, 12, 7)) + 1j * rng.standard_normal((5, 12, 7))
    for targets in ([c, b], [b, c]):
        for a in (stack, wide):
            out = la.apply_left(g, a, targets, lay)
            assert out.shape == a.shape
            for i in range(len(a)):
                assert np.array_equal(out[i], la.apply_left(g, a[i], targets, lay))
        out = la.conjugate(g, stack, targets, lay)
        for i in range(len(stack)):
            assert np.array_equal(out[i], la.conjugate(g, stack[i], targets, lay))
        ops = np.stack([g, g.T, g.conj()])  # a stack of operators, one matrix
        for a in (stack[0], wide[0]):
            out = la.apply_left(ops, a, targets, lay)
            assert out.shape == (3,) + a.shape
            for i in range(3):
                assert np.array_equal(out[i], la.apply_left(ops[i], a, targets, lay))
        out = la.embed(ops, targets, lay)
        for i in range(3):
            assert np.array_equal(out[i], la.embed(ops[i], targets, lay))
    rho = la.DensityOperator(lay, stack)
    assert np.array_equal(rho.trace(), [la.DensityOperator(lay, m).trace()
                                        for m in stack])
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert np.array_equal(la.trace_product(a, stack),
                          [la.trace_product(a, m) for m in stack])
    with pytest.raises(la.LayoutError):
        la.DensityOperator(lay, stack[:, :, :6])


def test_stacked_decisions_equal_member_by_member():
    rng = np.random.default_rng(9)
    va = rng.standard_normal((6, 5, 2)) + 1j * rng.standard_normal((6, 5, 2))
    vb = rng.standard_normal((6, 5, 1)) + 1j * rng.standard_normal((6, 5, 1))
    lows = la.min_eig_difference(va, vb)
    assert lows.shape == (6,)
    assert list(lows) == [la.min_eig_difference(a, b) for a, b in zip(va, vb)]
    wide = rng.standard_normal((3, 2, 3))  # more columns than rows
    assert list(la.min_eig_difference(wide, wide)) == [
        la.min_eig_difference(w, w) for w in wide]
    mats = np.array([np.eye(3), np.diag([1.0, 0, -0.1]), np.diag([1.0, 0, -1e-12]),
                     np.triu(np.ones((3, 3))), np.full((3, 3), np.nan)])
    got = la.is_psd(mats, 1e-9)
    assert got.dtype == bool
    assert list(got) == [la.is_psd(m, 1e-9) for m in mats] == [
        True, False, True, False, False]


def _factor(rng, d, r):
    return rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))


@settings(max_examples=300, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), d=hst.integers(2, 16),
       ra=hst.integers(1, 2), rb=hst.integers(1, 2),
       near=hst.sampled_from([None, 1e-3, 1e-6, 1e-9, 1e-12]),
       tol=hst.sampled_from([1e-9, 1e-6, 1e-3]))
def test_factored_difference_matches_dense(seed, d, ra, rb, near, tol):
    """lambda_min(Vb Vb^dagger - Va Va^dagger) from the factors equals the
    dense one to 1e-12, and so does the psd decision.  `near` draws a
    rank-one pair b = s (a + near w), with s within `near` of 1."""
    rng = np.random.default_rng(seed)
    va = _factor(rng, d, ra) / np.sqrt(d)
    if near is None:
        vb = _factor(rng, d, rb) / np.sqrt(d)
    else:
        va = va[:, :1] / np.linalg.norm(va[:, :1])
        w = _factor(rng, d, 1) / np.sqrt(d)
        s = 1 + near * rng.uniform(-1, 1)
        vb = s * (va + near * w)
    diff = vb @ vb.conj().T - va @ va.conj().T
    dense = float(np.linalg.eigvalsh(diff).min())
    factored = la.min_eig_difference(va, vb)
    assert abs(factored - dense) <= 1e-12
    if abs(dense + tol) > 1e-12:  # off the threshold, where rounding decides
        assert (factored >= -tol) == la.is_psd(diff, tol)
