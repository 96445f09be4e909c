"""Covariance-matrix primitives: constructors, beamsplitter, spectra."""
import re

import numpy as np
import pytest

from thermalcast import (CovarianceMatrix, InvalidArgumentError, NumericFailureError, Partition,
                         UnphysicalStateError, apply_beamsplitter, conditional_mutual_information,
                         gaussian_discord, homodyne_condition, make_epr, make_thermal, make_vacuum,
                         mutual_information, reduce, shannon_entropy, symplectic_eigenvalues, tensor,
                         validate_physicality, von_neumann_entropy)
from thermalcast.gaussian import MAX_VARIANCE, _omega


def test_covariance_requires_square_even_dimension():
    with pytest.raises(InvalidArgumentError):
        CovarianceMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        CovarianceMatrix(np.eye(3))
    with pytest.raises(InvalidArgumentError):
        CovarianceMatrix(np.zeros((0, 0)))


def test_covariance_rejects_asymmetry_and_symmetrizes_noise():
    bad = np.eye(2)
    bad[0, 1] = 0.5
    with pytest.raises(InvalidArgumentError):
        CovarianceMatrix(bad)
    # asymmetry at rounding level is absorbed, result exactly symmetric
    noisy = np.eye(2)
    noisy[0, 1] = 1e-14
    cm = CovarianceMatrix(noisy)
    assert cm.data[0, 1] == cm.data[1, 0]


def test_covariance_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.eye(2)
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(NumericFailureError, match="non-finite"):
            CovarianceMatrix(entries)


def test_covariance_symmetrizes_entries_near_the_float_limit():
    # (arr + arr.T) / 2 overflowed to inf, with a RuntimeWarning, from about 9e307
    assert CovarianceMatrix(np.diag([1e308, 1e308])).data.tolist() == [[1e308, 0.0], [0.0, 1e308]]


def test_beamsplitter_mixes_entries_near_the_float_limit():
    # (out + out.T) / 2 overflowed on this finite mix and refused it as non-finite
    mixed = apply_beamsplitter(CovarianceMatrix(np.diag([1e308] * 4)), 0, 1, 0.5)
    np.testing.assert_allclose(mixed.data / 1e308, np.eye(4), rtol=1e-15, atol=0.0)
    # true entries of 2e308 are past the float range: refused, with no RuntimeWarning on the way
    with pytest.raises(NumericFailureError, match="^covariance matrix has non-finite entries$"):
        apply_beamsplitter(CovarianceMatrix(np.kron(np.full((2, 2), 1e308), np.eye(2))), 0, 1, 0.5)


def test_covariance_rejects_asymmetry_near_the_float_limit():
    # arr - arr.T overflowed to inf here, with a RuntimeWarning that -W error raised in place of the refusal
    with pytest.raises(InvalidArgumentError, match="not symmetric"):
        CovarianceMatrix(np.array([[1.0, 1e308], [-1e308, 1.0]]))


def test_covariance_rejects_complex_and_ragged_entries():
    # a complex entry used to be cast away with only a ComplexWarning
    for complex_entries in ([[2.0 + 1j, 0.0], [0.0, 2.0]], np.diag([2.0 + 1j, 2.0])):
        with pytest.raises(InvalidArgumentError, match="real array"):
            CovarianceMatrix(complex_entries)
    with pytest.raises(InvalidArgumentError, match="real array"):
        CovarianceMatrix([[1.0, 0.0], [0.0]])


def test_covariance_data_is_readonly():
    cm = make_vacuum(2)
    with pytest.raises(ValueError):
        cm.data[0, 0] = 3.0


def test_symplectic_form_structure():
    omega = _omega(2)
    assert np.array_equal(omega, -omega.T)
    assert np.array_equal(omega @ omega, -np.eye(4))
    assert omega[0, 1] == 1.0 and omega[2, 3] == 1.0


def test_beamsplitter_spec_validation():
    state = make_vacuum(2)
    with pytest.raises(InvalidArgumentError):
        apply_beamsplitter(state, 1, 1, 0.5)
    with pytest.raises(InvalidArgumentError):
        apply_beamsplitter(state, -1, 0, 0.5)
    with pytest.raises(InvalidArgumentError):
        apply_beamsplitter(state, 0, 1, 1.2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vacuum_is_identity(n):
    assert np.array_equal(make_vacuum(n).data, np.eye(2 * n))


def test_mode_indices_and_counts_must_be_integers():
    # a float index used to end in a bare IndexError, and True read as mode 1
    state = make_vacuum(2)
    for keep in ([0.5], [True], [np.float64(1.0)]):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"mode index {keep[0]!r} is not an integer")):
            reduce(state, keep)
    with pytest.raises(InvalidArgumentError, match="mode index 0.5 is not an integer"):
        apply_beamsplitter(state, 0.5, 1, 0.3)
    with pytest.raises(InvalidArgumentError, match="n_modes must be an integer >= 1, got 1.5"):
        make_vacuum(1.5)
    assert np.array_equal(reduce(state, [np.int64(1)]).data, reduce(state, [1]).data)


@pytest.mark.parametrize("keep", [0, None, []])
def test_reduce_names_a_keep_that_holds_no_mode(keep):
    # a bare index or None used to end in a TypeError from list()
    with pytest.raises(InvalidArgumentError, match=re.escape(f"keep must be an iterable of at least one mode index, "
                                                             f"got {keep!r}")):
        reduce(make_vacuum(2), keep)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(InvalidArgumentError):
        make_vacuum(0)


def test_thermal_state():
    assert np.array_equal(make_thermal(1.0).data, np.eye(2))
    assert np.array_equal(make_thermal(2.0).data, np.diag([2.0, 2.0]))
    with pytest.raises(UnphysicalStateError):
        make_thermal(0.5)


def test_constructors_reject_variances_past_the_ceiling():
    above = float(np.nextafter(MAX_VARIANCE, np.inf))
    for make, bad in ((make_epr, float("inf")), (make_epr, 1e200), (make_epr, above),
                      (make_thermal, float("nan")), (make_thermal, above)):
        with pytest.raises(InvalidArgumentError, match=r"variance must be <= 1e\+06 SNU"):
            make(bad)
    assert make_epr(MAX_VARIANCE).data[0, 0] == MAX_VARIANCE
    assert make_thermal(MAX_VARIANCE).data[0, 0] == MAX_VARIANCE


def test_real_inputs_must_be_real_numbers():
    # a string, None, a complex or an array is refused by name, and True is no number
    epr, vacuum = make_epr(2.0), make_vacuum(2)
    cases = [(make_thermal, bad) for bad in ("2", 1j, True, None, np.array([2.0, 3.0]))]
    cases += [(make_epr, bad) for bad in (None, "2", True, np.array([2.0, 3.0]))]
    cases += [(lambda t: apply_beamsplitter(vacuum, 0, 1, t), bad) for bad in ("0.5", True, None, 1j)]
    cases += [(lambda angle: homodyne_condition(epr, 0, angle), bad) for bad in (None, True, "0", 1j)]
    for call, bad in cases:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"got {bad!r}")):
            call(bad)
    # numpy scalars are real numbers, computed on as floats
    assert make_thermal(np.int64(2)).data[0, 0] == 2.0
    assert np.array_equal(apply_beamsplitter(vacuum, 0, 1, np.float32(0.5)).data,
                          apply_beamsplitter(vacuum, 0, 1, 0.5).data)
    assert np.array_equal(homodyne_condition(epr, 0, np.float32(0.5)).data,
                          homodyne_condition(epr, 0, float(np.float32(0.5))).data)


def test_epr_blocks():
    epr = make_epr(2.0).data
    z = np.sqrt(3.0)
    assert np.array_equal(epr[:2, :2], 2.0 * np.eye(2))
    assert np.array_equal(epr[2:, 2:], 2.0 * np.eye(2))
    assert np.array_equal(epr[:2, 2:], np.diag([z, -z]))
    assert np.array_equal(make_epr(1.0).data, np.eye(4))
    with pytest.raises(UnphysicalStateError):
        make_epr(0.99)


@pytest.mark.parametrize("nu", [1.0, 2.0, 10.0, 1040.0])
def test_epr_reductions_are_exactly_thermal(nu):
    epr = make_epr(nu)
    want = make_thermal(nu).data
    assert np.array_equal(reduce(epr, [0]).data, want)
    assert np.array_equal(reduce(epr, [1]).data, want)


def test_epr_is_pure():
    eigs = symplectic_eigenvalues(make_epr(5.0))
    assert np.allclose(eigs, [1.0, 1.0], atol=1e-9)


def test_tensor_direct_sum():
    assert np.array_equal(tensor(make_vacuum(1), make_vacuum(1)).data, np.eye(4))
    combined = tensor(make_epr(2.0), make_vacuum(1))
    assert combined.n_modes == 3
    assert np.array_equal(combined.data[:4, :4], make_epr(2.0).data)
    assert np.array_equal(combined.data[4:, 4:], np.eye(2))
    det_a = np.linalg.det(make_thermal(3.0).data)
    det_b = np.linalg.det(make_epr(2.0).data)
    det_ab = np.linalg.det(tensor(make_thermal(3.0), make_epr(2.0)).data)
    assert det_ab == pytest.approx(det_a * det_b, rel=1e-12)


def test_beamsplitter_transmitted_variance():
    # thermal(V) against vacuum: transmitted arm carries eta*V + (1 - eta)
    state = tensor(make_thermal(4.0), make_vacuum(1))
    eta = 0.3
    out = apply_beamsplitter(state, 0, 1, eta)
    assert out.data[0, 0] == pytest.approx(eta * 4.0 + (1 - eta), rel=1e-14)
    assert out.data[2, 2] == pytest.approx((1 - eta) * 4.0 + eta, rel=1e-14)


def test_beamsplitter_transparent_and_range_check():
    state = tensor(make_epr(2.0), make_vacuum(1))
    out = apply_beamsplitter(state, 1, 2, 1.0)
    assert np.array_equal(out.data, state.data)
    with pytest.raises(InvalidArgumentError):
        apply_beamsplitter(state, 1, 3, 0.5)


def test_beamsplitter_is_symplectic():
    # S Omega S^T = Omega, hence det preserved
    state = tensor(make_epr(3.0), make_thermal(7.0))
    out = apply_beamsplitter(state, 0, 2, 0.37)
    det_in = np.linalg.det(state.data)
    det_out = np.linalg.det(out.data)
    assert abs(det_out - det_in) <= 1e-9 * det_in
    report = validate_physicality(out)
    assert report.ok


def test_beamsplitter_eta_swap_is_a_permutation():
    state = tensor(make_epr(2.0), make_vacuum(1))
    eta = 0.3
    direct = apply_beamsplitter(state, 1, 2, eta)
    swapped = apply_beamsplitter(state, 2, 1, 1.0 - eta)
    # the swapped splitter puts the transmitted arm in the other slot and
    # builds the reflected arm with both quadratures negated; a joint
    # (x, p) sign flip only shows up in that mode's cross blocks
    permuted = reduce(swapped, [0, 2, 1]).data
    assert np.allclose(permuted[:4, :4], direct.data[:4, :4], atol=1e-12)
    assert np.allclose(permuted[4:, 4:], direct.data[4:, 4:], atol=1e-12)
    assert np.allclose(permuted[4:, :4], -direct.data[4:, :4], atol=1e-12)


def test_reduce_modes():
    assert np.array_equal(reduce(make_vacuum(3), [0, 2]).data, np.eye(4))
    state = tensor(make_thermal(2.0), make_thermal(3.0))
    same = reduce(state, [0, 1])
    assert np.array_equal(same.data, state.data)
    flipped = reduce(state, [1, 0])
    assert flipped.data[0, 0] == 3.0 and flipped.data[2, 2] == 2.0
    for bad in ([], [0, 0], [3]):
        with pytest.raises(InvalidArgumentError):
            reduce(state, bad)


def test_reduce_commutes_with_beamsplitter_on_disjoint_modes():
    state = tensor(tensor(make_epr(2.0), make_thermal(5.0)), make_vacuum(1))
    bs = (0, 1, 0.42)
    mixed_then_cut = reduce(apply_beamsplitter(state, *bs), [0, 1, 3])
    cut_then_mixed = apply_beamsplitter(reduce(state, [0, 1, 3]), *bs)
    assert np.allclose(mixed_then_cut.data, cut_then_mixed.data, atol=1e-14)


def test_symplectic_eigenvalues_basics():
    assert symplectic_eigenvalues(make_thermal(3.7)) == pytest.approx([3.7])
    state = tensor(make_thermal(5.0), make_thermal(2.0))
    eigs = symplectic_eigenvalues(state)
    assert list(eigs) == pytest.approx([5.0, 2.0])  # descending


def test_symplectic_eigenvalue_product_matches_determinant():
    state = apply_beamsplitter(tensor(make_epr(2.0), make_vacuum(1)), 1, 2, 0.5)
    eigs = symplectic_eigenvalues(state)
    assert np.prod(eigs) ** 2 == pytest.approx(np.linalg.det(state.data), rel=1e-9)


def test_pure_chain_eigenvalues_are_clamped_to_one():
    state = tensor(make_epr(2.0), make_vacuum(2))
    state = apply_beamsplitter(state, 1, 2, 0.3)
    state = apply_beamsplitter(state, 2, 3, 0.8)
    eigs = symplectic_eigenvalues(state)
    assert np.all(eigs >= 1.0)
    assert np.allclose(eigs, 1.0, atol=1e-9)


def test_validate_physicality_diagnostics():
    assert validate_physicality(make_vacuum(3)).ok
    report = validate_physicality(CovarianceMatrix(np.diag([0.5, 0.5])))
    assert not report.ok
    assert report.min_symplectic == pytest.approx(0.5)
    assert any("shot noise" in issue for issue in report.issues)
    indefinite = validate_physicality(CovarianceMatrix(np.diag([1.0, -1.0])))
    assert not indefinite.ok
    assert any("positive definite" in issue for issue in indefinite.issues)


def test_validate_physicality_has_no_shot_noise_slack():
    # 1e-12 below shot noise is far past rounding for a unit-scale matrix;
    # the symplectic spectrum alone would clamp it to exactly 1
    report = validate_physicality(CovarianceMatrix((1.0 - 1e-12) * np.eye(2)))
    assert not report.ok
    assert any("shot noise" in issue for issue in report.issues)
    # a bright mode beside a dim one: brightness alone must not widen the dim mode's tolerance
    report = validate_physicality(tensor(make_thermal(1e6), CovarianceMatrix((1.0 - 1e-6) * np.eye(2))))
    assert not report.ok
    assert any("shot noise" in issue for issue in report.issues)
    # nor a bright pair's wide tolerance, which belongs to its own modes alone
    report = validate_physicality(tensor(make_epr(1e6), CovarianceMatrix(0.99 * np.eye(2))))
    assert not report.ok and report.min_symplectic == pytest.approx(0.99)
    assert validate_physicality(make_epr(1e6)).ok


def test_single_mode_negative_determinant_is_numeric_failure():
    skewed = CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NumericFailureError):
        symplectic_eigenvalues(skewed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrices_that_are_not_positive_definite_have_no_spectrum(n):
    # -3 I has det > 0 and |eigenvalues| of Omega Gamma equal to 3
    with pytest.raises(NumericFailureError, match="not positive definite"):
        symplectic_eigenvalues(CovarianceMatrix(-3.0 * np.eye(2 * n)))


def test_a_factoring_matrix_whose_determinant_rounds_negative_reads_zero():
    # singular up to rounding: the Cholesky factor exists, det rounds to -2.2e-16,
    # and the spectrum is the factor's L_00 L_11 (about 1.69e-8), never negative
    gamma = np.array([[1.2895089397520012, -1.2866799860177112],
                      [-1.2866799860177112, 1.283857238505793]])
    factor = np.linalg.cholesky(gamma)
    assert gamma[0, 0] * gamma[1, 1] - gamma[0, 1] ** 2 < 0.0
    nu = factor[0, 0] * factor[1, 1]
    assert list(symplectic_eigenvalues(CovarianceMatrix(gamma))) == [nu]
    # validate_physicality takes its verdict from the same factor
    report = validate_physicality(CovarianceMatrix(gamma))
    assert not report.ok and report.min_symplectic == nu
    assert report.issues[0].startswith(f"symplectic eigenvalue below shot noise: {nu:.15g} ")


def test_a_tolerance_past_one_snaps_nothing():
    # kappa ~ 1e310 is past what rounding can bound; nu = 1e5 must still not read as 1,
    # and a spectrum near the float range must not overflow (warnings are errors here)
    assert list(symplectic_eigenvalues(CovarianceMatrix(np.diag([1e160, 1e-150])))) == [pytest.approx(1e5)]
    assert symplectic_eigenvalues(CovarianceMatrix(np.diag([1e200, 1e200, 1e-200, 1e-200])))[0] == 1e200
    assert not validate_physicality(CovarianceMatrix(1e-300 * np.eye(2))).ok


def test_spectrum_consumers_never_call_eigvals(monkeypatch):
    # the spectrum comes from the Cholesky factor and one Hermitian solve, never eigvals(Omega Gamma)
    state = apply_beamsplitter(tensor(make_epr(3.0), make_thermal(2.0)), 1, 2, 0.4)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert symplectic_eigenvalues(state)[-1] >= 1.0
    assert validate_physicality(state).ok
    assert von_neumann_entropy(state) > 0.0
    assert gaussian_discord(state, 0, 1).value > 0.0


def test_singular_matrices_are_reported_not_raised():
    # rank-deficient: rounding leaves the smallest eigenvalue a hair either
    # side of 0, and the Cholesky factorization can fail even above it.
    # Bright ones get a rounding tolerance past 1, which must not snap their nu ~ 0 to 1.
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e6):
        for _ in range(50):
            for rows, rank in ((4, 3), (6, 5)):
                v = rng.standard_normal((rows, rank))
                assert not validate_physicality(CovarianceMatrix(scale * v @ v.T)).ok, (scale, rows)


BARE = np.eye(4)


@pytest.mark.parametrize("call", [
    lambda: symplectic_eigenvalues(BARE),
    lambda: validate_physicality(BARE),
    lambda: von_neumann_entropy(BARE),
    lambda: shannon_entropy(BARE),
    lambda: reduce(BARE, [0]),
    lambda: tensor(BARE, make_vacuum(1)),
    lambda: tensor(make_vacuum(1), BARE),
    lambda: apply_beamsplitter(BARE, 0, 1, 0.5),
    lambda: mutual_information(BARE, Partition((0,), (1,))),
    lambda: conditional_mutual_information(np.eye(6), Partition((0,), (1,), (2,))),
    lambda: gaussian_discord(BARE, 0, 1),
    lambda: homodyne_condition(BARE, 0, 0.0),
], ids=["symplectic_eigenvalues", "validate_physicality", "von_neumann_entropy",
        "shannon_entropy", "reduce", "tensor_first", "tensor_second", "apply_beamsplitter",
        "mutual_information", "conditional_mutual_information", "gaussian_discord",
        "homodyne_condition"])
def test_one_state_entry_points_refuse_a_bare_matrix(call):
    # ndarray.data is a memoryview: these used to end in "memoryview: invalid slice key"
    with pytest.raises(InvalidArgumentError, match="CovarianceMatrix, got ndarray"):
        call()
