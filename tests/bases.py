"""The Pauli ordering of the Gell-Mann basis and the factor swap: references
that the tests check the package's one basis and its right-side paths against."""

import numpy as np

from vnlift import HermitianBasis, gell_mann_basis


def pauli_gell_mann_basis(m: int) -> HermitianBasis:
    """Textbook interleaved ordering, scaled to unit Hilbert-Schmidt norm.

    For m=2 this is (sigma_1, sigma_2, sigma_3)/sqrt(2); for m=3 it is
    (lambda_1, ..., lambda_8)/sqrt(2).  The elements are those of
    gell_mann_basis(m), reordered, with the antisymmetric ones negated to the
    textbook sign i(|l><k| - |k><l|)/sqrt(2).
    """
    canonical = gell_mann_basis(m)
    labels = []
    for l in range(1, m):
        for k in range(l):
            labels += [f"symmetric({k},{l})", f"antisymmetric({k},{l})"]
        labels.append(f"diagonal({l})")
    index = {lab: i for i, lab in enumerate(canonical.labels)}
    stack = canonical.stack()
    elements = tuple(
        -stack[index[lab]] if lab.startswith("antisymmetric") else stack[index[lab]]
        for lab in labels
    )
    return HermitianBasis(elements=elements, labels=tuple(labels))


def swap_subsystems(rho, m: int, n: int) -> np.ndarray:
    """The state rho on m (x) n with its factors swapped, on n (x) m."""
    return np.asarray(rho).reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
