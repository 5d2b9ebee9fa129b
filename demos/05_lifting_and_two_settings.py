"""Two rereadings of the family: CH-type constraints and the two-setting set.

Pinning every observer's reference outcome to 1 turns setting index 0 into
a bookkeeping slot: the tensor components become the normalization constant,
single-observer averages, and two-setting correlations.  Re-bounding each
facet over these lifted vertices yields CH-type inequalities on marginals
plus correlations.  Separately, restricting to sign functions of the first
variables alone recovers the complete two-setting family, including the
three-observer parity facet maximally violated by the GHZ state.
"""

import numpy as np

from bellfacets import (
    SignFunction,
    inequality_from_sign_function,
    is_factorable,
    lift,
    seesaw_maximize,
    sign_function_of,
    two_setting_reduction,
)


def main():
    chsh = inequality_from_sign_function(SignFunction.from_text("N=2;table=a0a0"))
    print("Lifting CHSH to a CH-type constraint:")
    # the constant, the marginals and the correlations are entries of the tensor
    flat = chsh.coeffs.ravel().tolist()
    print(f"  constant term: {flat[0]}")
    # observer i's setting-n marginal sits at flat index n * 3^(N-1-i)
    marginals = tuple(tuple(flat[n * 3 ** (1 - i)] for n in (1, 2)) for i in range(2))
    print(f"  marginal coefficients per observer: {marginals}")
    # the correlations are the entries with two or more active observers
    block = tuple((tuple(int(x) for x in pos), int(chsh.coeffs[tuple(pos)]))
                  for pos in np.argwhere(chsh.coeffs) if np.count_nonzero(pos) >= 2)
    print(f"  correlation block: {block}")
    print(f"  sharp bounds over 16 lifted vertices: {lift(chsh)}")
    print("  i.e. -2 <= 1 + <B_1> + <A_1> - E_11 <= 2 in units of the coefficient 8")

    low, high = lift(inequality_from_sign_function(SignFunction(2, 0)))
    print(f"\nLifting |E_00| <= 1 collapses to the constant: equal bounds ({low}, {high})")

    print("\nTwo-setting reduction (functions of first variables only):")
    for parties in (2, 3):
        reduced = two_setting_reduction(parties)
        trivial_count = sum(1 for i in reduced if is_factorable(sign_function_of(i)))
        print(f"  N={parties}: {len(reduced)} = 2^(2^{parties}) functions, "
              f"{trivial_count} trivial")

    print("\nLocating the three-observer parity (GHZ) facet in the reduced set:")
    target = np.zeros((3, 3, 3), dtype=np.int64)
    target[0, 0, 0] = -32
    target[1, 1, 0] = target[1, 0, 1] = target[0, 1, 1] = 32
    mermin = next(i for i in two_setting_reduction(3) if (i.coeffs == target).all())
    print(f"  generator: {sign_function_of(mermin).to_text()}")
    report = seesaw_maximize(mermin, restarts=16, seed=7)
    print(f"  classical bound 64, quantum maximum {report.quantum_max:.6f} "
          f"-> ratio {report.violation_ratio:.6f}")


if __name__ == "__main__":
    main()
