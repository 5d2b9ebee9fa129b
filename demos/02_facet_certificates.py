"""Why every generated inequality is a facet, certified exactly.

Each deterministic strategy lands on a vertex x * (1,u,w) (x) (1,u',w') of
the correlation polytope.  Against a generated inequality every vertex
scores exactly +bound or -bound; the saturating half spans the full
9-dimensional space, which is precisely the facet property.  A family
member's full rank needs no elimination: its saturating set holds the nine
rows K[v] with no pair code 3, the Kronecker square of
[[1, 1, 1], [1, -1, 1], [1, 1, -1]], a minor of determinant 4^6.  A set
without them, like the sum of two facets below, is ranked by one
fraction-free (Bareiss) elimination, first modulo a prime (a minor nonzero
mod p is a nonzero integer), and again over the integers when that rank
falls short.  The certificate involves no floating point at all.
"""

import numpy as np

from bellfacets import (
    BellInequality,
    SignFunction,
    certify_tightness,
    inequality_from_sign_function,
    lhv_max,
    lhv_max_by_strategies,
    vertex_matrix,
)


def main():
    chsh = SignFunction.from_text("N=2;table=a0a0")
    ineq = inequality_from_sign_function(chsh)

    print("Classical bounds by two independent brute-force routes:")
    print(f"  over 32 vertices:                {lhv_max(ineq)}")
    print(f"  over 64 deterministic strategies: {lhv_max_by_strategies(ineq)}")

    K = vertex_matrix(2)
    values = np.concatenate((K, -K)) @ ineq.coeffs.ravel()
    print(f"\nVertex scores: {sorted(set(values.tolist()))} "
          f"({np.sum(values == 16)} saturate each side)")

    cert = certify_tightness(ineq)
    print(f"\nCHSH certificate: tight={cert.tight}, "
          f"saturating={cert.saturating_count}, exact rank={cert.rank} (= 3^2)")

    trivial = inequality_from_sign_function(SignFunction(2, 0))
    cert = certify_tightness(trivial)
    print(f"|E_00| <= 1 certificate: tight={cert.tight}, "
          f"saturating={cert.saturating_count}, rank={cert.rank}")

    # A valid inequality that is NOT a facet: the sum of two distinct CHSH
    # facets holds with bound 32 but its saturating set is too thin.
    other = inequality_from_sign_function(
        SignFunction.from_function(2, lambda a, b, c, d: -1 if b == c == -1 else 1)
    )
    summed = BellInequality(2, ineq.coeffs + other.coeffs, 32)
    cert = certify_tightness(summed)
    print(f"\nSum of two CHSH facets (bound 32): tight={cert.tight}, "
          f"saturating={cert.saturating_count}, rank={cert.rank} < 9")

    print(f"\nVertex count check: {2 * len(vertex_matrix(2))} vertices for two observers")


if __name__ == "__main__":
    main()
