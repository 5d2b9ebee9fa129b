"""Census of the two-observer, three-setting correlation inequalities.

A sign function assigns +/-1 to every assignment of the four product
variables (two per observer).  It generates a Bell inequality exactly when
its Fourier spectrum avoids both observers' pair products.  This script
enumerates that family exhaustively, groups it under relabeling symmetries,
and shows that beyond trivial |E| <= 1 constraints everything is CHSH.
"""

import numpy as np

from bellfacets import (
    SignFunction,
    classify,
    fourier_transform,
    inequality_from_sign_function,
    is_admissible,
    is_factorable,
)


def main():
    print("Scanning all 2^16 = 65536 sign functions of four variables...")
    tables = (SignFunction(2, t) for t in range(1 << 16))
    admissible = [s for s in tables if is_admissible(s)]
    factorable = [s for s in admissible if is_factorable(s)]
    print(f"  admissible: {len(admissible)}")
    print(f"  factorable (trivial |E| <= 1): {len(factorable)}")
    print(f"  nontrivial: {len(admissible) - len(factorable)}")

    print("\nGrouping by observer/setting/outcome relabelings and global sign:")
    census = classify(2)
    for cls in census.canonical_classes:
        kind = "trivial" if cls.factorable else "CHSH"
        ineq = inequality_from_sign_function(cls.representative)
        support = [tuple(int(x) for x in p) for p in np.argwhere(ineq.coeffs)]
        print(
            f"  {cls.representative.to_text()}  orbit {cls.orbit_size:3d}  "
            f"{kind:7s}  support {support}"
        )

    print("\nThe classic CHSH generator: -1 exactly when both first variables are -1")
    chsh = next(s for s in admissible if s.to_text() == "N=2;table=a0a0")
    spectrum = fourier_transform(chsh)  # entry T: coefficient on the variables whose bits T sets
    terms = {tuple(j for j in range(4) if t >> j & 1): int(spectrum[t]) for t in np.flatnonzero(spectrum)}
    print(f"  spectrum: {terms}")
    ineq = inequality_from_sign_function(chsh)
    print(f"  coefficient tensor (rows: observer 0 settings):\n{ineq.coeffs}")
    print(f"  i.e. |E_00 + E_01 + E_10 - E_11| <= 2 after dividing by 8")


if __name__ == "__main__":
    main()
