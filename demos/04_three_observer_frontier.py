"""Three observers, three settings: a family far beyond the two-setting world.

The section recursion (each admissible function is four admissible
sections over the last observer) enumerates all 51678 admissible sign
functions of six variables.  The census splits them into 76 canonical
classes; most genuinely use all three settings of some observer, so they
lie outside every two-setting family.  Each class is facet-certified (64
saturating vertices of exact rank 27) and its quantum ceiling estimated by
see-saw.
"""

import numpy as np

from bellfacets import (
    certify_tightness,
    classify,
    inequality_from_sign_function,
    seesaw_maximize,
)


def main():
    census = classify(3)
    print(f"admissible functions: {census.total_admissible}")
    print(f"canonical classes:    {len(census.canonical_classes)}")
    print(f"factorable (trivial): {census.factorable_count} functions")

    three_setting = []
    for cls in census.canonical_classes:
        coeffs = inequality_from_sign_function(cls.representative).coeffs
        support = np.argwhere(coeffs)
        if any(len(set(support[:, i].tolist())) == 3 for i in range(3)):
            three_setting.append(cls)
    print(f"classes where some observer uses all three settings: {len(three_setting)}")

    print("\nA closer look at the first such class:")
    cls = three_setting[0]
    ineq = inequality_from_sign_function(cls.representative)
    cert = certify_tightness(ineq)
    print(f"  generator {cls.representative.to_text()} (orbit {cls.orbit_size})")
    print(f"  nonzero coefficients:")
    for pos in np.argwhere(ineq.coeffs):
        print(f"    E_{''.join(map(str, pos))}: {int(ineq.coeffs[tuple(pos)]):+d}")
    print(f"  facet: tight={cert.tight}, saturating={cert.saturating_count}, rank={cert.rank}")

    report = seesaw_maximize(ineq, restarts=16, seed=7)
    print(f"  quantum/classical ratio (best found): {report.violation_ratio:.9f}")

    print("\nQuantum ratios across ten classes (seed 7, 8 restarts):")
    for cls in census.canonical_classes[:10]:
        ineq = inequality_from_sign_function(cls.representative)
        report = seesaw_maximize(ineq, restarts=8, seed=7)
        print(f"  {cls.representative.to_text()}  ratio {report.violation_ratio:.6f}")


if __name__ == "__main__":
    main()
