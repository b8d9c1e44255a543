"""Parity-splitting codes and the relation between the two bounds.

Part 1 builds codes that protect information symbols with per-class
localities by splitting the first parity of an MDS code into per-block
local parities.  Their certificates use information-symbol accounting: the
d-2 shared parities count toward the length but belong to no locality
class, and the distance bound is evaluated with the declared per-class
dimensions, which it meets with equality on every instance.

Part 2 spot-checks bound consistency: any (profile, k, d, q) point that
violates the Singleton-type distance bound is also rejected by the
alphabet-dependent dimension bound, so the two bounds never disagree about
which parameter points are admissible.

Run:  python3 demos/pyramid_and_dominance.py
"""

from mllrc import (
    PyramidSpec,
    certify_pyramid,
    check_dominance,
    render_certificate_text,
    render_dominance_text,
)

print("=== part 1: information-symbol certificates ===")
instances = [
    (7, 4, ((4, 2),)),
    (7, 3, ((2, 1), (2, 2))),
    (23, 3, ((3, 2), (4, 3))),
]
for q, d, dims in instances:
    spec = PyramidSpec(q, d, dims)
    cert = certify_pyramid(spec)
    print(f"--- q={q}, d={d}, per-class (dimension, locality) = {dims} ---")
    print(render_certificate_text(cert))
    assert cert.singleton_optimal is True
    print()

print("=== part 2: a Singleton-violating point is alphabet-rejected ===")
# the profile of the [11,5,6] two-locality code, but with d inflated to 7:
report = check_dominance(((3, 2), (8, 3)), 5, 7, 13)
print(render_dominance_text(report))
assert report.holds and not report.singleton_feasible
print()
print("and a feasible point passes vacuously:")
report = check_dominance(((3, 2), (8, 3)), 5, 6, 13)
print(render_dominance_text(report))
assert report.holds and report.singleton_feasible
