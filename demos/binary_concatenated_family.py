"""Binary codes with small locality from two-level concatenation.

Assembles the r-local binary family built from an extended Reed-Solomon
outer code over GF(2^(r-1)) concatenated onto a single-parity-check inner
code.  For r = 3 this gives a [20,8,8] code in which every coordinate is
repairable from 3 others, and its dimension attains the alphabet-dependent
bound (evaluated with the bundled best-known-dimension table), so no binary
code with the same length, distance, and locality can have more codewords.
Shortening one coordinate yields a [19,7,8] code with mixed localities
(3 coordinates 2-local, 16 coordinates 3-local) that attains the two-class
version of the same bound.

The r = 2 member is also assembled, with its honest parameters: the family's
nominal distance formula 2(r+1) = 6 is unattainable at length 9 and
dimension 3 over GF(2), and the true enumerated distance is 4.

Run:  python3 demos/binary_concatenated_family.py
"""

from mllrc import (
    KOptOracle,
    certify,
    construction2_binary_lrc,
    construction2_parameters,
    render_certificate_text,
)

table = KOptOracle("table")

print("=== r = 3, no shortening ===")
code = construction2_binary_lrc(3, 0)
print(f"parameters: [{code.n},{code.k}] over GF(2), "
      f"nominal triple {construction2_parameters(3, 0)}")
cert = certify(code, oracle=table)
print(render_certificate_text(cert))
assert cert.alphabet_optimal is True
print()

print("=== r = 3, shortened once (two localities) ===")
cert = certify(code.shorten(0), oracle=table)
print(render_certificate_text(cert))
assert cert.alphabet_optimal is True
print()

print("=== r = 2: honest parameters ===")
small = construction2_binary_lrc(2, 0)
nominal = construction2_parameters(2, 0)
d = small.min_distance()
print(f"nominal triple: {nominal}; enumerated distance: {d}")
print("no [9,3,6] binary code exists (Griesmer caps the dimension at 2),")
print("so the nominal distance is unattainable; the assembled code is")
print("[9,3,4] and its certificate under the default oracle reads:")
print(render_certificate_text(certify(small)))
