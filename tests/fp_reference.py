"""Dense polynomial arithmetic over F_p, the tests' own.

Polynomials are coefficient tuples, lowest power first, trimmed of zero
top coefficients.  `fp_add`, `fp_mul` and `fp_divmod` take each
coefficient mod p term by term and form the quotient of a division
explicitly; the package computes in `quotient_ring` and takes gcds by
remainders alone, and the tests hold it to these: `FieldElem`'s field
arithmetic, `reference_fp_gcd` and the reference split in `helpers`, and
the divisibility tests of the sieve's slow paths.
"""


def fp_trim(c):
    """c as a tuple with its zero top coefficients dropped."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fp_add(a, b, p):
    """a + b over F_p."""
    n = max(len(a), len(b))
    return fp_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                    for i in range(n)])


def fp_mul(a, b, p):
    """a b over F_p, by the schoolbook product."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return fp_trim(out)


def fp_divmod(a, b, p):
    """(quotient, remainder) of a by the nonzero b over F_p, by long
    division."""
    if not b:
        raise ZeroDivisionError
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = (a[i + len(b) - 1] * inv) % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return fp_trim(q), fp_trim(a[:len(b) - 1])
