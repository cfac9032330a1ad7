"""Field references for the exponent arithmetic of plane_action: the same
operations carried out on coordinates that are CyclotomicNumbers."""

from delpezzo.cyclotomic import CyclotomicNumber


def apply(g, coords):
    """Image under the monomial matrix g of a coordinate vector of
    cyclotomic numbers: the reference ProjectivePoint.transformed is
    checked against."""
    out = [None, None, None]
    for j, e in enumerate(g.scalars):
        # times zeta^e: a Fraction factor would scale by e itself
        out[g.perm[j]] = coords[j] * CyclotomicNumber.zeta(e.denominator, e.numerator)
    return out


def cross(u, v):
    """u x v over any ring: the reference that fixed-line normals (the cross
    of the two eigenvectors of a double eigenvalue) and the meets of two
    fixed lines (the cross of their normals) are checked against."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]
