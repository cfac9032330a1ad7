"""Test inputs built from the library's types: configurations of curves,
weighted hypersurfaces and fibre predicates that no subcommand needs."""

from fractions import Fraction

from delpezzo.lattice import CurveConfig, DynkinType
from delpezzo.surfaces import WeightedPoly, kodaira_euler, parse_poly


def dynkin_edges(t: DynkinType):
    """Edge list of the Dynkin diagram on vertices 0..rank-1."""
    n = t.rank
    if t.letter == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if t.letter == "D":
        # chain 0..n-3, with n-2 and n-1 both attached to n-3
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
        return edges
    # E_n: chain 0..n-2, extra vertex n-1 attached to vertex 2
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((2, n - 1))
    return edges


def dynkin_curve_config(t: DynkinType) -> CurveConfig:
    """The configuration of (-2)-curves whose dual graph is the given type."""
    n = t.rank
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = -2
    for i, j in dynkin_edges(t):
        matrix[i][j] = matrix[j][i] = 1
    return CurveConfig([f"{t}#{i}" for i in range(n)], matrix)


def ii_star_fiber() -> CurveConfig:
    """The type II* fibre: affine E8 with labelled components and multiplicities.

    C1-...-C6-C4'-C2' is an ordered linear chain and C3' hangs off C6;
    multiplicities are 1..6, 4, 2, 3.
    """
    labels = ["C1", "C2", "C3", "C4", "C5", "C6", "C4'", "C2'", "C3'"]
    mult = [1, 2, 3, 4, 5, 6, 4, 2, 3]
    n = 9
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = -2
    chain = list(range(8))  # C1..C6, C4', C2'
    for a, b in zip(chain, chain[1:]):
        matrix[a][b] = matrix[b][a] = 1
    c6, c3p = 5, 8
    matrix[c6][c3p] = matrix[c3p][c6] = 1
    return CurveConfig(labels, matrix, mult)


def remove(c: CurveConfig, i: int) -> CurveConfig:
    """The configuration with curve i dropped and nothing else changed."""
    keep = [k for k in range(len(c.labels)) if k != i]
    return CurveConfig(
        [c.labels[k] for k in keep],
        [[c.matrix[a][b] for b in keep] for a in keep],
        [c.multiplicities[k] for k in keep] if c.multiplicities else None)


def za_surface(a) -> WeightedPoly:
    """The degree-6 hypersurface W^2 + Z^3 + X^5*Y + a*X^4*Z in P(1,1,2,3)."""
    return parse_poly("vars X:1 Y:1 Z:2 W:3\nW^2 + Z^3 + X^5*Y + a*X^4*Z",
                      {"a": Fraction(a)})


def kodaira_reducible(t: str) -> bool:
    kodaira_euler(t)  # validates
    return t not in ("I0", "I1", "II")
