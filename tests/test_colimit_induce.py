"""Maps out of a colimit read off its free columns, against the RREF solve.

`Colimit.induce` reads each component off each node's free generator
columns, as `chain._read_off` does, and checks one product per degree.  The oracle is the solve
`induced_matrix(hstack(legs), hstack(cocone))` in every degree of the
generators, including degrees where the colimit is zero.
"""

import random

import pytest

from cosegal.chain import (
    ChainComplex,
    ChainMap,
    colimit,
    direct_sum,
    induced_matrix,
    single_complex,
)
from cosegal.field_linalg import GF2, GF3, QQ, Matrix
from cosegal.sampling import random_chain_map, random_complex


def _random_diagram(rng, field):
    """A few small nodes and random arrows between them, self-loops and
    cycles included."""
    nodes = [random_complex(rng, field, 0, 1, 2) for _ in range(rng.randrange(1, 4))]
    arrows = []
    for _ in range(rng.randrange(0, 4)):
        s, t = rng.randrange(len(nodes)), rng.randrange(len(nodes))
        arrows.append((s, t, random_chain_map(rng, nodes[s], nodes[t])))
    for s in range(len(nodes)):
        if rng.random() < 0.3:
            arrows.append((s, s, random_chain_map(rng, nodes[s], nodes[s])))
    return nodes, arrows


def _oracle(c, cocone):
    """The solve-based map out of c, or ValueError if cocone does not descend."""
    fld = c.obj.field
    comps = {}
    for n in c.by_node:
        through = Matrix.hstack(fld, [leg.component(n) for leg in c.legs])
        composite = Matrix.hstack(fld, [m.component(n) for m in cocone])
        comps[n] = induced_matrix(through, composite)
    return ChainMap(c.obj, cocone[0].target, comps)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_induce_matches_solve(field):
    rng = random.Random({GF2: 61, GF3: 62, QQ: 63}[field])
    refused = 0
    for _ in range(40):
        nodes, arrows = _random_diagram(rng, field)
        c = colimit(nodes, arrows)
        target = random_complex(rng, field, 0, 1, 2)
        h = random_chain_map(rng, c.obj, target)
        cocone = [h @ leg for leg in c.legs]
        assert c.induce(cocone) == _oracle(c, cocone) == h
        # perturb one map of the cocone: it descends exactly when the solve
        # finds a map, and then the two agree
        k = rng.randrange(len(nodes))
        cocone[k] = cocone[k] + random_chain_map(rng, nodes[k], target)
        try:
            want = _oracle(c, cocone)
        except ValueError as err:
            refused += 1
            with pytest.raises(ValueError, match=str(err)):
                c.induce(cocone)
        else:
            assert c.induce(cocone) == want
    assert refused >= 5


def test_induce_refuses_a_cocone_of_the_wrong_length():
    node = random_complex(random.Random(3), GF2, 0, 1, 2)
    c = colimit([node, node], [])
    with pytest.raises(ValueError, match="node counts"):
        c.induce([ChainMap.identity(node)])


def test_induce_refuses_a_cocone_that_does_not_start_at_the_nodes():
    # the matrices fit and descend, but the complexes do not: read off, each
    # cocone gives a map that is not a chain map
    disc = ChainComplex(GF2, {0: 1, 1: 1}, {1: Matrix.identity(GF2, 1)})
    z = ChainComplex(GF2, {0: 1, 1: 1}, {})
    # a map out of another complex with the node's dims
    with pytest.raises(ValueError, match="start at the nodes"):
        colimit([disc], []).induce([ChainMap.identity(z)])
    # maps out of the nodes, into different targets
    into_disc = ChainMap(z, disc, {0: Matrix.identity(GF2, 1)})
    into_z = ChainMap(z, z, {1: Matrix.identity(GF2, 1)})
    with pytest.raises(ValueError, match="share one target"):
        colimit([z, z], []).induce([into_disc, into_z])


def test_colimit_refuses_a_diagram_it_cannot_glue():
    # each of these used to build a colimit: a leg that is not a chain map,
    # a leg from an F_3 complex into an F_2 one, and index -1 read as the last node
    disc = ChainComplex(GF2, {0: 1, 1: 1}, {1: Matrix.identity(GF2, 1)})
    flat = ChainComplex(GF2, {0: 1, 1: 1}, {})
    with pytest.raises(ValueError, match=r"arrow \(0, 1\) does not run between its nodes"):
        colimit([disc, flat], [(0, 1, ChainMap.identity(flat))])
    with pytest.raises(ValueError, match="does not run between its nodes"):
        colimit([disc, flat], [(1, 0, ChainMap.identity(flat))])
    with pytest.raises(ValueError, match="more than one field"):
        direct_sum([single_complex(GF2, 0, 1), single_complex(GF3, 0, 1)])
    for s, t in ((0, -1), (-1, 0), (0, 2), (2, 2)):
        with pytest.raises(ValueError, match="names a node outside the diagram"):
            colimit([flat, flat], [(s, t, ChainMap.identity(flat))])
    # the same arrows between the right nodes glue
    assert colimit([flat, flat], [(0, 1, ChainMap.identity(flat))]).obj == flat
