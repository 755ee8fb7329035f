"""Independent brute-force oracles for the test suite.

Everything here is written from first principles, nearly all of it on plain
Python lists: its own Gaussian elimination, its own surjection enumeration,
its own comma-category crawl, its own signed permutation action.  The numpy
oracles are `oracle_fp_rref`, the dense elimination the library used to
run, the dense Kronecker Hom systems, which the library built before its
systems became sparse rows, and the Kronecker tensors, cones and cylinders
at the end, which it built before it wrote their blocks in place.  The
per-entry document codec after them is the one documents ran before they
read and wrote a matrix's stored form.  The point is to check the library
against code that shares nothing with it beyond the definitions.
"""

from fractions import Fraction
from itertools import permutations, product


# ---------------------------------------------------------------------------
# plain-list linear algebra
# ---------------------------------------------------------------------------


def gauss_rank(rows, p):
    """Rank of a list-of-lists matrix over F_p (p prime) or Q (p == 0)."""
    if not rows or not rows[0]:
        return 0
    if p:
        m = [[int(x) % p for x in r] for r in rows]
    else:
        m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        if p:
            inv = pow(m[row][col], -1, p)
            m[row] = [(x * inv) % p for x in m[row]]
        else:
            inv = 1 / m[row][col]
            m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                if p:
                    m[r] = [(a - c * b) % p for a, b in zip(m[r], m[row])]
                else:
                    m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def kernel_dim_by_enumeration(rows, ncols):
    """Kernel dimension over F_2 by trying all vectors (tiny systems only)."""
    count = 0
    for bits in range(2 ** ncols):
        v = [(bits >> i) & 1 for i in range(ncols)]
        if all(sum(r[i] * v[i] for i in range(ncols)) % 2 == 0 for r in rows):
            count += 1
    # the solution set is a subspace; its size is 2^dim
    dim = 0
    while (1 << dim) < count:
        dim += 1
    assert (1 << dim) == count
    return dim


def oracle_q_matmul(a, b, ncols):
    """Product of list-of-lists matrices over Q, one `Fraction` dot product
    per entry; `ncols` is the column count of b (b may have no rows)."""
    return [
        [
            sum((Fraction(x) * Fraction(row[j]) for x, row in zip(r, b)), Fraction(0))
            for j in range(ncols)
        ]
        for r in a
    ]


def oracle_q_kron(a, b):
    """Kronecker product of list-of-lists matrices over Q, left factor index
    major: entry a[i][j] b[r][s] at row (i, r) and column (j, s), one
    `Fraction` product per entry."""
    return [[Fraction(x) * Fraction(y) for x in ra for y in rb] for ra in a for rb in b]


def oracle_q_rref(rows, ncols, p=0):
    """Reduced row echelon form over Q (over F_p when p is given) and its
    pivot columns, by plain Gauss-Jordan elimination on `Fraction`s (on
    integers mod p): the pivot is the first nonzero entry at or below the
    current row, the pivot row is divided by it, and the pivot column is
    cleared from every other row."""
    norm = (lambda x: x % p) if p else Fraction
    m = [[norm(x) for x in r] for r in rows]
    nrows = len(m)
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p) if p else 1 / m[row][col]
        m[row] = [norm(x * inv) for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [norm(x - c * y) for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def oracle_fp_rref(rows, ncols, p):
    """Reduced row echelon form over F_p and its pivot columns, as plain
    lists, by the dense column loop the library ran before its elimination
    became sparse: int64 rows in numpy, the first nonzero entry at or below
    the current row as pivot, that row scaled by the inverse of its pivot,
    and one vectorised update of every other row per pivot."""
    import numpy as np

    a = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64).reshape(len(rows), ncols)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a.tolist(), pivots


def pushout_universal(leg_b, leg_c, u, v):
    """The universal map out of a pushout, solved for: the unique w with
    w.leg_b = u and w.leg_c = v, one `induced_matrix` solve per degree.  It
    uses the library's `solve`, and is the reference for `Colimit.induce`,
    which reads the map off the colimit's section instead."""
    from cosegal.chain import ChainMap, induced_matrix
    from cosegal.field_linalg import Matrix

    p = leg_b.target
    fld = p.field
    comps = {}
    for n in p.dims:
        stacked = Matrix.hstack(fld, [leg_b.component(n), leg_c.component(n)])
        rhs = Matrix.hstack(fld, [u.component(n), v.component(n)])
        comps[n] = induced_matrix(stacked, rhs)
    return ChainMap(p, u.target, comps)


def lifts_against_generators(g):
    """The lifting characterisation of a trivial fibration: whether g has the
    right lifting property against every sphere-disc generator in its
    inflated window, each solved as lifting problems by the library's
    `has_rlp`.  It is the reference for `is_trivial_fibration`, which reads
    surjectivity and homology instead."""
    from cosegal.chain import generating_cofibrations, has_rlp, rlp_window

    gens = generating_cofibrations(g.field, *rlp_window(g))
    return all(has_rlp(gen.inclusion, g) for gen in gens)


def classical_joint(f, below, eta, n):
    """The level-n joint colimit of the free construction glued along the
    classical latching diagram, built from this module's crawl of the shapes
    (`oracle_lax_shape`, `oracle_lax_shape_arrows`), not the library's: the
    lax shape on `below` with all its arrows, its plus objects again over f
    with the arrows between them (the classical shape), and f(n), each
    classical node (p, v) mapped into f(n) by f(v) and into its plus node
    by eta_p.  The nodes are in the shape's object order, pairs then plus
    objects.  The library drops the classical arrows, which f's
    functoriality implies; this is its reference.  It uses the library's
    `tensor`, `tensor_map` and `colimit`, and returns the colimit and its
    arrow count."""
    from cosegal.chain import colimit, tensor, tensor_map
    from cosegal.phi_epi import Surjection

    def act(d, c, p):  # d's structure map at the surjection c onto p
        return d.structure_map(Surjection(len(c), p, c))

    pairs, plus = oracle_lax_shape(n)
    index = {ob: k for k, ob in enumerate(pairs + plus)}
    nodes = [tensor(below.objects[p], below.objects[q]) for _, p, q, _ in pairs]
    nodes += [below.objects[p] for _, p, _ in plus]
    arrows, classical = [], []
    for src, tgt, (kind, *cs) in oracle_lax_shape_arrows(n):
        if kind == "pair":
            m = tensor_map(act(below, cs[0], src[1]), act(below, cs[1], src[2]))
        elif kind == "gamma":
            m = act(below, cs[0], src[1] + src[2]) @ below.laxity_map(src[1], src[2])
        else:
            m = act(below, cs[0], src[1])
            classical.append((src, tgt, cs[0]))
        arrows.append((index[src], index[tgt], m))
    cindex = {ob: len(nodes) + k for k, ob in enumerate(plus)}
    nodes += [f.objects[p] for _, p, _ in plus]
    arrows += [(cindex[s], cindex[t], act(f, c, s[1])) for s, t, c in classical]
    fnode = len(nodes)
    nodes.append(f.objects[n])
    for ob in plus:
        _, p, v = ob
        arrows += [(cindex[ob], fnode, act(f, v, p)), (cindex[ob], index[ob], eta[p])]
    return colimit(nodes, arrows), len(arrows)


# ---------------------------------------------------------------------------
# the tensor basis
# ---------------------------------------------------------------------------


def tensor_basis(left, right, n):
    """The basis of (C (x) D)_n as labels ((i, x), (j, y)), one for each
    x (x) y with x the x-th basis vector of C_i and y the y-th of D_j, in
    the documented order: left degree ascending, then left index, then
    right index.  left, right: degree -> dimension."""
    return [
        ((i, x), (n - i, y))
        for i in sorted(left)
        for x in range(left[i])
        for y in range(right.get(n - i, 0))
    ]


def tensor_dims(left, right):
    """degree -> dimension of C (x) D (nonzero entries only)."""
    degs = {i + j for i in left for j in right}
    return {n: len(tensor_basis(left, right, n)) for n in degs if tensor_basis(left, right, n)}


def _matrix_of(cols, rows, image, p):
    """The matrix sending each label in cols to image(label), a list of
    (coefficient, label in rows) pairs, over F_p or Q (p == 0)."""
    where = {lab: r for r, lab in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for k, lab in enumerate(cols):
        for coef, target in image(lab):
            out[where[target]][k] += coef
    return [[x % p if p else Fraction(x) for x in row] for row in out]


def oracle_tensor_d(left, left_d, right, right_d, n, p):
    """d_n of C (x) D: x (x) y -> dx (x) y + (-1)^i x (x) dy, x in degree i.
    left_d, right_d: degree -> rows of the differential (absent: zero)."""

    def image(lab):
        (i, x), (j, y) = lab
        sign = -1 if i % 2 else 1
        return [(row[x], ((i - 1, x2), (j, y))) for x2, row in enumerate(left_d.get(i, []))] + [
            (sign * row[y], ((i, x), (j - 1, y2))) for y2, row in enumerate(right_d.get(j, []))
        ]

    return _matrix_of(
        tensor_basis(left, right, n), tensor_basis(left, right, n - 1), image, p
    )


def oracle_tensor_map(f, g, n, p):
    """(f (x) g)_n: x (x) y -> f(x) (x) g(y).  f, g: (source dims, target
    dims, degree -> rows of the component)."""
    (fs, ft, fc), (gs, gt, gc) = f, g

    def image(lab):
        (i, x), (j, y) = lab
        return [
            (a[x] * b[y], ((i, x2), (j, y2)))
            for x2, a in enumerate(fc.get(i, []))
            for y2, b in enumerate(gc.get(j, []))
        ]

    return _matrix_of(tensor_basis(fs, gs, n), tensor_basis(ft, gt, n), image, p)


def oracle_braiding(left, right, n, p):
    """The symmetry C (x) D -> D (x) C in degree n: x (x) y -> (-1)^{ij} y (x) x."""

    def image(lab):
        (i, x), (j, y) = lab
        return [(-1 if i * j % 2 else 1, ((j, y), (i, x)))]

    return _matrix_of(tensor_basis(left, right, n), tensor_basis(right, left, n), image, p)


def oracle_associator(a, b, c, n, p):
    """(A (x) B) (x) C -> A (x) (B (x) C) in degree n: (x (x) y) (x) z ->
    x (x) (y (x) z), with no sign."""
    ab, bc = tensor_dims(a, b), tensor_dims(b, c)

    def image(lab):
        (k, u), (l, z) = lab
        (i, x), (j, y) = tensor_basis(a, b, k)[u]
        v = tensor_basis(b, c, j + l).index(((j, y), (l, z)))
        return [(1, ((i, x), (j + l, v)))]

    return _matrix_of(tensor_basis(ab, c, n), tensor_basis(a, bc, n), image, p)


def bracketing_dims(bracketing):
    """degree -> dimension of a bracketing: a dims dict, or a pair of
    bracketings standing for their tensor product."""
    if isinstance(bracketing, dict):
        return bracketing
    return tensor_dims(*map(bracketing_dims, bracketing))


def bracketing_basis(bracketing, n):
    """The degree-n basis of a bracketing as lists of factor labels
    [(degree, index), ...], left to right, in the documented tensor order:
    the label of ((i, u), (j, v)) in `tensor_basis` is the u-th label of the
    left part in degree i followed by the v-th of the right part in degree j."""
    if isinstance(bracketing, dict):
        return [[(n, x)] for x in range(bracketing.get(n, 0))]
    left, right = bracketing
    ldims, rdims = bracketing_dims(left), bracketing_dims(right)
    lbasis = {i: bracketing_basis(left, i) for i in ldims if n - i in rdims}
    rbasis = {n - i: bracketing_basis(right, n - i) for i in lbasis}
    return [lbasis[i][u] + rbasis[j][v] for (i, u), (j, v) in tensor_basis(ldims, rdims, n)]


def oracle_permutation(source, target, perm, n, p):
    """The degree-n matrix of the map between two bracketings of the same
    factors that puts source factor perm[m] at target position m, signed by
    `koszul_sign` over the factor degrees."""
    where = [perm.index(f) for f in range(len(perm))]  # target position of factor f

    def image(labels):
        moved = tuple(labels[f] for f in perm)
        return [(koszul_sign(where, [d for d, _ in labels]), moved)]

    rows = [tuple(b) for b in bracketing_basis(target, n)]
    return _matrix_of(bracketing_basis(source, n), rows, image, p)


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def oracle_surjections(m, n):
    """All maps {0..m-1} -> {0..n-1} whose image is everything."""
    out = []
    for arr in product(range(n), repeat=m):
        if len(set(arr)) == n:
            out.append(arr)
    return out


def stirling2(m, n):
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return n * stirling2(m - 1, n) + stirling2(m - 1, n - 1)


def oracle_lax_shape(n):
    """Objects of the level-n decomposition shape, crawled from scratch:
    pairs ((p, q), surjection n ->> p+q) with p, q >= 1, and single levels
    (p, surjection n ->> p) with p < n."""
    pairs = []
    for p in range(1, n):
        for q in range(1, n - p + 1):
            for v in oracle_surjections(n, p + q):
                pairs.append(("pair", p, q, v))
    plus = []
    for p in range(1, n):
        for v in oracle_surjections(n, p):
            plus.append(("plus", p, v))
    return pairs, plus


def oracle_lax_shape_arrows(n):
    """Arrows of the decomposition shape, enumerated from the comma-category
    composition law (compatibility of the defining surjections)."""
    pairs, plus = oracle_lax_shape(n)
    objects = pairs + plus
    arrows = []

    def comp(g, f):  # g after f, plain tuples
        return tuple(g[x] for x in f)

    def dsum(a, b, off):
        return tuple(a) + tuple(x + off for x in b)

    for src in objects:
        for tgt in objects:
            if src[0] == "pair" and tgt[0] == "pair":
                _, p, q, v = src
                _, pp, qq, vv = tgt
                for a in oracle_surjections(pp, p):
                    for b in oracle_surjections(qq, q):
                        if comp(dsum(a, b, p), vv) == v:
                            if src == tgt and a == tuple(range(p)) and b == tuple(range(q)):
                                continue
                            arrows.append((src, tgt, ("pair", a, b)))
            elif src[0] == "pair" and tgt[0] == "plus":
                _, p, q, v = src
                _, r, w = tgt
                for c in oracle_surjections(r, p + q):
                    if comp(c, w) == v:
                        arrows.append((src, tgt, ("gamma", c)))
            elif src[0] == "plus" and tgt[0] == "plus":
                _, p, v = src
                _, r, w = tgt
                for c in oracle_surjections(r, p):
                    if comp(c, w) == v:
                        if src == tgt and c == tuple(range(p)):
                            continue
                        arrows.append((src, tgt, ("plus", c)))
    return arrows


# ---------------------------------------------------------------------------
# colimit dimension
# ---------------------------------------------------------------------------


def colimit_dim(node_dims, arrows, p):
    """Dimension of the colimit of vector spaces: total minus the rank of the
    gluing relations.  arrows: (src, tgt, matrix-as-rows mapping src -> tgt)."""
    offs = []
    total = 0
    for d in node_dims:
        offs.append(total)
        total += d
    rels = []
    for s, t, mat in arrows:
        for a in range(node_dims[s]):
            row = [0] * total
            row[offs[s] + a] += 1
            for i in range(node_dims[t]):
                row[offs[t] + i] -= mat[i][a]
            rels.append(row)
    return total - gauss_rank(rels, p)


# ---------------------------------------------------------------------------
# signed permutation action and symmetric powers
# ---------------------------------------------------------------------------


def koszul_sign(perm, degrees):
    """Sign of permuting homogeneous factors: product of (-1)^(d_i d_j) over
    inversions of the permutation."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                if (degrees[i] * degrees[j]) % 2:
                    sign = -sign
    return sign


def oracle_sym_power_dims(dim_by_degree, n, p):
    """Dimensions and homology of the n-th symmetric power of a complex given
    by per-degree dimensions and differentials, computed from scratch.

    dim_by_degree: dict degree -> (dim, diff rows to degree-1 or None)
    Returns (dims, homology) as dicts.
    """
    degrees = sorted(dim_by_degree)
    single = []
    for d in degrees:
        dim = dim_by_degree[d][0]
        for i in range(dim):
            single.append((d, i))
    basis = [combo for combo in product(single, repeat=n)]
    index = {b: k for k, b in enumerate(basis)}
    total = len(basis)

    def tensor_degree(b):
        return sum(f[0] for f in b)

    # differential on the tensor power: Leibniz with the running Koszul sign
    diff = [[0] * total for _ in range(total)]
    for b in basis:
        col = index[b]
        running = 1
        for slot in range(n):
            d, i = b[slot]
            rows = dim_by_degree[d][1]
            if rows is not None:
                for i2 in range(len(rows)):
                    coef = rows[i2][i]
                    if coef:
                        nb = list(b)
                        nb[slot] = (d - 1, i2)
                        diff[index[tuple(nb)]][col] += running * coef
            if d % 2:
                running = -running

    # quotient relations: v - sign(perm, degrees(v)) perm(v), all permutations
    rels = []
    for b in basis:
        degs = [f[0] for f in b]
        for perm in permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            permuted = tuple(b[perm.index(slot)] for slot in range(n))
            row = [0] * total
            row[index[b]] += 1
            row[index[permuted]] -= koszul_sign(perm, degs)
            rels.append(row)

    # intersect everything per degree
    by_degree = {}
    for b in basis:
        by_degree.setdefault(tensor_degree(b), []).append(index[b])
    dims, hom = {}, {}
    # build per-degree projections via quotient rank and induced differential
    # ranks; we only need dimensions and homology numbers, which follow from
    # rank computations on the full (graded) matrices
    deg_list = sorted(by_degree)
    rel_by_degree = {}
    for row in rels:
        supp = [k for k, x in enumerate(row) if x]
        if not supp:
            continue
        d = tensor_degree(basis[supp[0]])
        rel_by_degree.setdefault(d, []).append([row[k] for k in by_degree[d]])
    qdim = {}
    for d in deg_list:
        cols = by_degree[d]
        rrows = rel_by_degree.get(d, [])
        qdim[d] = len(cols) - gauss_rank(rrows, p)
        if qdim[d]:
            dims[d] = qdim[d]
    # rank of the induced differential: rank of (proj . d) on the quotient;
    # equivalently rank of [d restricted] modulo relations in the target:
    # rank(proj_{d-1} . diff_d . incl) = rank([diff_d | rel_{d-1} basis]) - rank(rel_{d-1})
    rank_d = {}
    for d in deg_list:
        if d - 1 not in by_degree:
            rank_d[d] = 0
            continue
        cols, tcols = by_degree[d], by_degree[d - 1]
        block = [[diff[t][c] for c in cols] for t in tcols]
        trel = rel_by_degree.get(d - 1, [])
        # columns of block modulo the span of trel rows: stack and subtract
        stacked = [list(r) for r in trel]
        joint = [list(col) for col in zip(*block)] + stacked
        rank_d[d] = gauss_rank(joint, p) - gauss_rank(stacked, p)
    for d in deg_list:
        h = qdim.get(d, 0) - rank_d.get(d, 0) - rank_d.get(d + 1, 0)
        if h:
            hom[d] = h
    return dims, hom


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


def _dense_product(a, b, rows, inner, cols, p):
    """a @ b for list-of-rows matrices of the given shapes; None means zero."""
    out = [[0] * cols for _ in range(rows)]
    if a is None or b is None:
        return out
    for i in range(rows):
        terms = [(k, a[i][k]) for k in range(inner) if a[i][k]]  # zero terms add nothing
        for j in range(cols):
            s = sum(x * b[k][j] for k, x in terms)
            out[i][j] = s % p if p else Fraction(s)
    return out


def oracle_chain_map_defects(src_dims, src_diff, tgt_dims, tgt_diff, comps, p):
    """Degrees n where d_n . f_n != f_{n-1} . d_n, checked densely in every
    degree from one below the lowest to one above the highest.

    Dimensions map degree -> size; differentials (d_n : n -> n-1) and
    components map degree -> list of rows, an absent entry being the zero
    matrix of the right shape.
    """
    degs = set(src_dims) | set(tgt_dims)
    if not degs:
        return []
    bad = []
    for n in range(min(degs) - 1, max(degs) + 2):
        s_n, s_m = src_dims.get(n, 0), src_dims.get(n - 1, 0)
        t_n, t_m = tgt_dims.get(n, 0), tgt_dims.get(n - 1, 0)
        lhs = _dense_product(tgt_diff.get(n), comps.get(n), t_m, t_n, s_n, p)
        rhs = _dense_product(comps.get(n - 1), src_diff.get(n), t_m, s_m, s_n, p)
        if lhs != rhs:
            bad.append(n)
    return bad


# ---------------------------------------------------------------------------
# lax functor squares
# ---------------------------------------------------------------------------


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def oracle_lax_functor_failures(level, dims, structure, laxity, p):
    """Every failing functoriality square and, unless laxity is None, every
    failing laxity-naturality square of a lax diagram, found by trying all of
    them in enumeration order.

    dims: level -> {degree: dim}.  structure: image tuple of a non-identity
    surjection v : n ->> m -> {degree: rows} for the map from level m to
    level n.  laxity: (p, q) -> {degree: rows} for the map from the tensor
    product of levels p and q (blocks by left degree ascending, Kronecker
    order inside a block) to level p + q.  Absent blocks are zero.  Returns
    ("functoriality", (v, u)) for F(v).F(u) != F(u.v) and
    ("laxity-naturality", (p, q, p', q', a, b)) for
    phi_{p',q'}.(F(a) (x) F(b)) != F(a + b).phi_{p,q}.
    """

    def dim(n, deg):
        return dims[n].get(deg, 0)

    def fmap(v, deg):
        n, m = len(v), max(v) + 1
        if v == tuple(range(n)):
            return eye(dim(n, deg))
        rows = structure[v].get(deg)
        return rows if rows is not None else [[0] * dim(m, deg) for _ in range(dim(n, deg))]

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    out = []
    for n in range(1, level + 1):
        for m in range(1, n + 1):
            for v in oracle_surjections(n, m):
                if v == tuple(range(n)):
                    continue
                for k in range(1, m + 1):
                    for u in oracle_surjections(m, k):
                        if u == tuple(range(m)):
                            continue
                        uv = tuple(u[x] for x in v)
                        for deg in sorted(set(dims[n]) | set(dims[k])):
                            rows, inner, cols = dim(n, deg), dim(m, deg), dim(k, deg)
                            lhs = _dense_product(fmap(v, deg), fmap(u, deg), rows, inner, cols, p)
                            rhs = _dense_product(fmap(uv, deg), eye(cols), rows, cols, cols, p)
                            if lhs != rhs:
                                out.append(("functoriality", (v, u)))
                                break
    if laxity is None:
        return out

    def blocks(a, b, deg):
        """[(i, j, size)] of the degree-deg part of level a (x) level b."""
        return [
            (i, deg - i, dim(a, i) * dim(b, deg - i))
            for i in sorted(dims[a])
            if dim(b, deg - i)
        ]

    def tensor_of(fa, fb, a, b, aa, bb, deg):
        """F(fa) (x) F(fb) in degree deg, from a (x) b to aa (x) bb."""
        src, tgt = blocks(a, b, deg), blocks(aa, bb, deg)
        out = [[0] * sum(s for _, _, s in src) for _ in range(sum(s for _, _, s in tgt))]
        t_off, off = {}, 0
        for i, j, s in tgt:
            t_off[(i, j)] = off
            off += s
        s_off = 0
        for i, j, s in src:
            if (i, j) in t_off:
                for r, row in enumerate(_kron(fmap(fa, i), fmap(fb, j))):
                    out[t_off[(i, j)] + r][s_off : s_off + s] = row
            s_off += s
        return out

    def lax(pq, deg, rows, cols):
        m = laxity[pq].get(deg)
        return m if m is not None else [[0] * cols for _ in range(rows)]

    keys = sorted(laxity)
    for (lp, lq) in keys:
        for (pp, qq) in keys:
            for a in oracle_surjections(pp, lp):
                for b in oracle_surjections(qq, lq):
                    ab = tuple(a) + tuple(x + lp for x in b)
                    degs = sorted({i + j for i in dims[lp] for j in dims[lq]})
                    for deg in degs:
                        src = sum(s for _, _, s in blocks(lp, lq, deg))
                        mid = sum(s for _, _, s in blocks(pp, qq, deg))
                        top, low = dim(lp + lq, deg), dim(pp + qq, deg)
                        lhs = _dense_product(
                            lax((pp, qq), deg, low, mid),
                            tensor_of(a, b, lp, lq, pp, qq, deg),
                            low, mid, src, p,
                        )
                        rhs = _dense_product(
                            fmap(ab, deg), lax((lp, lq), deg, top, src), low, top, src, p
                        )
                        if lhs != rhs:
                            out.append(("laxity-naturality", (lp, lq, pp, qq, a, b)))
                            break
    return out


# ---------------------------------------------------------------------------
# monoidal axioms on whole maps
# ---------------------------------------------------------------------------
#
# A map here is (source dims, target dims, {degree: rows}), as
# `oracle_tensor_map` takes it; a factor in one degree is (rows, cols,
# list of rows or None for zero).


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _identity_map(dims):
    return dims, dims, {d: _identity(k) for d, k in dims.items()}


def _at(f, n):
    """The factor of the map f in degree n."""
    src, tgt, comps = f
    return tgt.get(n, 0), src.get(n, 0), comps.get(n)


def _tensor_factor(f, g, n):
    """The factor of f (x) g in degree n: the Kronecker products f_i (x) g_j
    (`_kron`) placed at their blocks, by left degree ascending."""
    (fs, ft, fc), (gs, gt, gc) = f, g
    offsets, rows = {}, 0
    for i in sorted(ft):
        if n - i in gt:
            offsets[i, n - i] = rows
            rows += ft[i] * gt[n - i]
    src = [(i, n - i) for i in sorted(fs) if n - i in gs]
    out = [[0] * sum(fs[i] * gs[j] for i, j in src) for _ in range(rows)]
    col = 0
    for i, j in src:
        if (i, j) in offsets and i in fc and j in gc:
            for r, row in enumerate(_kron(fc[i], gc[j])):
                out[offsets[i, j] + r][col : col + len(row)] = row
        col += fs[i] * gs[j]
    return rows, col, out


def _product(factors, p):
    """The product of the factors, the last one applied first, with entries
    reduced mod p (or Fractions over Q)."""
    rows, inner, out = factors[0]
    for _, cols, m in factors[1:] or [(inner, inner, _identity(inner))]:
        out, inner = _dense_product(out, m, rows, inner, cols, p), cols
    return out


def _oracle_associative(x, y, z, outer_l, inner_l, outer_r, inner_r, p):
    """Whether outer_l.(inner_l (x) id) = outer_r.(id (x) inner_r).associator
    in every degree of (x (x) y) (x) z, for the objects of dims x, y, z."""
    left, right = tensor_dims(tensor_dims(x, y), z), tensor_dims(x, tensor_dims(y, z))
    for n, cols in left.items():
        lhs = _product([_at(outer_l, n), _tensor_factor(inner_l, _identity_map(z), n)], p)
        assoc = (right.get(n, 0), cols, oracle_associator(x, y, z, n, p))
        rhs = _product([_at(outer_r, n), _tensor_factor(_identity_map(x), inner_r, n), assoc], p)
        if lhs != rhs:
            return False
    return True


def _oracle_symmetric(x, y, swap, phi, psi, p):
    """Whether swap.phi = psi.braiding for phi : x (x) y -> w, psi : y (x) x -> w."""
    return all(
        _product([_at(swap, n), _at(phi, n)], p)
        == _product([_at(psi, n), (cols, cols, oracle_braiding(x, y, n, p))], p)
        for n, cols in tensor_dims(x, y).items()
    )


def oracle_monoidal_failures(level, dims, structure, laxity, unit, p):
    """Every failing laxity-associativity triple, laxity-symmetry pair and
    diag-unitality square of a premonoid, in `validate`'s order, decided on
    whole maps: list products of its maps with `oracle_associator`,
    `oracle_braiding` and Kronecker products.

    dims, structure and laxity are as for `oracle_lax_functor_failures`, and
    unit is {degree: rows} for e : I -> level 1.  Returns
    ("laxity-associativity", (a, b, c)) for
    phi_{a+b,c}.(phi_{a,b} (x) id) != phi_{a,b+c}.(id (x) phi_{b,c}).associator,
    ("laxity-symmetry", (a, b)) for F(s).phi_{a,b} != phi_{b,a}.braiding, s
    the bijection sending i < b to a + i and the rest to i - b, and
    ("diag-unitality", (1,)) for phi_{1,1}.(e (x) id) != F(0, 0).
    """

    def lax(a, b):
        return tensor_dims(dims[a], dims[b]), dims[a + b], laxity[a, b]

    out = []
    for a in range(1, level - 1):
        for b in range(1, level - a):
            for c in range(1, level - a - b + 1):
                x, y, z = dims[a], dims[b], dims[c]
                if not _oracle_associative(x, y, z, lax(a + b, c), lax(a, b), lax(a, b + c),
                                           lax(b, c), p):
                    out.append(("laxity-associativity", (a, b, c)))
    for a, b in sorted(laxity):
        swap = dims[a + b], dims[a + b], structure[tuple(range(a, a + b)) + tuple(range(a))]
        if not _oracle_symmetric(dims[a], dims[b], swap, lax(a, b), lax(b, a), p):
            out.append(("laxity-symmetry", (a, b)))
    e, u2 = ({0: 1}, dims[1], unit), (dims[1], dims[2], structure[0, 0])
    if any(
        _product([_at(lax(1, 1), n), _tensor_factor(e, _identity_map(dims[1]), n)], p)
        != _product([_at(u2, n)], p)
        for n in dims[1]
    ):
        out.append(("diag-unitality", (1,)))
    return out


def oracle_strict_failures(dims, mu, e, p):
    """The failing axioms of a strict monoid (A, mu, e), in `validate_strict`'s
    order, on whole maps as in `oracle_monoidal_failures`.  dims: {degree:
    dim} of A; mu, e: {degree: rows} of mu : A (x) A -> A and e : I -> A."""
    m, ident, unit = (tensor_dims(dims, dims), dims, mu), _identity_map(dims), ({0: 1}, dims, e)
    out = []
    if not _oracle_associative(dims, dims, dims, m, m, m, m, p):
        out.append(("associativity", ()))
    if not _oracle_symmetric(dims, dims, ident, m, m, p):
        out.append(("commutativity", ()))
    for name, f, g in (("left-unit", unit, ident), ("right-unit", ident, unit)):
        if any(_product([_at(m, n), _tensor_factor(f, g, n)], p) != _product([_at(ident, n)], p)
               for n in dims):
            out.append((name, ()))
    return out


def oracle_morphism_failures(level, source, target, comps, p):
    """Every failing naturality square, multiplicativity square and unit
    triangle of a morphism s of premonoids, in `validate_morphism`'s order,
    on whole maps as in `oracle_monoidal_failures`.

    source, target: (dims, structure, laxity or None, unit or None), each as
    for `oracle_monoidal_failures`; comps: level -> {degree: rows} of s.
    Returns ("naturality", (v,)) for s_n.F(v) != G(v).s_m,
    ("multiplicativity", (a, b)) for s_{a+b}.phi_{a,b} != psi_{a,b}.(s_a (x) s_b)
    and ("unit-triangle", (1,)) for s_1.e != e'.
    """
    (fd, fs, fl, fe), (gd, gs, gl, ge) = source, target

    def s(n):
        return fd[n], gd[n], comps[n]

    out = []
    for n in range(1, level + 1):
        for m in range(1, n + 1):
            for v in oracle_surjections(n, m):
                if v == tuple(range(n)):
                    continue
                fv, gv = (fd[m], fd[n], fs[v]), (gd[m], gd[n], gs[v])
                if any(_product([_at(s(n), d), _at(fv, d)], p)
                       != _product([_at(gv, d), _at(s(m), d)], p) for d in fd[m]):
                    out.append(("naturality", (v,)))
    if fl is None or gl is None:
        return out
    for a, b in sorted(fl):
        phi = tensor_dims(fd[a], fd[b]), fd[a + b], fl[a, b]
        psi = tensor_dims(gd[a], gd[b]), gd[a + b], gl[a, b]
        if any(_product([_at(s(a + b), n), _at(phi, n)], p)
               != _product([_at(psi, n), _tensor_factor(s(a), s(b), n)], p) for n in phi[0]):
            out.append(("multiplicativity", (a, b)))
    if fe is not None and ge is not None and (
        _product([_at(s(1), 0), _at(({0: 1}, fd[1], fe), 0)], p)
        != _product([_at(({0: 1}, gd[1], ge), 0)], p)
    ):
        out.append(("unit-triangle", (1,)))
    return out


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


def random_complex_by_kron(rng, field, lo, hi, max_dim):
    """`sampling.random_complex` as it was first written: each differential M
    is drawn from the kernel of the Kronecker system (upper^T (x) I) vec(M) = 0,
    quadratic in the dimensions.  It uses the library's `Matrix` and
    `random_matrix`, and is the reference for the draw from the left kernel of
    upper, which must give the same complex and leave rng in the same state."""
    from cosegal.chain import ChainComplex
    from cosegal.field_linalg import Matrix
    from cosegal.sampling import random_matrix

    dims = {n: rng.randrange(max_dim + 1) for n in range(lo, hi + 1)}
    dims = {n: d for n, d in dims.items() if d}
    diff = {}
    for n in sorted(dims, reverse=True):
        rows, cols = dims.get(n - 1, 0), dims[n]
        if rows == 0:
            continue
        upper = diff.get(n + 1)
        if upper is None or upper.is_zero():
            m = random_matrix(rng, field, rows, cols)
        else:
            ker = upper.transpose().kron(Matrix.identity(field, rows)).kernel()
            vec = ker @ random_matrix(rng, field, ker.cols, 1)
            m = vec.reshape(cols, rows).transpose()
        if not m.is_zero():
            diff[n] = m
    return ChainComplex(field, dims, diff)


# ---------------------------------------------------------------------------
# dense Hom systems
# ---------------------------------------------------------------------------
#
# The Hom-space systems as the library first built them: every block a^T (x) b
# a dense Kronecker product, placed with `_assemble` and stacked, then
# eliminated as a dense matrix.  They read the coordinates (offsets, size) and
# the map (`unvec`) of the library's `chain._Hom` and solve with its `Matrix`;
# the reduced row echelon form is unique, so the sparse rows must give the
# same bases, lifts and random draws.


def _assemble(field, rows, cols, blocks):
    """The rows x cols sum of the blocks (i, j, Matrix), each placed with its
    top left entry at (i, j): field elements added in an object array, then
    read by the checked `Matrix(...)`."""
    import numpy as np

    from cosegal.field_linalg import Matrix

    out = np.zeros((rows, cols), dtype=object)
    for i, j, b in blocks:
        out[i : i + b.rows, j : j + b.cols] += b.data
    return Matrix(field, out)


def dense_hom_d0(hom):
    """The rows of d.k_n - k_{n-1}.d = 0 on `hom`'s coordinates."""
    from cosegal.field_linalg import Matrix

    s, t, fld = hom.source, hom.target, hom.field
    blocks, row = [], 0
    for n in sorted(set(hom.offsets) | {m + 1 for m in hom.offsets}):
        if n in hom.offsets:
            blocks.append((row, hom.offsets[n], Matrix.identity(fld, s.dim(n)).kron(t.d(n))))
        if n - 1 in hom.offsets:
            blk = -s.d(n).transpose().kron(Matrix.identity(fld, t.dim(n - 1)))
            blocks.append((row, hom.offsets[n - 1], blk))
        row += t.dim(n - 1) * s.dim(n)
    return _assemble(fld, row, hom.size, blocks)


def dense_hom_compose(hom, into, pre=None, post=None):
    """The matrix of k -> post.k.pre from `hom`'s coordinates to `into`'s."""
    from cosegal.field_linalg import Matrix

    fld, blocks = hom.field, []
    for n in into.offsets:
        if n in hom.offsets:
            s, t = hom.source.dim(n), hom.target.dim(n)
            a = Matrix.identity(fld, s) if pre is None else pre.component(n)
            b = Matrix.identity(fld, t) if post is None else post.component(n)
            blocks.append((into.offsets[n], hom.offsets[n], a.transpose().kron(b)))
    return _assemble(fld, into.size, hom.size, blocks)


def dense_hom_vec(hom, f):
    """The coordinate column of f."""
    blocks = [(o, 0, f.component(n).transpose().reshape(-1, 1)) for n, o in hom.offsets.items()]
    return _assemble(hom.field, hom.size, 1, blocks)


def _dense_block_diag(field, blocks):
    placed, i, j = [], 0, 0
    for b in blocks:
        placed.append((i, j, b))
        i, j = i + b.rows, j + b.cols
    return _assemble(field, i, j, placed)


def _dense_vstack(field, blocks):
    placed, i = [], 0
    for b in blocks:
        placed.append((i, 0, b))
        i += b.rows
    return _assemble(field, i, blocks[0].cols, placed)


def _unvec_column(hom, column):
    return hom.unvec(column.transpose())


def dense_chain_map_basis(source, target):
    from cosegal.chain import _Hom

    hom = _Hom(source, target)
    ker = dense_hom_d0(hom).kernel()
    return [_unvec_column(hom, ker[:, j : j + 1]) for j in range(ker.cols)]


def dense_random_chain_map(rng, source, target):
    """The first `sampling.random_chain_map`: one random coefficient per basis
    map, and each nonzero multiple added as a checked chain map."""
    from cosegal.chain import ChainMap
    from cosegal.sampling import random_element

    out = ChainMap.zero(source, target)
    for b in dense_chain_map_basis(source, target):
        c = random_element(rng, source.field)
        if c:
            out = out + ChainMap(source, target, {n: m.scale(c) for n, m in b.components.items()})
    return out


def dense_square_space_basis(alpha, g):
    from cosegal.chain import _Hom
    from cosegal.field_linalg import Matrix

    fld = alpha.field
    top, bottom = _Hom(alpha.source, g.source), _Hom(alpha.target, g.target)
    corner = _Hom(alpha.source, g.target)
    ker = _dense_vstack(fld, [
        _dense_block_diag(fld, [dense_hom_d0(top), dense_hom_d0(bottom)]),
        Matrix.hstack(fld, [
            dense_hom_compose(top, corner, post=g), -dense_hom_compose(bottom, corner, pre=alpha)
        ]),
    ]).kernel()
    return [
        (_unvec_column(top, ker[: top.size, j : j + 1]),
         _unvec_column(bottom, ker[top.size :, j : j + 1]))
        for j in range(ker.cols)
    ]


def dense_lifts(alpha, g, squares):
    """One lift per square from one dense system, or None if some square has none."""
    from cosegal.chain import _Hom
    from cosegal.field_linalg import Matrix

    fld = alpha.field
    hom = _Hom(alpha.target, g.source)
    at_top, at_bottom = _Hom(alpha.source, g.source), _Hom(alpha.target, g.target)
    d0 = dense_hom_d0(hom)
    system = _dense_vstack(fld, [
        d0, dense_hom_compose(hom, at_top, pre=alpha), dense_hom_compose(hom, at_bottom, post=g)
    ])
    zero = Matrix.zeros(fld, d0.rows, 1)
    rhs = Matrix.hstack(fld, [
        _dense_vstack(fld, [zero, dense_hom_vec(at_top, top), dense_hom_vec(at_bottom, bottom)])
        for top, bottom in squares
    ])
    sol = system.solve(rhs)
    if sol is None:
        return None
    return [_unvec_column(hom, sol[:, j : j + 1]) for j in range(len(squares))]


def dense_random_diagram_morphism(rng, f, g):
    """`sampling.random_diagram_morphism` on the dense naturality system."""
    from cosegal.chain import _Hom
    from cosegal.field_linalg import Matrix
    from cosegal.premonoid import DiagramMorphism, all_surjections_upto
    from cosegal.sampling import random_matrix

    field = f.field
    levels = range(1, f.level + 1)
    homs = [_Hom(f.objects[n], g.objects[n]) for n in levels]
    rows = [_dense_block_diag(field, [dense_hom_d0(h) for h in homs])]
    for v in all_surjections_upto(f.level):
        m, n = v.target_size, v.source_size
        into = _Hom(f.objects[m], g.objects[n])
        blocks = [Matrix.zeros(field, into.size, h.size) for h in homs]
        blocks[n - 1] = blocks[n - 1] + dense_hom_compose(homs[n - 1], into, pre=f.structure_map(v))
        blocks[m - 1] = blocks[m - 1] - dense_hom_compose(homs[m - 1], into, post=g.structure_map(v))
        rows.append(Matrix.hstack(field, blocks))
    ker = _dense_vstack(field, rows).kernel()
    coeffs = ker @ random_matrix(rng, field, ker.cols, 1)
    comps, off = {}, 0
    for n, h in zip(levels, homs):
        comps[n] = _unvec_column(h, coeffs[off : off + h.size, :])
        off += h.size
    return DiagramMorphism(f, g, comps)


# ---------------------------------------------------------------------------
# Kronecker tensors, cones and cylinders
# ---------------------------------------------------------------------------
#
# The differentials and maps of tensor products, cones and cylinders as the
# library first built them: each block its own `Matrix.kron` or signed
# factor, summed into place by `_assemble`.  The library writes its blocks in
# place, so the matrices must be equal.


def _kron_offsets(c, d, n):
    """{(i, j): offset} of the blocks c_i (x) d_j of (c (x) d)_n, by left
    degree ascending, and the dimension of (c (x) d)_n."""
    out, off = {}, 0
    for i in sorted(c.dims):
        if d.dim(n - i):
            out[(i, n - i)] = off
            off += c.dim(i) * d.dim(n - i)
    return out, off


def kron_tensor(c, d):
    """{degree: differential} of c (x) d: x (x) y -> dx (x) y + (-1)^i x (x) dy
    for x of degree i."""
    from cosegal.field_linalg import Matrix

    out = {}
    for n in {i + j for i in c.dims for j in d.dims}:
        (src, cols), (tgt, rows) = _kron_offsets(c, d, n), _kron_offsets(c, d, n - 1)
        blocks = []
        for (i, j), col in src.items():
            if (i - 1, j) in tgt:
                blk = c.d(i).kron(Matrix.identity(c.field, d.dim(j)))
                blocks.append((tgt[(i - 1, j)], col, blk))
            if (i, j - 1) in tgt:
                blk = Matrix.identity(c.field, c.dim(i)).kron(d.d(j)).scale((-1) ** (i % 2))
                blocks.append((tgt[(i, j - 1)], col, blk))
        out[n] = _assemble(c.field, rows, cols, blocks)
    return out


def kron_tensor_map(f, g):
    """{degree: component} of f (x) g: x (x) y -> f(x) (x) g(y)."""
    out = {}
    for n in {i + j for i in f.source.dims for j in g.source.dims}:
        src, cols = _kron_offsets(f.source, g.source, n)
        tgt, rows = _kron_offsets(f.target, g.target, n)
        blocks = [
            (tgt[(i, j)], col, f.component(i).kron(g.component(j)))
            for (i, j), col in src.items() if (i, j) in tgt
        ]
        out[n] = _assemble(f.field, rows, cols, blocks)
    return out


def kron_cone(f):
    """{degree: differential} of Cone(f)_n = A_{n-1} + B_n, with
    d(a, b) = (-da, -f(a) + db)."""
    a, b = f.source, f.target
    out = {}
    for n in {n + 1 for n in a.dims} | set(b.dims):
        ra, ca = a.dim(n - 2), a.dim(n - 1)
        out[n] = _assemble(f.field, ra + b.dim(n - 1), ca + b.dim(n), [
            (0, 0, a.d(n - 1).scale(-1)),
            (ra, 0, f.component(n - 1).scale(-1)),
            (ra, ca, b.d(n)),
        ])
    return out


def kron_cylinder(f):
    """({degree: differential} of Cyl(f)_n = A_n + A_{n-1} + B_n, with
    d(a, a', b) = (da - a', -da', f(a') + db); {degree: i_n}; {degree: p_n})
    for the inclusion i(a) = (a, 0, 0) and the projection
    p(a, a', b) = f(a) + b."""
    from cosegal.field_linalg import Matrix

    a, b, fld = f.source, f.target, f.field
    diff, inc, proj = {}, {}, {}
    for n in set(a.dims) | {n + 1 for n in a.dims} | set(b.dims):
        r0, r1, r2 = a.dim(n - 1), a.dim(n - 2), b.dim(n - 1)
        c0, c1, c2 = a.dim(n), a.dim(n - 1), b.dim(n)
        diff[n] = _assemble(fld, r0 + r1 + r2, c0 + c1 + c2, [
            (0, 0, a.d(n)),
            (0, c0, Matrix.identity(fld, c1).scale(-1)),
            (r0, c0, a.d(n - 1).scale(-1)),
            (r0 + r1, c0, f.component(n - 1)),
            (r0 + r1, c0 + c1, b.d(n)),
        ])
        inc[n] = _assemble(fld, c0 + c1 + c2, c0, [(0, 0, Matrix.identity(fld, c0))])
        proj[n] = _assemble(fld, c2, c0 + c1 + c2, [
            (0, 0, f.component(n)), (0, c0 + c1, Matrix.identity(fld, c2)),
        ])
    return diff, inc, proj


# ---------------------------------------------------------------------------
# the per-entry document codec
# ---------------------------------------------------------------------------
#
# Matrix rows as documents wrote and read them before the codec used the
# stored form: every entry of `Matrix.data` encoded on its own, and every
# entry decoded, coerced by `Field.coerce` and then read by
# `Matrix.from_rows`.  Its "a/b" parser is the old lenient one (" 1/2" and
# "1/" load), so it is a reference for the entries the writer emits and for
# the refusals of non-strings, not for the string grammar.


def oracle_matrix_rows(m):
    """The rows a document holds for the Matrix m."""

    def encode(x):
        if isinstance(x, Fraction):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return int(x)

    return [[encode(x) for x in row] for row in m.data.tolist()]


def oracle_matrix_from_rows(field, rows, ncols):
    """The Matrix of a document's rows; the first bad entry in row-major order
    raises the DocumentError that names it."""
    from cosegal.documents import DocumentError
    from cosegal.field_linalg import Matrix

    def decode(x):
        if isinstance(x, str) and field.is_rational:
            num, _, den = x.partition("/")
            try:
                return Fraction(int(num), int(den or "1"))
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad matrix entry {x!r}") from exc
        if isinstance(x, bool) or not isinstance(x, int):
            raise DocumentError(f"bad matrix entry {x!r}")
        return field.coerce(x)

    return Matrix.from_rows(field, [[decode(x) for x in r] for r in rows], cols=ncols)
