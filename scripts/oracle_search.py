#!/usr/bin/env python3
"""Independent cross-check for the relation search at q = 2, v = t, N = 6.

The scope is depth <= 3 and weight <= 6 unless --depth-max and --weight-max
widen it.  Everything here is computed from scratch with bit-packed GF(2)[t]
arithmetic and bitset Gaussian elimination -- no imports from the package.
Run it at the default scope to reproduce the numbers frozen in the
acceptance suite: nullspace dimension, universal-span dimension,
containment, residual.
"""

import argparse
import itertools

M = 6  # precision: work mod t^M
MASK = (1 << M) - 1


def clmul(a: int, b: int) -> int:
    """Carryless (GF(2)) polynomial product of bit-packed polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def mul_mod(a: int, b: int) -> int:
    return clmul(a, b) & MASK


def inv_mod(a: int) -> int:
    """Inverse mod t^M of a unit (constant term 1), by Newton iteration:
    in characteristic 2, x -> a*x^2 squares the error 1 + a*x."""
    assert a & 1
    x = 1
    for _ in range(M.bit_length()):
        x = clmul(a, clmul(x, x)) & MASK
    assert mul_mod(a & MASK, x) == 1
    return x


def power_mod(a: int, e: int) -> int:
    out = 1
    a &= MASK
    while e:
        if e & 1:
            out = mul_mod(out, a)
        a = mul_mod(a, a)
        e >>= 1
    return out


def coprime_power_sum(d: int, k: int) -> int:
    """Sum over monic a of degree d with a(0) = 1 of a^(-k), mod t^M."""
    if d == 0:
        return 1
    total = 0
    for mid in range(1 << (d - 1)):
        a = (1 << d) | (mid << 1) | 1
        if k >= 0:
            total ^= power_mod(inv_mod(a & MASK), k)
        else:
            total ^= power_mod(a, -k)
    return total


def vadic_value(entries, D):
    """Nested chain sum with top index < D, literal recursion."""
    def rec(pos, upper):
        if pos == len(entries):
            return 1 if pos else 0
        total = 0
        for d in range(upper - 1, len(entries) - pos - 2, -1):
            total ^= mul_mod(S[(d, entries[pos])], rec(pos + 1, d))
        return total

    S_local = {}
    for d in range(D):
        for k in set(entries):
            S_local[(d, k)] = coprime_power_sum(d, k)
    global S
    S = S_local
    return rec(0, D)


def enumerate_tuples(weight_max, depth_max):
    out = []
    for depth in range(1, depth_max + 1):
        for entries in itertools.product(range(1, weight_max + 1), repeat=depth):
            if sum(entries) <= weight_max:
                out.append(entries)
    out.sort(key=lambda e: (len(e), e))
    return out


def bitset_rank(rows):
    rows = [r for r in rows if r]
    rank = 0
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def universal_vectors(tuples, weight_max, depth_max):
    index = {t: i for i, t in enumerate(tuples)}
    vecs = []

    def to_vec(tuple_list):
        v = 0
        for t in tuple_list:
            v ^= 1 << index[t]
        return v

    # alternating permutation family (all signs are 1 over GF(2))
    for n in range(1, depth_max + 1, 2):
        for combo in itertools.combinations(range(1, weight_max + 1), n):
            if sum(combo) > weight_max:
                continue
            terms = []
            for perm in itertools.permutations(combo):
                terms.append(perm)
            # distinct entries: n! distinct orderings, each coefficient 1
            vecs.append(to_vec(terms))

    # doubling family over multiplicity pairs
    for phi in range(2, depth_max + 1):
        for s0 in itertools.combinations_with_replacement(
                range(1, weight_max + 1), phi):
            if sum(s0) > weight_max:
                continue
            base = sorted(set(s0))
            mult = {s: s0.count(s) for s in base}
            labels = set(base) | {2 * s for s in base if mult[s] > 1}
            if len(labels) != len(base) + sum(1 for s in base if mult[s] > 1):
                continue
            terms = []
            for s in base:
                if mult[s] > 1:
                    fused = list(s0)
                    fused.remove(s)
                    fused.remove(s)
                    fused.append(2 * s)
                    terms.extend(set(itertools.permutations(fused)))
            if phi % 2:
                terms.extend(set(itertools.permutations(s0)))
            # cancel duplicates mod 2 via xor in to_vec
            if any(sum(t) > weight_max or t not in index for t in terms):
                continue
            v = 0
            for t in terms:
                v ^= 1 << index[t]
            if v:
                vecs.append(v)
    return vecs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weight-max", type=int, default=6)
    parser.add_argument("--depth-max", type=int, default=3)
    args = parser.parse_args()
    weight_max, depth_max, D = args.weight_max, args.depth_max, 13
    tuples = enumerate_tuples(weight_max, depth_max)
    print(f"tuples: {len(tuples)}")

    # sanity: coprime power sums of degree > M vanish mod t^M
    for d in range(M + 1, M + 5):
        for k in (1, 2, 3):
            assert coprime_power_sum(d, k) == 0, (d, k)
    print(f"power sums of degree > {M} vanish mod t^{M}: confirmed")

    values = [vadic_value(t, D) for t in tuples]
    # columns -> nullspace dimension via rank of the M x len(tuples) matrix
    rows = []
    for bit in range(M):
        r = 0
        for j, val in enumerate(values):
            if (val >> bit) & 1:
                r |= 1 << j
        rows.append(r)
    rank = bitset_rank(rows)
    dim_found = len(tuples) - rank
    print(f"value-matrix rank: {rank}")
    print(f"nullspace dimension (dim_found): {dim_found}")

    uni = universal_vectors(tuples, weight_max, depth_max)
    dim_universal = bitset_rank(uni)
    print(f"universal-span dimension: {dim_universal}")

    # containment: every universal vector orthogonal complement check --
    # verify each universal vector lies in the nullspace: M @ v == 0.
    contained = True
    for v in uni:
        for r in rows:
            if bin(v & r).count("1") % 2:
                contained = False
    print(f"containment: {contained}")
    print(f"residual: {dim_found - dim_universal}")


if __name__ == "__main__":
    main()
