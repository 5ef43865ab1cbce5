"""Independent oracles for the two bulk reports, over whole ranges.

The checks share no code with the package: ``lemma5_problems`` checks
``lemma5`` entries by quadratic reciprocity, and ``classes`` counts the
``groups`` listing of one order from a closed formula, with no roots, no
Chinese remainder theorem and no marking.  The package only produces what
they check.  ``lemma5_problems`` also checks a report piped to it::

    lensbordism lemma5 --min 5 --max 1000000 --format json | python -c '
    import json, sys; sys.path.insert(0, "tests")
    from test_oracles import lemma5_problems
    print(lemma5_problems(json.load(sys.stdin)["entries"]))'
"""

import json
from collections import Counter
from math import gcd, lcm, prod

import pytest

from lensbordism.cli import main
from lensbordism.groups import _presentations


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by the binary algorithm: the
    twos come out by (2/n) = -1 at n = 3, 5 mod 8, and reciprocity swaps
    a and n, with a sign change when both are 3 mod 4."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def lemma5_problems(entries) -> list[str]:
    """One line per failed check of the ``lemma5`` entries: the six weights
    are units in [1, p), their squares sum to Q and to R mod p, and either
    Q/R is a non-residue mod p and the certificate is Q/R mod p, or exactly
    one of Q and R is 0 mod p and the certificate is 0.  It does not check
    that the weights are the least ones."""
    problems = []
    for e in entries:
        p, q, r, certificate = e["p"], e["Q"] % e["p"], e["R"] % e["p"], e["certificate"]
        weights_a, weights_b = e["weights_a"], e["weights_b"]
        if not all(1 <= w < p for w in weights_a + weights_b):
            problems.append(f"p={p}: a weight outside [1, p)")
        if sum(w * w for w in weights_a) % p != q or sum(w * w for w in weights_b) % p != r:
            problems.append(f"p={p}: the squares do not sum to Q and R")
        if q and r:
            ratio = q * pow(r, -1, p) % p
            if jacobi(ratio, p) != -1:
                problems.append(f"p={p}: Q/R = {ratio} is a residue")
            if certificate != ratio:
                problems.append(f"p={p}: certificate {certificate} is not Q/R = {ratio}")
        elif q == r or certificate != 0:
            problems.append(f"p={p}: Q = {q}, R = {r} and certificate {certificate}")
    return problems


# A stage i entry (Q/R = 3 mod 5, a non-residue) and an entry whose Q
# vanishes (1 + 9 + 4 = 0 mod 7); each change below breaks one check.
GOOD = [
    {"p": 5, "weights_a": [1, 1, 1], "weights_b": [1, 1, 2], "Q": 3, "R": 6,
     "stage": "i", "certificate": 3, "brute_checked": True},
    {"p": 7, "weights_a": [1, 3, 2], "weights_b": [1, 1, 1], "Q": 14, "R": 3,
     "stage": "iv", "certificate": 0, "brute_checked": True},
]


@pytest.mark.parametrize(
    "good, change",
    [
        (0, {"weights_b": [1, 1, 7], "R": 51}),
        (0, {"weights_a": [1, 1, 3]}),
        (0, {"certificate": 2}),
        (0, {"weights_b": [1, 1, 1], "R": 3, "certificate": 1}),
        (1, {"certificate": 1}),
        (1, {"weights_b": [1, 3, 2], "R": 14}),
    ],
    ids=["weight-out-of-range", "wrong-squares", "wrong-certificate", "residue", "zero-certificate",
         "both-zero"],
)
def test_reciprocity_oracle_flags_a_tampered_entry(good, change):
    assert lemma5_problems(GOOD) == []
    assert len(lemma5_problems([dict(GOOD[good], **change)])) == 1


def test_jacobi_is_the_legendre_symbol_at_small_primes():
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        assert [jacobi(a, p) for a in range(p)] == [0] + [
            1 if a in squares else -1 for a in range(1, p)
        ]


def test_lemma5_entries_pass_the_reciprocity_oracle(capsys):
    code = main(["lemma5", "--min", "5", "--max", "100000", "--format", "json"])
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert code == 0
    assert len(entries) == 9590
    assert lemma5_problems(entries) == []


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def mobius(n: int) -> int:
    exponents = factor(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def phi(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factor(n).items())


def classes(order: int) -> int:
    """The number of classes (m, n, <r>) of the odd ``order`` = m*n.

    m = 1 gives one.  Otherwise m is the product of a set of exact prime
    powers p_i**e_i of the order, and the admissible r are the elements of
    the product of the cyclic groups of orders d_i = gcd(n, p_i - 1) with
    every component nontrivial (none when some d_i is 1).  Of these,
    F(s) = prod(gcd(s, d_i) - 1) have r**s = 1, so by Moebius inversion
    G(t) have exact order t, and the classes are the cyclic subgroups:
    the sum of G(t) / phi(t) over the t dividing lcm(d_i).
    """
    powers = [(p, p**e) for p, e in factor(order).items()]
    count = 1
    for subset in range(1, 2 ** len(powers)):
        chosen = [pq for i, pq in enumerate(powers) if subset >> i & 1]
        n = order // prod(q for _, q in chosen)
        ds = [gcd(n, p - 1) for p, _ in chosen]
        if 1 in ds:
            continue
        ts = divisors(lcm(*ds))
        fixed = {s: prod(gcd(s, d) - 1 for d in ds) for s in ts}
        for t in ts:
            exact = sum(mobius(t // s) * fixed[s] for s in ts if t % s == 0)
            assert exact % phi(t) == 0, (order, chosen, t)
            count += exact // phi(t)
    return count


def test_classes_by_hand():
    # 21: the cyclic group and m = 7 with r of order 3; 63: the same with
    # n = 9.  273 = 3 * 7 * 13: the cyclic group, one class each at m = 7
    # and m = 13, and two at m = 91, where d = (3, 3) gives 4 admissible r
    # in 2 subgroups <r>
    assert [classes(k) for k in (1, 3, 15, 21, 63, 273)] == [1, 1, 1, 2, 2, 5]


def test_groups_listing_matches_the_class_count_at_every_order():
    max_order = 10**5
    listed = Counter(m * n for m, n, _, _ in _presentations(max_order))
    counted = {order: classes(order) for order in range(1, max_order + 1, 2)}
    assert dict(listed) == counted
    assert sum(counted.values()) == 83511
