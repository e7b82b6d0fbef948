"""Deterministic primality and seeded prime sampling for the modular paths."""

from __future__ import annotations

import random

# Deterministic Miller-Rabin witnesses, valid for all n < 3,215,031,751.
_WITNESSES = (2, 3, 5, 7)
# random_primes samples [PRIME_LO, PRIME_HI), which must stay below that bound
PRIME_LO, PRIME_HI = 2 ** 30, 2 ** 31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_primes(count: int, seed: int) -> list[int]:
    """Distinct primes in [PRIME_LO, PRIME_HI), reproducible from the seed."""
    rng = random.Random(seed)
    found: list[int] = []
    while len(found) < count:
        n = rng.randrange(PRIME_LO, PRIME_HI) | 1
        while not is_prime(n):
            n += 2
        if n < PRIME_HI and n not in found:
            found.append(n)
    return found


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
