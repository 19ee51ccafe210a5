"""Workload definitions: the reference pools, the seeded corpus draw, the
operation each workload times and the correctness check on its output.

Every workload draws its corpus from a fixed pool of graphs
``random_graph(n, derive_seed(POOL_SEED, n, k))``, the same derivation
``dgscert table1`` uses for its samples.  The reference file holds, for each
pool graph, the facts this commit computes for it.  A run's ``--seed`` picks
a stratified sample of the pool's operations and the order in which they
run: every run takes the same number of operations from each stratum, so
runs with different seeds do the same amount of work of each kind.  A
stratum taken whole (``take`` at least the pool count) is the same for every
seed, and a stratum with ``take`` 0 is left out.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

POOL_SEED = 20211018
EFFORT = "default"
# the primes every invariants_large graph is reported on besides the small
# primes dividing det W: nullity 0 with residues of one and of two 30-bit digits
FIXED_PRIMES = (1000003, (1 << 61) - 1)
SMALL_PRIME_LIMIT = 100

DECIDED = ("DGS_BY_MAIN", "DGS_BY_SQF", "CONDITION_FAILS", "NOT_CONTROLLABLE")
UNDECIDED = "FACTORIZATION_INCOMPLETE"


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj``: equal digests, equal facts."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    """One timed operation: a pool graph plus, for per-prime work, a prime."""

    ref: dict  # the pool entry of the reference file
    graph: object
    prime: int | None = None

    @property
    def label(self) -> str:
        tail = "" if self.prime is None else f" p={self.prime}"
        return f"n={self.ref['n']} k={self.ref['k']}{tail}"


@dataclass(frozen=True)
class Workload:
    name: str
    pool_per_order: dict[int, int]
    # stratum of one operation (pool entry, prime or None), and how many
    # operations of a stratum with ``count`` members one pass takes
    stratum: Callable[[dict, int | None], str]
    take: Callable[[str, int], int]
    needs_sieve: bool
    needs_primes: bool

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.pool_per_order)


def _certify_stratum(entry: dict, prime: None) -> str:
    # from the reference facts only: "shortcut" is 4 | d_n (no odd factoring),
    # "partial" ran rho to its cap on some cofactor, "complete" is the rest
    if entry["failing_prime"] == "2":
        return f"{entry['n']}:shortcut"
    if entry["dn_cofactor"] not in (None, "1"):
        return f"{entry['n']}:partial"
    return f"{entry['n']}:complete"


def _prime_stratum(entry: dict, prime: int) -> str:
    return f"{entry['n']}:{'small' if prime < SMALL_PRIME_LIMIT else prime}"


WORKLOADS = {
    # A run repeats its pass several times and averages each operation's
    # latencies, so a pass must stay near a sixth of a run.  At n = 20 the
    # seed draws 1 of the rho-capped graphs (1.7-2.1 s each); the 50 4 | d_n
    # shortcut graphs (about 10 ms each, which puts the median among them),
    # the 19 complete factorizations (0.03-0.27 s) and the cheap n = 25 and
    # n = 30 graphs are taken whole.  The rho-capped graphs at n = 25 and
    # n = 30 (3-6 s each) are left out: one of them would be most of a pass.
    "certify_corpus": Workload(
        name="certify_corpus",
        pool_per_order={20: 80, 25: 8, 30: 4},
        stratum=_certify_stratum,
        take=lambda stratum, count: {"20:partial": 1, "25:partial": 0, "30:partial": 0}.get(stratum, count),
        needs_sieve=True,
        needs_primes=False,
    ),
    # three n = 48 chains (1.8-2.2 s each) drawn from twelve.  Larger orders
    # are left out: one n = 56 chain takes 6-7 s, most of a pass.
    "snf_large": Workload(
        name="snf_large",
        pool_per_order={48: 12},
        stratum=lambda entry, prime: str(entry["n"]),
        take=lambda stratum, count: 3,
        needs_sieve=False,
        needs_primes=False,
    ),
    # at each order one report on a small prime dividing det W and one on
    # each fixed prime (0.4-1.9 s each)
    "invariants_large": Workload(
        name="invariants_large",
        pool_per_order={48: 3, 56: 3, 64: 3},
        stratum=_prime_stratum,
        take=lambda stratum, count: 1,
        needs_sieve=False,
        needs_primes=True,
    ),
}


# ---------------------------------------------------------------------------
# corpus


def pool_graph(dg, n: int, k: int):
    return dg.random_graph(n, dg.derive_seed(POOL_SEED, n, k))


def _shuffled(dg, items: list, seed: int, *parts: int) -> list:
    """Fisher-Yates with the package's own xorshift64* stream."""
    rng = dg.Xorshift64Star(dg.derive_seed(seed, *parts))
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def select_primes(dg, det: int) -> list[int]:
    """The invariants_large primes of a graph with determinant ``det``."""
    small = [p for p in range(3, SMALL_PRIME_LIMIT, 2) if dg.is_prime(p) and det % p == 0]
    return small + list(FIXED_PRIMES)


def build_corpus(dg, wl: Workload, pool: list[dict], seed: int) -> list[Op]:
    """The seed's stratified draw from the pool, in the seed's order.

    Regenerates every drawn graph and checks it against the stored graph6.
    For per-prime work it does so for every pool graph, drawn or not, and
    recomputes det W and checks the prime set: how many distinct graphs a
    seed draws varies, and the set-up time should not.
    """
    strata: dict[str, list[tuple[dict, int | None]]] = {}
    for entry in pool:
        primes = [int(p) for p in entry["reports"]] if wl.needs_primes else [None]
        for p in primes:
            strata.setdefault(wl.stratum(entry, p), []).append((entry, p))
    drawn = []
    for idx, key in enumerate(sorted(strata)):
        members = strata[key]
        drawn.extend(_shuffled(dg, members, seed, 1, idx)[: wl.take(key, len(members))])
    graphs = {}
    for entry in pool if wl.needs_primes else (entry for entry, _ in drawn):
        key = (entry["n"], entry["k"])
        if key in graphs:
            continue
        g = graphs[key] = pool_graph(dg, *key)
        if dg.emit_graph6(g) != entry["g6"]:
            raise RuntimeError(f"pool graph n={key[0]} k={key[1]} differs from the reference")
        if wl.needs_primes:
            primes = select_primes(dg, dg.determinant(dg.walk_matrix(g)))
            if sorted(str(p) for p in primes) != sorted(entry["reports"]):
                raise RuntimeError(f"prime set of n={key[0]} k={key[1]} differs from the reference")
    return [Op(entry, graphs[entry["n"], entry["k"]], p) for entry, p in _shuffled(dg, drawn, seed, 2)]


# ---------------------------------------------------------------------------
# operations: each returns the output the check and the reference compare


def run_op(dg, wl: Workload, op: Op) -> dict:
    if wl.name == "certify_corpus":
        return dg.certify_dgs(op.graph, EFFORT).to_json_dict()
    if wl.name == "snf_large":
        # the `dgscert snf --json` path
        w = dg.walk_matrix(op.graph)
        det = dg.determinant(w)
        snf = dg.smith_normal_form(w)
        return {"det_W": str(det), "snf": [str(d) for d in snf.factors]}
    return dg.phi_report(op.graph, op.prime).to_json_dict()


def reference_entry(dg, wl: Workload, n: int, k: int) -> dict:
    """The facts of one pool graph, as stored in the reference file."""
    g = pool_graph(dg, n, k)
    entry = {"n": n, "k": k, "g6": dg.emit_graph6(g)}
    if wl.name == "certify_corpus":
        v = run_op(dg, wl, Op(entry, g))
        entry.update(
            status=v["status"],
            failing_prime=v["failing_prime"],
            dn_cofactor=v["dn_cofactor"],
            facts=digest([v["det_W"], v["snf"]]),
        )
    elif wl.name == "snf_large":
        out = run_op(dg, wl, Op(entry, g))
        entry["facts"] = digest([out["det_W"], out["snf"]])
    else:
        primes = select_primes(dg, dg.determinant(dg.walk_matrix(g)))
        entry["reports"] = {str(p): digest(run_op(dg, wl, Op(entry, g, p))) for p in primes}
    return entry


def check(dg, wl: Workload, op: Op, out: dict) -> str | None:
    """None when ``out`` proves the same facts as the reference, else why not."""
    ref = op.ref
    if wl.name == "certify_corpus":
        try:
            dg.certify.validate_verdict_dict(out)
        except ValueError as exc:
            return str(exc)
        if digest([out["det_W"], out["snf"]]) != ref["facts"]:
            return "det_W or snf differs from the reference"
        if ref["status"] in DECIDED and out["status"] != ref["status"]:
            return f"decided status {ref['status']} became {out['status']}"
        return None
    if wl.name == "snf_large":
        factors = [int(d) for d in out["snf"]]
        if any(b % a if a else b for a, b in zip(factors, factors[1:])):
            return "invariant factors break the divisibility chain"
        if math.prod(factors) != abs(int(out["det_W"])):
            return "product of invariant factors is not |det W|"
        if digest([out["det_W"], out["snf"]]) != ref["facts"]:
            return "det_W or snf differs from the reference"
        return None
    if digest(out) != ref["reports"][str(op.prime)]:
        return f"phi_report at p={op.prime} differs from the reference"
    return None
