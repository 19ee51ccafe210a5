"""The DGS certification pipeline.

A verdict is a proof object, not a guess: DGS statuses are only issued when
every arithmetic fact they rest on has been established exactly, and the
full evidence chain (invariant factors, factorizations, per-prime reports)
travels with the verdict for offline audit.  Partial factorizations never
silently pass as squarefree.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources

from . import specinv
from .errors import InvariantViolation
from .graphcore import Graph
from .ntheory import FactorizationResult, _check_effort, _odd_part, _two_adic_valuation, factor_integer
from .specinv import PhiReport
from .zlinalg import SnfResult, smith_normal_form, walk_matrix

STATUS_DGS_BY_MAIN = "DGS_BY_MAIN"
STATUS_NOT_CONTROLLABLE = "NOT_CONTROLLABLE"
STATUS_CONDITION_FAILS = "CONDITION_FAILS"
STATUS_FACTORIZATION_INCOMPLETE = "FACTORIZATION_INCOMPLETE"

RULE_MAIN = "squarefree-dn-with-matching-degrees"

SQF_PASS = "PASS"
SQF_FAIL = "FAIL"
SQF_UNKNOWN = "UNKNOWN"
SQF_NOT_RUN = "NOT_RUN"


@dataclass(frozen=True)
class DgsVerdict:
    """Certification outcome plus the evidence that justifies it."""

    status: str
    rule: str | None
    n: int
    det_w: int
    snf: SnfResult
    dn_factorization: FactorizationResult | None
    per_prime: tuple[PhiReport, ...]
    failing_prime: int | None
    sqf_check: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def dn(self) -> int:
        return self.snf.dn

    @property
    def certified(self) -> bool:
        return self.status == STATUS_DGS_BY_MAIN

    def dn_squarefree(self) -> bool | None:
        if self.dn_factorization is None:
            return None
        return self.dn_factorization.squarefree()

    def to_json_dict(self) -> dict:
        fact = self.dn_factorization
        # one string per distinct invariant factor, most of which are 1 or 2:
        # a corpus run may hold thousands of these dicts
        text = {d: str(d) for d in set(self.snf.factors)}
        return {
            "status": self.status,
            "rule": self.rule,
            "n": self.n,
            "det_W": str(self.det_w),
            "snf": [text[d] for d in self.snf.factors],
            "dn": text[self.dn],
            "dn_factors": None if fact is None else [[str(p), e] for p, e in fact.prime_powers],
            "dn_cofactor": None if fact is None else str(fact.cofactor),
            "primes": [rep.to_json_dict() for rep in self.per_prime],
            "failing_prime": None if self.failing_prime is None else str(self.failing_prime),
            "notes": "; ".join(self.notes),
        }


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean", type(None): "null"}


@functools.cache
def _verdict_schema() -> dict:
    return json.loads(resources.files("dgscert").joinpath("data/verdict_schema.json").read_text(encoding="utf-8"))


def _check_schema(x, schema: dict, path: str = "") -> None:
    """Check ``x`` against ``schema``, a JSON Schema that uses only the
    keywords of data/verdict_schema.json.  A pattern must match the whole
    string, and a bool is not an integer.

    >>> _check_schema("12\\n", {"pattern": "^[0-9]+$"})
    Traceback (most recent call last):
    ...
    ValueError: verdict schema violation: the verdict does not match ^[0-9]+$
    """

    def fail(msg: str):
        raise ValueError(f"verdict schema violation: {path or 'the verdict'} {msg}")

    kind = _JSON_TYPES.get(type(x))
    types = schema.get("type")
    if types is not None and kind not in (types if isinstance(types, list) else [types]):
        fail(f"is not of type {types}")
    if "enum" in schema and x not in schema["enum"]:
        fail(f"is not one of {schema['enum']}")
    if kind == "string" and "pattern" in schema and not re.fullmatch(schema["pattern"], x):
        fail(f"does not match {schema['pattern']}")
    if kind == "integer" and not schema.get("minimum", x) <= x <= schema.get("maximum", x):
        fail("is out of range")
    if kind == "array":
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            fail("has the wrong length")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(x):
            _check_schema(item, prefix[i] if i < len(prefix) else schema.get("items", {}), f"{path}[{i}]")
    if kind == "object":
        props = schema.get("properties", {})
        if missing := [k for k in schema.get("required", []) if k not in x]:
            fail(f"lacks keys {missing}")
        if schema.get("additionalProperties") is False and (extra := [k for k in x if k not in props]):
            fail(f"has unknown keys {extra}")
        for key, sub in props.items():
            if key in x:
                _check_schema(x[key], sub, f"{path}.{key}" if path else key)


def validate_verdict_dict(data: dict) -> None:
    """Check a serialized verdict against the shipped schema,
    data/verdict_schema.json, read on the first call.  Raises ValueError on
    the first mismatch."""
    _check_schema(data, _verdict_schema())


def _expected_sqf_shape(n: int, odd_det: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    half = n // 2
    return (1,) * (n - half) + (2,) * (half - 1) + (2 * odd_det,)


def _prime_report(g: Graph, snf: SnfResult, p: int) -> PhiReport:
    """``specinv.phi_report(g, p)``, checked against the invariant factors:
    the nullity of W mod p is the number of d_i divisible by p."""
    rep = specinv.phi_report(g, p)
    nullity_snf = sum(1 for d in snf.factors if d % p == 0)
    if rep.nullity != nullity_snf:
        raise InvariantViolation(f"rank-based nullity {rep.nullity} disagrees with the invariant factors at p={p}")
    return rep


def _half_determinant_rule(n: int, det: int, snf: SnfResult, dn_fact: FactorizationResult) -> str:
    """The half-determinant rule: PASS iff det W = +-2^floor(n/2) * b with b
    odd, squarefree and fully factored; UNKNOWN when b's factorization stays
    partial; FAIL otherwise.  b is the odd part of d_n whenever the 2-adic
    valuation of det W and the odd part of d_{n-1} leave the answer open.

    On PASS the invariant-factor chain must take the rigid shape
    [1, ..., 1, 2, ..., 2, 2b]; a mismatch is an internal error.
    """
    v2 = _two_adic_valuation(det)
    if v2 < n // 2:
        raise InvariantViolation("2-adic valuation of det W below floor(n/2)")
    if v2 > n // 2:
        return SQF_FAIL
    # the odd part of det W is prod of the odd parts of the invariant
    # factors, and every d_i divides d_n: squarefree forces the first n-1
    # odd parts to be 1 and the last to be squarefree.  At least floor(n/2)
    # of the d_i are even, so v2(det W) = floor(n/2) leaves v2(d_n) <= 1,
    # and d_n is squarefree exactly when its odd part is
    if n >= 2 and _odd_part(snf.factors[-2]) != 1:
        return SQF_FAIL
    sf = dn_fact.squarefree()
    if sf is None:
        return SQF_UNKNOWN
    if not sf:
        return SQF_FAIL
    if snf.factors != _expected_sqf_shape(n, _odd_part(abs(det))):
        raise InvariantViolation("squarefree half-determinant without the rigid invariant-factor shape")
    return SQF_PASS


def certify_dgs(g: Graph, effort: str = "default") -> DgsVerdict:
    """Run the full certification pipeline on one graph.

    Steps: controllability, invariant factors, deterministic factorization
    of the last invariant factor d_n, squarefreeness of d_n, and for every
    odd prime factor the degree condition deg sfp = nullity (primes whose
    nullity is 1 satisfy it automatically).  The half-determinant rule runs
    alongside and reports as ``sqf_check``; it can never certify a graph the
    main rule misses, and that containment is enforced as an internal check.

    Every odd prime examined gets its full ``PhiReport`` in the verdict, in
    ascending order up to the first one that fails, so a DGS_BY_MAIN verdict
    holds one report per odd prime of d_n.  An unknown effort level raises
    ValueError before any work is done.
    """
    _check_effort(effort)
    n = g.n
    snf = smith_normal_form(walk_matrix(g))
    det = snf.det_sign * snf.abs_det()
    notes: list[str] = []
    if det == 0:
        return DgsVerdict(
            STATUS_NOT_CONTROLLABLE, None, n, 0, snf, None, (), None, SQF_NOT_RUN,
            ("walk matrix is singular; no certification possible",),
        )
    dn = snf.dn
    count_2mod4 = sum(1 for d in snf.factors if d % 4 == 2)
    if count_2mod4 > n // 2:
        raise InvariantViolation("more than floor(n/2) invariant factors are 2 mod 4")

    v2_dn = _two_adic_valuation(dn)
    if v2_dn >= 2:
        # 4 | d_n settles everything without touching the odd part: d_n is
        # not squarefree, and the half-determinant rule reads FAIL from
        # v2(det W) > floor(n/2) before it reads the factorization.
        # Skipping the factorization here makes the large-order experiment
        # runs several times faster.
        dn_fact = FactorizationResult(((2, v2_dn),), dn >> v2_dn)
    else:
        dn_fact = factor_integer(dn, effort)
    sqf_status = _half_determinant_rule(n, det, snf, dn_fact)

    def finish(status: str, rule: str | None, reports, failing) -> DgsVerdict:
        if status != STATUS_DGS_BY_MAIN and sqf_status == SQF_PASS:
            raise InvariantViolation("half-determinant rule passed but the d_n rule did not")
        notes.append(f"half-determinant rule: {sqf_status}")
        return DgsVerdict(status, rule, n, det, snf, dn_fact, tuple(reports), failing, sqf_status, tuple(notes))

    if dn_fact.squarefree() is None:
        notes.append(f"unfactored cofactor {dn_fact.cofactor} blocks the squarefreeness decision")
        return finish(STATUS_FACTORIZATION_INCOMPLETE, None, (), None)
    if dn_fact.squarefree() is False:
        repeated = next((p for p, e in dn_fact.prime_powers if e >= 2), None)
        if repeated is None:
            # only a composite that rho could not split divides d_n twice
            c, k = next((c, k) for c, k in dn_fact.unfactored if k >= 2)
            notes.append(f"d_n is not squarefree: the unfactored composite {c} divides it to the power {k}")
        else:
            skipped = " (odd part left unfactored)" if v2_dn >= 2 else ""
            notes.append(f"d_n is not squarefree: {repeated}^2 divides it{skipped}")
        return finish(STATUS_CONDITION_FAILS, None, (), repeated)

    if dn % 4 == 2:
        notes.append("d_n = 2 (mod 4): any conjugating rational orthogonal matrix has odd level")

    reports: list[PhiReport] = []
    for p in dn_fact.primes():
        if p == 2:
            continue
        rep = _prime_report(g, snf, p)
        if rep.nullity == 1 and not rep.eq_degrees_match:
            raise InvariantViolation(f"nullity 1 must force a degree-1 squarefree part at p={p}")
        reports.append(rep)
        if not rep.eq_degrees_match:
            return finish(STATUS_CONDITION_FAILS, None, reports, p)
    return finish(STATUS_DGS_BY_MAIN, RULE_MAIN, reports, None)
