"""Input pools for the three workloads, and the seeded draw of one pass.

Each workload has a fixed *pool* of argv lists, generated once from
POOL_SEED by ``make_goldens.py`` and pinned in ``goldens/<workload>.json.gz``
together with the exit code and stdout the program gave for it.  A benchmark
run draws one *pass* from the pool with ``--seed``.  Every stratum (a kind of
input) puts the same number of inputs into every pass, and within a stratum
``make_goldens.py`` sorts the inputs by recorded cost into that many equal
*bands*; a pass takes one input from each band.  Two seeds thus give
different inputs with nearly the same distribution of cost, which keeps the
spread of the timings across seeds small.

Entries are dicts: ``argv`` (the program's arguments), ``stratum``, ``band``
and, for log-growth, ``primes``/``k`` (the expected term count is
C(k + len(primes), len(primes))).
"""

from __future__ import annotations

import gzip
import json
import math
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
POOL_SEED = 20090911
WORKLOADS = ("cli-mix", "log-growth", "validate")

# README examples, minus ``validate`` (it has its own workload and is the
# only subcommand that reaches the oracle).
README_ARGVS = [
    ["integrate", "1 on {0<y1<1, 0<y2<y1}", "--vars", "2"],
    ["integrate", "y2^(-1/2) on {0<y1<1, 0<y2<y1}", "--vars", "2"],
    ["integrate", "log(y2) on {0<y1<1, 0<y2<y1}"],
    ["check-integrability", "y1^(-1) on {0<y1<1}"],
    ["decay-rate", "x1^(-1/3) * log(x1) on {2 < x1 < inf}"],
    ["sliver", "1 on {0<x1<1, x1^(2) < x2 < x1}", "--json"],
    ["eval", "3/2 * y1^(-1/2) * log(y1)^2 on {0<y1<1}", "--at", "1/4"],
    ["prepare", "log(4 * x1^(1/2)) on {0<x1<1}", "--json"],
]

# cli-mix strata: name -> inputs per pass.  "-json" strata add --json; the
# pool holds POOL_FACTOR times as many of each generated stratum.
CLI_MIX_PER_PASS = {
    "readme": len(README_ARGVS),
    "usage": 4,
}
for _kind, _n in [("integrate-partial", 12), ("integrate-full", 12), ("check", 12),
                  ("decay", 7), ("sliver", 7), ("eval", 7), ("prepare", 8),
                  ("refusal", 4)]:
    CLI_MIX_PER_PASS[f"{_kind}-text"] = _n
    CLI_MIX_PER_PASS[f"{_kind}-json"] = _n
POOL_FACTOR = 4

# log-growth strata: (label, source template, primes a, power k, inputs per
# pass).  Every input's prepared and integrated term count is C(k + a, a),
# from 15 to 3003.  Strata of similar cost sit around the median and the
# 75th percentile, so those figures do not jump from one stratum to the next
# with the seed.
T_1V = "{mono}log({P}*y1)^{k} on {{0<y1<1}}"
T_2V_INNER = "{mono}log({P}*y2)^{k} on {{0<y1<1, 0<y2<y1}}"
T_2V_OUTER = "y2 * {mono}log({P}*y1)^{k} on {{0<y1<1, 0<y2<y1}}"
T_2V_BOX = "{mono}log({P}*y1)^{k} on {{0<y1<1, 0<y2<1}}"
LOG_GROWTH_STRATA = [
    ("1v-a2-k4", T_1V, 2, 4, 2),
    ("2v-inner-a2-k4", T_2V_INNER, 2, 4, 2),
    ("1v-a3-k3", T_1V, 3, 3, 2),
    ("2v-outer-a2-k5", T_2V_OUTER, 2, 5, 2),
    ("1v-a2-k6", T_1V, 2, 6, 1),
    ("2v-box-a3-k4", T_2V_BOX, 3, 4, 2),
    ("2v-outer-a3-k4", T_2V_OUTER, 3, 4, 2),
    ("1v-a4-k4", T_1V, 4, 4, 2),
    ("2v-box-a4-k4", T_2V_BOX, 4, 4, 2),
    ("1v-a5-k4", T_1V, 5, 4, 2),
    ("1v-a3-k4", T_1V, 3, 4, 2),
    ("2v-inner-a3-k4", T_2V_INNER, 3, 4, 2),
    ("1v-a4-k5", T_1V, 4, 5, 2),
    ("2v-outer-a3-k6", T_2V_OUTER, 3, 6, 2),
    ("2v-inner-a4-k4", T_2V_INNER, 4, 4, 2),
    ("2v-inner-a3-k5", T_2V_INNER, 3, 5, 2),
    ("2v-box-a3-k6", T_2V_BOX, 3, 6, 1),
    ("1v-a4-k6", T_1V, 4, 6, 2),
    ("1v-a6-k4", T_1V, 6, 4, 3),
    ("2v-box-a5-k6", T_2V_BOX, 5, 6, 1),
    ("1v-a6-k6", T_1V, 6, 6, 1),
]
# pool inputs per input in a pass
LOG_GROWTH_VARIANTS = 4
# The ROADMAP's headline case, in every pass (text or --json by seed).
ANCHOR = "log(30030*y1)^8 on {0<y1<1}"

# validate seeds vary about 3x in cost
VALIDATE_PER_PASS = 48
VALIDATE_POOL = 192

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# centers inside (0,1): log(y1 - c) has no dominant monomial there (exit 3)
SHIFTS = [Fraction(n, d) for d in (2, 3, 4, 5) for n in range(1, d)
          if math.gcd(n, d) == 1]


def _paren_rat(q: Fraction) -> str:
    return f"({q})"


# --- cli-mix -----------------------------------------------------------------

# Monomial-bounded chain cells inside (0,1)^n, in source syntax.
CELLS = {
    1: [
        "{0<y1<1}",
        "{0<y1<1/2}",
        "{0<y1<1/4}",
    ],
    2: [
        "{0<y1<1, 0<y2<y1}",
        "{0<y1<1, 0<y2<1}",
        "{0<y1<1, 0<y2<y1^(2)}",
        "{0<y1<1, y1^(2)<y2<y1}",
        "{0<y1<1, 0<y2<1/4*y1}",
        "{0<y1<1/2, 0<y2<y1}",
    ],
    3: [
        "{0<y1<1, 0<y2<y1, 0<y3<y2}",
        "{0<y1<1, 0<y2<1, 0<y3<y1*y2}",
        "{0<y1<1, 0<y2<y1, 0<y3<1}",
        "{0<y1<1, 0<y2<y1^(2), 0<y3<y1}",
    ],
}

COEFFS = [Fraction(n, d) for n in (1, 2, 3) for d in (1, 2, 3)]
EXPS = [Fraction(k, 2) for k in range(-1, 5)] + [Fraction(1, 3), Fraction(2, 3)]
# last-variable exponents <= -1 make the sum non-integrable in that variable
CHECK_EXPS = EXPS + [Fraction(-1), Fraction(-3, 2), Fraction(-2)]


def _monomial_log_sum(rng: random.Random, nvars: int,
                      last_exps: list[Fraction] = EXPS) -> str:
    """A sum of 1..3 terms c * y^r * log(y)^l, the last variable's exponent
    drawn from last_exps."""
    parts = []
    for idx in range(rng.randint(1, 3)):
        coeff = rng.choice(COEFFS)
        factors = []
        for i in range(nvars):
            r = rng.choice(last_exps if i == nvars - 1 else EXPS)
            if r != 0:
                factors.append(f"y{i + 1}^{_paren_rat(r)}")
        if rng.random() < 0.5:
            pos = rng.randrange(nvars)
            power = rng.randint(1, 2)
            factors.append(f"log(y{pos + 1})" + (f"^{power}" if power > 1 else ""))
        if rng.random() < 0.15:
            factors.append(f"log({rng.choice(SMALL_PRIMES[:4])}*y{nvars})")
        body = " * ".join([str(coeff)] + factors if coeff != 1 or not factors
                          else factors)
        sign = "-" if rng.random() < 0.3 else "+"
        if idx == 0:
            parts.append(("-" if sign == "-" else "") + body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _source(rng: random.Random, nvars: int,
            last_exps: list[Fraction] = EXPS) -> str:
    return f"{_monomial_log_sum(rng, nvars, last_exps)} on {rng.choice(CELLS[nvars])}"


def _fmt_flag(rng: random.Random) -> list[str]:
    return ["--json"] if rng.random() < 0.5 else []


def _cli_mix_entry(rng: random.Random, stratum: str) -> list[str]:
    if stratum.endswith(("-text", "-json")):
        argv = _cli_mix_entry(rng, stratum[:-5])
        return argv + ["--json"] if stratum.endswith("-json") else argv
    if stratum == "integrate-partial":
        nv = rng.choice([1, 2, 2, 3, 3])
        m = rng.randint(1, max(1, nv - 1))
        return ["integrate", _source(rng, nv), "--vars", str(m)]
    if stratum == "integrate-full":
        # 1-2 variables: test_goldens.py checks every constant by nested
        # quadrature, which is too slow in three dimensions
        nv = rng.choice([1, 2, 2])
        return ["integrate", _source(rng, nv), "--vars", str(nv)]
    if stratum == "check":
        nv = rng.choice([1, 2, 3])
        return ["check-integrability", _source(rng, nv, CHECK_EXPS)]
    if stratum == "decay":
        r = rng.choice([Fraction(-1, 3), Fraction(-1, 2), Fraction(-2), Fraction(-3, 2), Fraction(-1)])
        lp = rng.randint(0, 2)
        c = rng.choice(COEFFS)
        lower = rng.choice([2, 3, 4])
        body = f"{c} * x1^{_paren_rat(r)}" + (f" * log(x1)" + (f"^{lp}" if lp > 1 else "") if lp else "")
        if rng.random() < 0.4:
            body += f" + x1^{_paren_rat(r - rng.choice([Fraction(1, 2), Fraction(1)]))}"
        return ["decay-rate", f"{body} on {{{lower} < x1 < inf}}"]
    if stratum == "sliver":
        nv = rng.choice([1, 2, 2, 3])
        return ["sliver", _source(rng, nv)]
    if stratum == "eval":
        nv = rng.choice([1, 2])
        src = _source(rng, nv)
        # a point strictly inside every cell in CELLS
        pts = {1: "1/8", 2: "1/8,1/64"}[nv]
        return ["eval", src, "--at", pts]
    if stratum == "prepare":
        nv = rng.choice([1, 2])
        if rng.random() < 0.5:
            p = rng.choice([6, 10, 30, 210])
            k = rng.randint(1, 3)
            src = f"log({p}*y{nv})^{k} on {rng.choice(CELLS[nv])}"
        else:
            src = _source(rng, nv)
        return ["prepare", src]
    if stratum == "refusal":
        kind = rng.randrange(3)
        c = rng.choice(SHIFTS)
        if kind == 0:
            return ["prepare", f"log(y1 - {c}) on {{0<y1<1}}"]
        if kind == 1:
            return ["integrate", f"log(y1 - {c}) on {{0<y1<1}}"]
        lo = rng.choice([2, 3, 5, 7])
        r = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)])
        return ["integrate", f"x1^{_paren_rat(r)} on {{{lo}<x1<{lo + 1}}}"]
    if stratum == "usage":
        nv = rng.choice([1, 2])
        if rng.random() < 0.5:
            return ["integrate", _source(rng, nv), "--vars", str(nv + 1)]
        return ["integrate", f"0.{rng.randint(1, 9)} * {_source(rng, nv)}"]
    raise ValueError(stratum)


def cli_mix_pool(rng: random.Random) -> list[dict]:
    pool = [{"argv": argv, "stratum": "readme"} for argv in README_ARGVS]
    for stratum, per_pass in CLI_MIX_PER_PASS.items():
        if stratum == "readme":
            continue
        seen = set()
        for _ in range(100 * per_pass * POOL_FACTOR):
            if len(seen) == per_pass * POOL_FACTOR:
                break
            argv = _cli_mix_entry(rng, stratum)
            key = tuple(argv)
            if key in seen:
                continue
            seen.add(key)
            pool.append({"argv": argv, "stratum": stratum})
        else:
            raise RuntimeError(f"stratum {stratum} has too few distinct inputs")
    return pool


# --- log-growth --------------------------------------------------------------

MONOMIALS = ["", "y1^(1/2) * ", "y1 * ", "y1^(-1/2) * ", "y1^(2) * ", "y1^(1/3) * "]


def _log_growth_entry(argv: list[str], stratum: str, primes, k: int) -> dict:
    return {"argv": argv, "stratum": stratum, "primes": list(primes), "k": k}


def log_growth_pool(rng: random.Random) -> list[dict]:
    pool = [
        _log_growth_entry(["integrate", ANCHOR] + fmt, "anchor-a6-k8",
                          SMALL_PRIMES[:6], 8)
        for fmt in ([], ["--json"])
    ]
    for label, template, a, k, count in LOG_GROWTH_STRATA:
        seen = set()
        while len(seen) < LOG_GROWTH_VARIANTS * count:
            primes = sorted(rng.sample(SMALL_PRIMES[:7], a))
            src = template.format(mono=rng.choice(MONOMIALS),
                                  P=math.prod(primes), k=k)
            if src in seen:
                continue
            seen.add(src)
            nv = src.count("<") // 2
            pool.append(_log_growth_entry(
                ["integrate", src, "--vars", str(nv)] + _fmt_flag(rng),
                label, primes, k))
    return pool


# --- validate ----------------------------------------------------------------


def validate_pool(rng: random.Random) -> list[dict]:
    seeds = rng.sample(range(10_000), VALIDATE_POOL)
    pool = []
    for i, s in enumerate(seeds):
        fmt = ["--json"] if i % 2 else []
        pool.append({"argv": ["validate", "--seed", str(s)] + fmt,
                     "stratum": "validate-json" if fmt else "validate-text"})
    return pool


def make_pool(workload: str) -> list[dict]:
    rng = random.Random(f"{POOL_SEED}-{workload}")
    return {"cli-mix": cli_mix_pool, "log-growth": log_growth_pool,
            "validate": validate_pool}[workload](rng)


# --- goldens and drawing one pass ---------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_goldens(workload: str) -> list[dict]:
    """The workload's pool entries with their recorded exit code and stdout."""
    with gzip.open(golden_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["entries"]



def per_pass_counts(workload: str) -> dict[str, int]:
    if workload == "cli-mix":
        return dict(CLI_MIX_PER_PASS)
    if workload == "log-growth":
        counts = {label: n for label, _, _, _, n in LOG_GROWTH_STRATA}
        counts["anchor-a6-k8"] = 1
        return counts
    return {"validate-text": VALIDATE_PER_PASS // 2,
            "validate-json": VALIDATE_PER_PASS // 2}


def draw_pass(pool: list[dict], workload: str, seed: int) -> list[int]:
    """Indices into ``pool`` for one pass: one input per (stratum, band),
    drawn and shuffled with ``seed``."""
    rng = random.Random(f"{workload}-{seed}")
    bands: dict[tuple[str, int], list[int]] = {}
    for i, entry in enumerate(pool):
        bands.setdefault((entry["stratum"], entry["band"]), []).append(i)
    chosen = [rng.choice(bands[key]) for key in sorted(bands)]
    rng.shuffle(chosen)
    return chosen
