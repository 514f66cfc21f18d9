"""Job lists for the three benchmark workloads.

A job is one `dsumm` command line plus, for every subcommand but `battery`,
the text of the config file it reads.  Everything seeded (band parameters
and expression coefficients) is drawn here from the workload seed with the
standard library's Mersenne Twister, so the same seed gives the same files
on every platform; the program only ever sees the generated configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("battery", "sequences", "kernels")

# Seed whose outputs are stored in golden/ and compared byte for byte.
DEFAULT_SEED = 1
BATTERY_DEFAULT_SEED = 20240801

PLAIN_CORPUS = ("e", "zero", "impulse", "boos", "alt-col", "checkerboard")
PARAMETRIC_CORPUS = ("k-over-rt", "alt-k-over-rt", "alt-col-preimage")
SPACES = (
    "Mu", "Cp", "Cbp", "Cr", "Cf", "Cf0", "SCf", "SCf0",
    "BCf", "BCf0", "BSCf", "BSCf0", "almost-cauchy",
)
NORMS = ("sup", "window", "strong", "banded-strong", "lq")
SUITES = (
    "cbp-conservative", "cbp-regular", "strong-to-bp", "almost-conservative",
    "almost-regular", "strongly-regular", "strong-almost-to-almost", "Cf-to-Mu",
)
B_DOMAIN = ("BSCf_to_Cf", "BSCf_to_Mu", "BSCf_to_Cbp", "SCf_to_BMu", "SCf_to_BCbp")
SIDES_WIDE = "8 16 32 64 128"
NORM_SUBJECTS = ("boos", "alt-col", "checkerboard", "alt-col-preimage", "expr1", "expr2")
STAGE_SETS = {"s32": "8 16 32", "s64": "16 32 64"}


@dataclass(frozen=True)
class Job:
    """One CLI call: `dsumm <argv...> --config <file>` when `config` is set."""

    job_id: str
    argv: tuple
    config: Optional[str]
    expected_exit: int


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    mag = rng.uniform(lo, hi)
    return f"{mag if rng.random() < 0.5 else -mag:.4f}"


def band_params(rng: random.Random) -> dict:
    """r, s, t, u with inverse ratios of modulus in [0.1, 0.9], so folds stay finite."""
    r = float(_coef(rng, 0.5, 2.0))
    t = float(_coef(rng, 0.5, 2.0))
    sigma = float(_coef(rng, 0.1, 0.9))
    tau = float(_coef(rng, 0.1, 0.9))
    return {"r": f"{r:.4f}", "s": f"{-sigma * r:.6f}", "t": f"{t:.4f}", "u": f"{-tau * t:.6f}"}


def expressions(rng: random.Random) -> dict:
    """Three seeded sequences: a null one, a convergent one, one that reads r and t."""
    a, b, c, d = (_coef(rng, 0.25, 2.0) for _ in range(4))
    return {
        "expr1": f"{a}*(-1)^(k+l)/(k+l+1)",
        "expr2": f"{b} + {c}/(k+1) - {d}/(l+2)^2",
        "expr3": f"(-1)^l*(k+1)/(k+2) + {a}*r/t",
    }


def dual_expression(rng: random.Random) -> str:
    """A summable coefficient sequence for the dual suites."""
    a, b = (_coef(rng, 0.25, 2.0) for _ in range(2))
    return f"{a}*2^(-k-l) + {b}*(-1)^k/((k+1)^2*(l+1)^2)"


def _config(sections) -> str:
    chunks = []
    for name, pairs in sections:
        lines = [f"[{name}]"] + [f"{key} = {value}" for key, value in pairs]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _sequence_section(kind: str, value: str):
    return ("sequence", (("corpus" if kind == "corpus" else "expr", value),))


def _params_section(p: dict):
    return ("params", tuple(p.items()))


def _job(job_id, op, sections, fmt="text", expected_exit=0) -> Job:
    sections = list(sections) + [("output", (("format", fmt),))]
    return Job(job_id, (op,), _config(sections), expected_exit)


def battery_jobs(seed: int) -> list:
    rng = random.Random(f"battery:{seed}")
    seeds = [BATTERY_DEFAULT_SEED] + [rng.randrange(1, 10**8) for _ in range(3)]
    # Items 9, 10 and 11 are red by design, so the battery exits 1.
    return [
        Job(f"battery/{i}", ("battery", "--seed", str(s)), None, 1)
        for i, s in enumerate(seeds)
    ]


def sequence_jobs(seed: int) -> list:
    rng = random.Random(f"sequences:{seed}")
    params = _params_section(band_params(rng))
    exprs = expressions(rng)
    subjects = [(name, "corpus", name) for name in PLAIN_CORPUS + PARAMETRIC_CORPUS]
    subjects += [(key, "expr", text) for key, text in exprs.items()]
    # subjects that read r, s, t or u themselves
    banded = set(PARAMETRIC_CORPUS) | {"expr3"}
    schedule = ("schedule", (("sides", SIDES_WIDE),))

    def sections(label, kind, value, needs_params, *rest):
        out = [_sequence_section(kind, value)]
        return out + ([params] if needs_params or label in banded else []) + list(rest)

    jobs = []
    for label, kind, value in subjects:
        for space in SPACES:
            jobs.append(_job(
                f"verdict/{label}/{space}", "verdict",
                sections(label, kind, value, space.startswith("B"), schedule,
                         ("operation", (("op", "verdict"), ("space", space)))),
            ))
    for label, kind, value in subjects:
        # The O(side^4) window norms run on half the subjects, which keeps
        # them near a third of a pass instead of crowding out the verdicts.
        if label in NORM_SUBJECTS:
            for norm in NORMS:
                jobs.append(_job(
                    f"norm/{label}/{norm}", "norm",
                    sections(label, kind, value, norm == "banded-strong", schedule,
                             ("operation", (("op", "norm"), ("norm", norm)))),
                    fmt="json",
                ))
        for kernel in ("b", "f", "cesaro", "identity"):
            jobs.append(_job(
                f"transform/{label}/{kernel}", "transform",
                sections(label, kind, value, kernel in ("b", "f"),
                         ("kernel", (("name", kernel),)), schedule,
                         ("operation", (("op", "transform"),))),
                fmt="csv",
            ))
    return jobs


def kernel_jobs(seed: int) -> list:
    rng = random.Random(f"kernels:{seed}")
    p = band_params(rng)
    a_expr = dual_expression(rng)
    x_expr = expressions(rng)["expr2"]
    jobs = []
    for tag, sides in STAGE_SETS.items():
        schedule = ("schedule", (("sides", sides),))
        for kernel in ("cesaro", "f", "identity", "b"):
            needs = [_params_section(p)] if kernel in ("f", "b") else []
            for suite in SUITES:
                jobs.append(_job(
                    f"check/{tag}/{kernel}/{suite}", "check",
                    [("kernel", (("name", kernel),))] + needs
                    + [schedule, ("operation", (("op", "check"), ("class", suite)))],
                ))
        for cls in B_DOMAIN:
            jobs.append(_job(
                f"check/{tag}/cesaro/{cls}", "check",
                [("kernel", (("name", "cesaro"),)), _params_section(p), schedule,
                 ("operation", (("op", "check"), ("class", cls)))],
            ))
        for label, kind, value in (
            ("impulse", "corpus", "impulse"),
            ("alt-col", "corpus", "alt-col"),
            ("expr", "expr", a_expr),
        ):
            for which in ("beta", "gamma"):
                jobs.append(_job(
                    f"dual/{tag}/{label}/{which}", "dual",
                    [_sequence_section(kind, value), _params_section(p), schedule,
                     ("operation", (("op", "dual"), ("which", which)))],
                    fmt="json",
                ))
    for kernel, base, side in (("d", None, "64"), ("e", "cesaro", "64"), ("g", "cesaro", "32")):
        kernel_pairs = (("name", kernel),) + ((("base", base),) if base else ())
        seq = _sequence_section("expr", a_expr if kernel == "d" else x_expr)
        jobs.append(_job(
            f"transform/{kernel}/side{side}", "transform",
            [seq, ("kernel", kernel_pairs), _params_section(p),
             ("schedule", (("sides", side),)), ("operation", (("op", "transform"),))],
        ))
    return jobs


_BUILDERS = {"battery": battery_jobs, "sequences": sequence_jobs, "kernels": kernel_jobs}


def jobs_for(workload: str, seed: int) -> list:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed)
