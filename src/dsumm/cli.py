"""Command line front end.

Six subcommands: transform, verdict, norm, check, dual, and battery.  All
but battery read a config file; the report goes to stdout as text, JSON,
or CSV.  Floats are printed with 17 significant digits in every format so
reports are reproducible byte for byte.  Exit codes: 0 on success, 1 when
the battery has a failing item, 2 for usage or config problems.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time

from . import __version__
from .seqcore import DoubleSequence, Truncation, corpus, lq_norm, norm_Cf, norm_strong, sup_abs
from .matrix4d import (
    BParams,
    FourDimMatrix,
    apply,
    b_kernel,
    b_transform,
    cesaro_kernel,
    d_kernel,
    e_kernel,
    f_kernel,
    g_kernel,
    identity_kernel,
    inverse_transform,
    norm_BCf,
    zero_kernel,
)
from .convergence import (
    SPACE_TAGS,
    ToleranceConfig,
    TruncationSchedule,
    almost_cauchy,
    membership,
)
from .classcheck import (
    B_DOMAIN_CLASS_IDS,
    DUAL_CONDITION_IDS,
    beta_dual_report,
    check_B_domain_class,
    check_Cf_to_Mu,
    check_almost_conservative,
    check_almost_regular,
    check_cbp_conservative,
    check_cbp_regular,
    check_strong_almost_to_almost,
    check_strong_to_bp,
    check_strongly_regular,
    diagonal_set,
    dual_membership,
    first_row_set,
    full_plane_set,
    gamma_dual_report,
)
from .config import Config, ConfigError, parse_config
from .expr import ExprError, expr_sequence
from .battery import BATTERY_SEED, run_all

__all__ = ["main"]

_WIDE_SIDES = (8, 16, 32, 64, 128)
_CHECK_SIDES = (8, 16, 32)

_DELTA_PARAMS = BParams(1, -1, 1, -1)

_PARAMETRIC_CORPUS = ("k-over-rt", "alt-k-over-rt", "alt-col-preimage")

_SET_BUILDERS = {
    "diagonal": diagonal_set,
    "first-row": first_row_set,
    "full-plane": full_plane_set,
}

_SUITES = {
    "cbp-conservative": lambda A, E, stages, tol: check_cbp_conservative(A, stages, tol),
    "cbp-regular": lambda A, E, stages, tol: check_cbp_regular(A, stages, tol),
    "strong-to-bp": lambda A, E, stages, tol: check_strong_to_bp(A, (E,), stages, tol),
    "almost-conservative": lambda A, E, stages, tol: check_almost_conservative(A, stages, tol),
    "almost-regular": lambda A, E, stages, tol: check_almost_regular(A, stages, tol),
    "strongly-regular": lambda A, E, stages, tol: check_strongly_regular(A, stages, tol),
    "strong-almost-to-almost": lambda A, E, stages, tol: check_strong_almost_to_almost(
        A, (E,), stages, tol
    ),
    "Cf-to-Mu": lambda A, E, stages, tol: check_Cf_to_Mu(A, stages, tol),
}


# ---------------------------------------------------------------------------
# builders

def _params_from(cfg: Config) -> BParams:
    for key in ("r", "s", "t", "u"):
        cfg.require("params", key)
    return BParams(
        r=cfg.get_float("params", "r"),
        s=cfg.get_float("params", "s"),
        t=cfg.get_float("params", "t"),
        u=cfg.get_float("params", "u"),
    )


def _maybe_params(cfg: Config):
    if any(cfg.has("params", key) for key in ("r", "s", "t", "u")):
        return _params_from(cfg)
    return None


def _tolerance_from(cfg: Config) -> ToleranceConfig:
    kwargs = {}
    for key in ("decision_tol", "exact_tol", "trend_ratio"):
        if cfg.has("tolerance", key):
            kwargs[key] = cfg.get_float("tolerance", key)
    return ToleranceConfig(**kwargs)


def _sides_from(cfg: Config, default, stage_max) -> tuple:
    sides = cfg.get_int_list("schedule", "sides", list(default))
    if stage_max is not None:
        sides = [s for s in sides if s <= stage_max]
    if not sides:
        raise ConfigError("stage cap leaves no usable stage sides")
    return tuple(sides)


def _sequence_from(cfg: Config) -> DoubleSequence:
    if cfg.has("sequence", "corpus"):
        name = cfg.require("sequence", "corpus")
        if name in _PARAMETRIC_CORPUS:
            return corpus(name, _params_from(cfg))
        return corpus(name)
    if cfg.has("sequence", "expr"):
        return expr_sequence(cfg.require("sequence", "expr"), _maybe_params(cfg))
    raise ConfigError("missing [sequence]: give either corpus or expr")


def _kernel_from(cfg: Config, name=None) -> FourDimMatrix:
    name = name if name is not None else cfg.require("kernel", "name")
    if name == "cesaro":
        return cesaro_kernel()
    if name == "identity":
        return identity_kernel()
    if name == "zero":
        return zero_kernel()
    if name == "delta":
        return b_kernel(_DELTA_PARAMS)
    if name == "b":
        return b_kernel(_params_from(cfg))
    if name == "f":
        return f_kernel(_params_from(cfg))
    if name == "d":
        return d_kernel(_sequence_from(cfg), _params_from(cfg))
    if name in ("e", "g"):
        base_name = cfg.require("kernel", "base")
        if base_name in ("e", "g"):
            # kernel.base is one key, so a derived base would read itself forever
            raise ConfigError(
                f"kernel.base = {base_name} names a derived kernel; the base of e and g "
                "must be one of b, f, delta, cesaro, identity, zero, d"
            )
        base = _kernel_from(cfg, base_name)
        builder = e_kernel if name == "e" else g_kernel
        return builder(base, _params_from(cfg))
    raise ConfigError(
        f"unknown kernel name {name!r}; known: b, f, delta, cesaro, identity, zero, d, e, g"
    )


def _index_set_from(cfg: Config):
    name = cfg.get("operation", "set", "diagonal")
    if name not in _SET_BUILDERS:
        raise ConfigError(
            f"unknown index set {name!r}; known: {', '.join(sorted(_SET_BUILDERS))}"
        )
    return _SET_BUILDERS[name]()


# ---------------------------------------------------------------------------
# operations

def _run_transform(cfg: Config, stage_max) -> dict:
    sides = _sides_from(cfg, _WIDE_SIDES, stage_max)
    side = max(sides)
    tr = Truncation(side, side)
    x = _sequence_from(cfg)
    name = cfg.require("kernel", "name")
    mode = cfg.get("operation", "kind", "bp")
    if name == "b":
        y = b_transform(x, _params_from(cfg))
        exact = True
    elif name == "delta":
        y = b_transform(x, _DELTA_PARAMS)
        exact = True
    elif name == "f":
        y = inverse_transform(x, _params_from(cfg))
        exact = True
    else:
        result = apply(_kernel_from(cfg), x, mode, tr)
        y = result.sequence
        exact = result.exact
    g = y.grid(tr.M, tr.N)
    corner = min(7, tr.M), min(7, tr.N)
    return {
        "op": "transform",
        "kernel": name,
        "sequence": x.name,
        "truncation": [tr.M, tr.N],
        "exact": exact,
        "sup_abs": float(abs(g).max()),
        "corner": [
            [float(g[m, n]) for n in range(corner[1] + 1)] for m in range(corner[0] + 1)
        ],
    }


def _run_verdict(cfg: Config, stage_max) -> dict:
    sides = _sides_from(cfg, _WIDE_SIDES, stage_max)
    schedule = TruncationSchedule.squares(sides)
    tol = _tolerance_from(cfg)
    x = _sequence_from(cfg)
    space = cfg.require("operation", "space")
    if space == "almost-cauchy":
        v = almost_cauchy(x, schedule, tol)
    elif space in SPACE_TAGS:
        v = membership(x, space, _maybe_params(cfg), schedule, tol)
    else:
        raise ConfigError(
            f"unknown space {space!r}; known: almost-cauchy, {', '.join(SPACE_TAGS)}"
        )
    return {
        "op": "verdict",
        "space": space,
        "sequence": x.name,
        "decision": v.decision,
        "candidate_limit": v.candidate_limit,
        "bound": v.bound,
        "mode": v.mode,
        "residual_trace": [
            {"M": tr.M, "N": tr.N, "value": value} for tr, value in v.residual_trace
        ],
    }


_NORMS = ("sup", "window", "strong", "banded-strong", "lq")


def _run_norm(cfg: Config, stage_max) -> dict:
    sides = _sides_from(cfg, _WIDE_SIDES, stage_max)
    side = max(sides)
    tr = Truncation(side, side)
    x = _sequence_from(cfg)
    name = cfg.get("operation", "norm", "sup")
    if name == "sup":
        value = sup_abs(x, tr)
    elif name == "window":
        value = norm_Cf(x, tr)
    elif name == "strong":
        value = norm_strong(x, tr)
    elif name == "banded-strong":
        value = norm_BCf(x, _params_from(cfg), tr)
    elif name == "lq":
        value = lq_norm(x, tr, cfg.get_float("operation", "q", 1.0))
    else:
        raise ConfigError(f"unknown norm {name!r}; known: {', '.join(_NORMS)}")
    out = {
        "op": "norm",
        "norm": name,
        "sequence": x.name,
        "truncation": [tr.M, tr.N],
        "value": value,
    }
    if name == "lq":
        out["q"] = cfg.get_float("operation", "q", 1.0)
    return out


def _condition_payload(cond) -> dict:
    return {
        "condition_id": cond.condition_id,
        "verdict": cond.verdict,
        "trend": [{"stage": int(s), "value": float(v)} for s, v in cond.trend],
        "constants": dict(cond.constants),
    }


def _run_check(cfg: Config, stage_max) -> dict:
    stages = _sides_from(cfg, _CHECK_SIDES, stage_max)
    tol = _tolerance_from(cfg)
    class_id = cfg.require("operation", "class")
    A = _kernel_from(cfg)
    E = _index_set_from(cfg)
    if class_id in _SUITES:
        rep = _SUITES[class_id](A, E, stages, tol)
    elif class_id in B_DOMAIN_CLASS_IDS:
        rep = check_B_domain_class(A, class_id, _params_from(cfg), stages, tol, (E,))
    else:
        known = ", ".join(list(_SUITES) + list(B_DOMAIN_CLASS_IDS))
        raise ConfigError(f"unknown class {class_id!r}; known: {known}")
    return {
        "op": "check",
        "class": rep.class_id,
        "kernel": cfg.require("kernel", "name"),
        "stages": list(stages),
        "overall": rep.overall,
        "conditions": [_condition_payload(c) for c in rep.conditions],
    }


def _run_dual(cfg: Config, stage_max) -> dict:
    stages = _sides_from(cfg, _CHECK_SIDES, stage_max)
    tol = _tolerance_from(cfg)
    which = cfg.require("operation", "which")
    a = _sequence_from(cfg)
    p = _params_from(cfg)
    E = _index_set_from(cfg)
    out = {"op": "dual", "which": which, "sequence": a.name, "stages": list(stages)}
    if which == "beta":
        rep = beta_dual_report(a, p, stages, tol, E)
        out["overall"] = rep.overall
        out["conditions"] = [_condition_payload(c) for c in rep.conditions]
    elif which == "gamma":
        rep = gamma_dual_report(a, p, stages, tol)
        out["overall"] = rep.overall
        out["conditions"] = [_condition_payload(c) for c in rep.conditions]
    elif which in DUAL_CONDITION_IDS:
        cond = dual_membership(a, which, p, stages, tol, E)
        out["overall"] = cond.verdict
        out["conditions"] = [_condition_payload(cond)]
    else:
        known = ", ".join(list(DUAL_CONDITION_IDS) + ["beta", "gamma"])
        raise ConfigError(f"unknown dual condition {which!r}; known: {known}")
    return out


def _run_battery(seed: int) -> dict:
    items = run_all(seed)
    return {
        "op": "battery",
        "seed": seed,
        "overall_pass": all(item.passed for item in items),
        "failed_items": [item.number for item in items if not item.passed],
        "items": [
            {
                "number": item.number,
                "item_id": item.item_id,
                "passed": item.passed,
                "checks": [{"label": label, "ok": ok} for label, ok in item.checks],
            }
            for item in items
        ],
    }


# ---------------------------------------------------------------------------
# rendering

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return format(value, ".17g")
        return "Infinity" if value > 0 else ("-Infinity" if value < 0 else "NaN")
    return str(value)


def _dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {_json_string(key)}: {_dump_json(value, indent + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_dump_json(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return _json_string(obj)


def _json_string(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _render_text(doc: dict) -> str:
    results = doc["results"]
    op = results["op"]
    lines = []
    if op == "battery":
        lines.append(f"battery seed {results['seed']}")
        for item in results["items"]:
            status = "PASS" if item["passed"] else "FAIL"
            lines.append(f"{item['number']:02d} {item['item_id']}: {status}")
            for check in item["checks"]:
                lines.append(f"   {'ok' if check['ok'] else 'FAIL'}: {check['label']}")
        if results["overall_pass"]:
            lines.append("overall: PASS")
        else:
            failed = ", ".join(str(n) for n in results["failed_items"])
            lines.append(f"overall: FAIL (items {failed})")
    elif op == "transform":
        lines.append(
            f"transform {results['kernel']} applied to {results['sequence']} "
            f"on {results['truncation'][0]}x{results['truncation'][1]}"
        )
        lines.append(f"exact: {_fmt(results['exact'])}")
        lines.append(f"sup_abs: {_fmt(results['sup_abs'])}")
        lines.append("corner:")
        for row in results["corner"]:
            lines.append("  " + " ".join(_fmt(v) for v in row))
    elif op == "verdict":
        lines.append(f"verdict {results['space']} for {results['sequence']}")
        lines.append(f"decision: {results['decision']}")
        lines.append(f"candidate: {_fmt(results['candidate_limit'])}")
        if results["bound"] is not None:
            lines.append(f"bound: {_fmt(results['bound'])}")
        lines.append("residuals:")
        for row in results["residual_trace"]:
            lines.append(f"  {row['M']}x{row['N']}: {_fmt(row['value'])}")
    elif op == "norm":
        lines.append(
            f"norm {results['norm']} of {results['sequence']} "
            f"on {results['truncation'][0]}x{results['truncation'][1]}"
        )
        lines.append(f"value: {_fmt(results['value'])}")
    else:  # check and dual share a report shape
        head = results.get("class") or results.get("which")
        subject = results.get("kernel") or results.get("sequence")
        lines.append(f"{op} {head} on {subject}")
        lines.append(f"stages: {' '.join(str(s) for s in results['stages'])}")
        lines.append(f"overall: {results['overall']}")
        for cond in results["conditions"]:
            trend = " ".join(f"{row['stage']}:{_fmt(row['value'])}" for row in cond["trend"])
            lines.append(f"  {cond['condition_id']}: {cond['verdict']} [{trend}]")
            for key, value in cond["constants"].items():
                lines.append(f"    {key} = {_fmt(value)}")
    if doc["timing"] is not None:
        lines.append(f"timing: {_fmt(doc['timing'])}s")
    return "\n".join(lines) + "\n"


def _render_csv(doc: dict) -> str:
    results = doc["results"]
    op = results["op"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "field1", "field2", "field3"])
    writer.writerow(["meta", "op", op, ""])
    writer.writerow(["meta", "version", doc["version"], ""])
    if op == "battery":
        writer.writerow(["meta", "seed", str(results["seed"]), ""])
        writer.writerow(["meta", "overall_pass", _fmt(results["overall_pass"]), ""])
        for item in results["items"]:
            writer.writerow(
                ["item", str(item["number"]), item["item_id"], _fmt(item["passed"])]
            )
            for check in item["checks"]:
                writer.writerow(
                    ["check", str(item["number"]), _fmt(check["ok"]), check["label"]]
                )
    elif op == "transform":
        writer.writerow(["meta", "kernel", results["kernel"], ""])
        writer.writerow(["meta", "sequence", results["sequence"], ""])
        writer.writerow(["meta", "sup_abs", _fmt(results["sup_abs"]), ""])
        for m, row in enumerate(results["corner"]):
            for n, value in enumerate(row):
                writer.writerow(["grid", str(m), str(n), _fmt(value)])
    elif op == "verdict":
        writer.writerow(["meta", "space", results["space"], ""])
        writer.writerow(["meta", "sequence", results["sequence"], ""])
        writer.writerow(["meta", "decision", results["decision"], ""])
        writer.writerow(["meta", "candidate", _fmt(results["candidate_limit"]), ""])
        for row in results["residual_trace"]:
            writer.writerow(["trace", str(row["M"]), str(row["N"]), _fmt(row["value"])])
    elif op == "norm":
        writer.writerow(["meta", "norm", results["norm"], ""])
        writer.writerow(["meta", "sequence", results["sequence"], ""])
        writer.writerow(["meta", "value", _fmt(results["value"]), ""])
    else:
        head = results.get("class") or results.get("which")
        writer.writerow(["meta", "subject", head, ""])
        writer.writerow(["meta", "overall", results["overall"], ""])
        for cond in results["conditions"]:
            writer.writerow(["condition", cond["condition_id"], cond["verdict"], ""])
            for row in cond["trend"]:
                writer.writerow(
                    ["trend", cond["condition_id"], str(row["stage"]), _fmt(row["value"])]
                )
            for key, value in cond["constants"].items():
                writer.writerow(["constant", cond["condition_id"], key, _fmt(value)])
    return buf.getvalue()


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(doc) + "\n"
    if fmt == "csv":
        return _render_csv(doc)
    return _render_text(doc)


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsumm",
        description="Banded difference transforms and summability verdicts for double sequences.",
    )
    parser.add_argument("--version", action="version", version=f"dsumm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("transform", "apply a kernel to a sequence and print the corner"),
        ("verdict", "decide membership of a sequence in a named space"),
        ("norm", "evaluate one of the truncation norms"),
        ("check", "run a matrix-class condition suite on a kernel"),
        ("dual", "run dual-set conditions on a coefficient sequence"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--format", choices=("text", "json", "csv"), default=None)
        p.add_argument("--stage-max", type=int, default=None, help="drop stages above this side")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p = sub.add_parser("battery", help="run the 12-item verification battery")
    p.add_argument("--seed", type=int, default=BATTERY_SEED)
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)
    p.add_argument("--timing", action="store_true")
    return parser


_RUNNERS = {
    "transform": _run_transform,
    "verdict": _run_verdict,
    "norm": _run_norm,
    "check": _run_check,
    "dual": _run_dual,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "battery":
            cfg = Config()
            results = _run_battery(args.seed)
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            declared = cfg.get("operation", "op")
            if declared is not None and declared != args.command:
                raise ConfigError(
                    f"config says op = {declared} but the subcommand is {args.command}"
                )
            results = _RUNNERS[args.command](cfg, args.stage_max)
    except (ConfigError, ExprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timing = time.perf_counter() - started if args.timing else None
    fmt = args.format or cfg.get("output", "format", "text")
    if fmt not in ("text", "json", "csv"):
        print(f"error: unknown output format {fmt!r}", file=sys.stderr)
        return 2
    doc = {
        "config": {name: dict(kv) for name, kv in cfg.sections.items()},
        "version": __version__,
        "results": results,
        "timing": timing,
    }
    sys.stdout.write(_render(doc, fmt))
    if args.command == "battery" and not results["overall_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
