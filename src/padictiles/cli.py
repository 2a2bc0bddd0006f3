"""Command-line surface: set algebra, deciders, constructors, verification, census.

Exit codes: 0 success/verified; 1 usage or parse error; 2 a property failed
(not a tile, not spectral, not homogeneous, FailedAt, failed construction);
3 insufficient window or inconsistent truncation evidence.

All output is deterministic for a fixed invocation: iteration orders are
canonical, the only randomness is the --seed value (default 0), and machine
output (--json, JSON-lines files) is emitted with sorted keys.  No colors,
no environment configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from pathlib import Path

from .copen import (
    CompactOpenSet,
    EmptySet,
    _frame_branching_set,
    _int_field,
    autocorrelation,
    indicator_fourier,
    is_p_homogeneous,
    normalize_set,
)
from .decide import (
    Census,
    ConstructionFailed,
    DigitSet,
    EquivalenceViolation,
    _census_rows,
    _tally,
    complement_from_homogeneity,
    is_spectral_zmod,
    is_tile_zmod,
    spectrum_from_homogeneity,
)
from .padic import Ball, PrimeContext, ScopeTooLarge, _MAX_Q, _check_exp
from .pairs import (
    NotASpectrumEvidence,
    UniformDiscreteSet,
    WindowTooSmall,
    _rat,
    density,
    lifted_spectrum,
    spectrum_to_tiling_complement,
    uniformity_check,
    verify_spectral_pair,
    verify_tiling_pair,
    zero_bound_check,
    zero_sphere_scan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_WINDOW = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human)


def _load_json(text: str, flag: str):
    """json.loads, with malformed or too deeply nested text a ValueError naming the flag."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{flag}: invalid JSON at position {e.pos}: {e.msg}")
    except RecursionError:
        raise ValueError(f"{flag}: JSON nested too deeply to read")


def _int_or_text(entry: str):
    try:
        return int(entry)
    except ValueError:
        return entry.strip()


def _parse_fraction(value, flag: str) -> Fraction:
    text = str(value)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{flag}: cannot parse {text!r} as a rational a/b ({e})")


def _parse_list(text: str, flag: str, item) -> list:
    """A comma list or a JSON array, element i read by item(value, f"{flag}[i]"): a comma entry
    as an int when it reads as one and as its text otherwise, so _int_field refuses the text."""
    text = text.strip()
    if text.startswith("["):
        return [item(v, f"{flag}[{i}]") for i, v in enumerate(_load_json(text, flag))]
    return [item(_int_or_text(part), f"{flag}[{i}]") for i, part in enumerate(text.split(",")) if part.strip()]


def _parse_levels(text: str, flag: str) -> list[int]:
    """'a:b' is the inclusive integer range, of at most _MAX_Q levels; otherwise a comma list."""
    text = text.strip()
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"{flag}: cannot parse range {text!r} as A:B")
        if hi - lo + 1 > _MAX_Q:
            raise ScopeTooLarge(f"{flag}: a range is limited to {_MAX_Q} levels: {text!r} has {hi - lo + 1}")
        return list(range(lo, hi + 1))
    return _parse_list(text, flag, _int_field)


def _infer_depth(p: int, digits: list[int]) -> int:
    m = 0
    top = max(digits)
    while p**m <= top:
        m += 1
    return m


def _set_from_args(args, make):
    """make(context, M, digits) from --p, --set ('-' reads stdin) and --M (default: _infer_depth)."""
    if args.p is None:
        raise ValueError("--p is required")
    if args.set is None:
        raise ValueError("--set is required")
    ctx = PrimeContext(args.p)
    digits = _parse_list(sys.stdin.read() if args.set == "-" else args.set, "--set", _int_field)
    if not digits:
        raise EmptySet("--set: digit list is empty")
    return make(ctx, args.M if args.M is not None else _infer_depth(args.p, digits), digits)


def _omega_from_args(args) -> CompactOpenSet:
    if args.stdin:
        doc = _load_json(sys.stdin.read(), "--stdin")
        return CompactOpenSet.from_json_dict(doc, warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    return _set_from_args(args, lambda ctx, M, digits: CompactOpenSet.make(ctx, args.v, M, digits))


def _declared_frame(args) -> tuple[DigitSet, frozenset[int] | None]:
    """The digit set of --set on its declared frame (v=0, --M) and its branching levels."""
    ds = _set_from_args(args, DigitSet.make)
    _check_exp(ds.context.p, ds.M, "a declared frame", "M")
    return ds, _frame_branching_set(ds.context.p, ds.M, ds.C)


def _eset_from_args(args, ctx: PrimeContext) -> UniformDiscreteSet:
    if args.elements is None or args.window is None:
        raise ValueError("--elements and --window are both required")
    return UniformDiscreteSet.make(ctx, args.window, _parse_list(args.elements, "--elements", _parse_fraction))


def _add_omega_flags(sp):
    sp.add_argument("--p", type=int,
                    help="the prime p (required unless --stdin supplies a document)")
    sp.add_argument("--set", help="digit set: comma list '0,3' or JSON '[0,3]'")
    sp.add_argument("--v", type=int, default=0, help="frame scale exponent (default 0)")
    sp.add_argument("--M", type=int, default=None,
                    help="frame depth (default: smallest depth holding the largest digit)")
    sp.add_argument("--stdin", action="store_true",
                    help="read the set as a JSON document {p, v, M, digits} from stdin")


# ---------------------------------------------------------------- commands


def cmd_normalize(args) -> int:
    if args.stdin:
        doc = _load_json(sys.stdin.read(), "--stdin")
        balls = doc.get("balls") if isinstance(doc, dict) else None
        if not isinstance(balls, list) or not all(isinstance(b, dict) for b in balls):
            raise ValueError("--stdin: expected a JSON object {p, balls: [{v, M, c}, ...]}")
        ctx = PrimeContext(_int_field(doc.get("p"), "p"))
        triples = [
            [_int_field(b.get(k), f"balls[{i}].{k}") for k in ("v", "M", "c")] for i, b in enumerate(balls)
        ]
    else:
        if args.p is None or args.balls is None:
            raise ValueError("--p and --balls are required (or use --stdin)")
        ctx = PrimeContext(args.p)
        triples = []
        for i, part in enumerate(args.balls.split(";")):
            triples.append(_parse_list(part, f"--balls[{i}]", _int_field))
            if len(triples[-1]) != 3:
                raise ValueError(f"--balls[{i}]: expected v,M,c — got {part!r}")
    omega = normalize_set(ctx, [Ball.make(ctx, *trip) for trip in triples])
    _emit(
        args,
        omega.to_json_dict(),
        f"p={omega.context.p} v={omega.v} M={omega.M} digits={','.join(map(str, omega.digits))}",
    )
    return EXIT_OK


def cmd_measure(args) -> int:
    omega = _omega_from_args(args)
    mu = omega.measure()
    _emit(args, {"measure": _rat(mu)}, _rat(mu))
    return EXIT_OK


def cmd_fourier(args) -> int:
    omega = _omega_from_args(args)
    xi = _parse_fraction(args.xi, "--xi")
    val = indicator_fourier(omega, xi)
    rational = val.value_if_rational()
    obj = val.to_json_dict()
    obj["rational"] = None if rational is None else _rat(rational)
    num = val.numeric()
    obj["numeric_hint"] = f"{num.real:+.12e}{num.imag:+.12e}i"
    if rational is not None:
        human = f"1̂(ξ) = {_rat(rational)}"
    else:
        human = (
            f"1̂(ξ) = p^{val.power} · {dict(sorted(val.sum.coeffs.items()))} "
            f"(order exponent {val.sum.n}); numeric ≈ {num.real:+.6f}{num.imag:+.6f}i"
        )
    _emit(args, obj, human)
    return EXIT_OK


def cmd_autocorr(args) -> int:
    omega = _omega_from_args(args)
    xi = _parse_fraction(args.xi, "--xi")
    val = autocorrelation(omega, xi)
    _emit(args, {"autocorrelation": _rat(val)}, _rat(val))
    return EXIT_OK


def cmd_homogeneity(args) -> int:
    if args.declared_frame:
        if args.stdin:
            raise ValueError("--declared-frame answers on the frame of --set; it cannot read --stdin")
        ds, levels = _declared_frame(args)
        flag = levels is not None
        frame = {"v": 0, "M": ds.M, "digits": list(ds.C)}
    else:
        omega = _omega_from_args(args)
        flag, levels = is_p_homogeneous(omega)
        frame = {"v": omega.v, "M": omega.M, "digits": list(omega.digits)}
    lv = None if levels is None else sorted(levels)
    obj = {"is_homogeneous": flag, "I": lv}
    obj.update(frame)
    _emit(
        args,
        obj,
        f"homogeneous: {'yes' if flag else 'no'}"
        + (f"; branching levels I = {lv}" if flag else ""),
    )
    return EXIT_OK if flag else EXIT_FAILED


def _decider_command(decider, key: str, no: str, yes: str, args) -> int:
    w = decider(_set_from_args(args, DigitSet.make))
    if w is None:
        _emit(args, {key: False, "witness": None}, no)
        return EXIT_FAILED
    _emit(args, {key: True, "witness": w.to_json_dict()}, f"{yes} = {{{', '.join(map(str, w.elements))}}}")
    return EXIT_OK


def _constructor_command(builder, label: str, args) -> int:
    ds, levels = _declared_frame(args)
    if levels is None:
        print(f"set is not p-homogeneous on the declared frame; no {label} construction",
              file=sys.stderr)
        return EXIT_FAILED
    w = builder(ds, levels)
    _emit(
        args,
        {"witness": w.to_json_dict(), "I": sorted(levels)},
        f"{label} = {{{', '.join(map(str, w.elements))}}} (I = {sorted(levels)})",
    )
    return EXIT_OK


def _report_human(report) -> str:
    if report.failure is None:
        return f"Verified on window B(0, p^{-report.verified_window.v}) ({report.checked_points} cells)"
    f = report.failure.to_json_dict()
    return (
        f"FailedAt ξ = {f['xi']}: lhs = {f['lhs']}, rhs = {f['rhs']} "
        f"(checked {report.checked_points} cells)"
    )


def _verify_command(verifier, args) -> int:
    omega = _omega_from_args(args)
    report = verifier(omega, _eset_from_args(args, omega.context), args.window_exp)
    _emit(args, report.to_json_dict(), _report_human(report))
    return EXIT_OK if report.failure is None else EXIT_FAILED


def cmd_spectrum_to_tiling(args) -> int:
    omega = _omega_from_args(args)
    lam = lifted_spectrum(omega, 3) if args.elements is None else _eset_from_args(args, omega.context)
    u, report = spectrum_to_tiling_complement(omega, lam, args.window_exp)
    obj = {"U": list(u), "report": report.to_json_dict()}
    d = report.derived
    human = (
        f"n_f = {d['n_f']}, I = {d['I']}, J = {d['J']}, U = {list(u)}; "
        f"{_report_human(report)}"
    )
    _emit(args, obj, human)
    return EXIT_OK if report.failure is None else EXIT_FAILED


def cmd_scan_zeros(args) -> int:
    ctx = PrimeContext(args.p)
    eset = _eset_from_args(args, ctx)
    ne = eset.n_E()
    obj: dict = {"n_E": ne, "window_exp": eset.window_exp}
    lines = []
    if ne is None:
        lines.append("n_E undefined (singleton); zero-set bound is vacuous")
    else:
        lines.append(f"n_E = {ne}")
    code = EXIT_OK
    if args.levels is not None:
        levels = _parse_levels(args.levels, "--levels")
        statuses = zero_sphere_scan(eset, levels)
        obj["statuses"] = {str(n): s.value for n, s in sorted(statuses.items())}
        for n, s in sorted(statuses.items()):
            lines.append(f"sphere |ξ| = p^{-n}: {s.value}")
    if args.bound:
        ok = zero_bound_check(eset)
        obj["zero_bound"] = ok
        lines.append(f"zero-set bound (no zero sphere at radius ≥ p^(n_E+2)): {'holds' if ok else 'VIOLATED'}")
        if not ok:
            code = EXIT_FAILED
    if args.levels is None and not args.bound:
        raise ValueError("nothing to do: pass --levels and/or --bound")
    _emit(args, obj, "\n".join(lines))
    return code


def cmd_density(args) -> int:
    ctx = PrimeContext(args.p)
    eset = _eset_from_args(args, ctx)
    x0 = _parse_fraction(args.x0, "--x0")
    ks = _parse_levels(args.k_range, "--k-range")
    rows = density(eset, x0, ks)
    obj: dict = {"densities": [[k, _rat(r)] for k, r in rows]}
    lines = [f"k = {k}: Card/p^k = {_rat(r)}" for k, r in rows]
    code = EXIT_OK
    if args.probes is not None:
        if args.uniformity_n is None:
            raise ValueError("--probes needs --uniformity-n")
        probes = _parse_list(args.probes, "--probes", _parse_fraction)
        ok = uniformity_check(eset, args.uniformity_n, probes)
        obj["uniform"] = ok
        lines.append(f"uniformity at n = {args.uniformity_n}: {'holds' if ok else 'FAILS'}")
        if not ok:
            code = EXIT_FAILED
    _emit(args, obj, "\n".join(lines))
    return code


def _census_summary_obj(census: Census) -> dict:
    return {
        "p": census.p,
        "M": census.M,
        "mode": census.mode,
        "total": census.total,
        "positive": census.positive,
        "counts_by_card": {str(k): v for k, v in sorted(census.counts_by_card.items())},
        "counts_by_I": {
            ",".join(map(str, key)): v
            for key, v in sorted(census.counts_by_branching.items())
        },
    }


def _census_summary_human(census: Census) -> str:
    lines = [
        f"classify p={census.p} M={census.M} mode={census.mode}",
        f"sets visited: {census.total}",
        f"tile = spectral = homogeneous on every set; positive: {census.positive}",
    ]
    if census.counts_by_card:
        lines.append(
            "by cardinality: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(census.counts_by_card.items()))
        )
    if census.counts_by_branching:
        lines.append(
            "by branching set: "
            + ", ".join(
                "{" + ",".join(map(str, key)) + "}" + f": {v}"
                for key, v in sorted(census.counts_by_branching.items())
            )
        )
    return "\n".join(lines)


def _row_writer(stream):
    """emit(row) for _tally: writes json.dumps(row.to_json_dict(), sort_keys=True), formatted directly."""
    write = stream.write

    def ints(xs):
        return "null" if xs is None else "[" + ", ".join(map(str, xs)) + "]"

    def emit(row):
        C, tile, spectral, homog, I, T, L = row
        write(f'{{"C": {ints(C)}, "I": {ints(I)}, "is_homogeneous": {"true" if homog else "false"}, '
              f'"is_spectral": {"true" if spectral else "false"}, "is_tile": {"true" if tile else "false"}, '
              f'"witness_Lambda": {ints(L)}, "witness_T": {ints(T)}}}\n')
    return emit


def _write_census(out, p: int, M: int, mode: str, rows) -> Census:
    """_tally of the census rows, each written as a JSON line to the file out ('-': stdout)."""
    with nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8") as fh:
        return _tally(p, M, mode, rows, _row_writer(fh))


def cmd_classify(args) -> int:
    if args.exhaustive and args.sample is not None:
        raise ValueError("pick one of --exhaustive / --sample K")
    if not args.exhaustive and args.sample is None:
        raise ValueError("pick a mode: --exhaustive or --sample K")
    mode = "exhaustive" if args.exhaustive else "sample"
    rows = _census_rows(args.p, args.M, mode, args.sample, args.seed, args.jobs)  # refuses before out is opened
    if args.out is None:
        census = _tally(args.p, args.M, mode, rows, lambda row: None)
    else:
        census = _write_census(args.out, args.p, args.M, mode, rows)
    if args.out != "-":
        _emit(args, _census_summary_obj(census), _census_summary_human(census))
    return EXIT_OK


_GALLERY_CENSUSES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))
_GALLERY_PIPELINES = ((2, 2, (0, 3)), (2, 3, (0, 1, 4, 5)), (3, 2, (0, 3, 6)))


def cmd_gallery(args) -> int:
    censuses = [(p, m, _census_rows(p, m, "exhaustive", jobs=args.jobs)) for p, m in _GALLERY_CENSUSES]
    outdir = Path(args.out)  # made once every census has read --jobs, so that a refused one leaves nothing
    outdir.mkdir(parents=True, exist_ok=True)
    written, summaries = [], []
    for p, m, rows in censuses:
        path = outdir / f"census_p{p}_M{m}.jsonl"
        summaries.append(_census_summary_obj(_write_census(path, p, m, "exhaustive", rows)))
        written.append(path)
    pipe_rows = []
    for p, m, digits in _GALLERY_PIPELINES:
        ctx = PrimeContext(p)
        omega = CompactOpenSet.make(ctx, 0, m, digits)
        lam = lifted_spectrum(omega, 3)
        u, report = spectrum_to_tiling_complement(omega, lam, 3)
        spectral = verify_spectral_pair(omega, lam, 2)
        pipe_rows.append(
            {
                "p": p,
                "declared_M": m,
                "declared_digits": list(digits),
                "spectrum": lam.to_json_dict(),
                "U": list(u),
                "tiling_report": report.to_json_dict(),
                "spectral_report": spectral.to_json_dict(),
            }
        )
    path = outdir / "pipelines.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in pipe_rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
    written.append(path)

    md = ["# Example gallery", "", "## Censuses", ""]
    md.append("| p | M | sets | positive |")
    md.append("|---|---|------|----------|")
    for s in summaries:
        md.append(f"| {s['p']} | {s['M']} | {s['total']} | {s['positive']} |")
    md += ["", "## Spectrum-to-complement pipelines", ""]
    md.append("| p | M | digits | n_f | I | J | U | tiling | spectral |")
    md.append("|---|---|--------|-----|---|---|---|--------|----------|")
    for row in pipe_rows:
        d = row["tiling_report"]["derived"]
        md.append(
            f"| {row['p']} | {row['declared_M']} | {row['declared_digits']} | {d['n_f']} "
            f"| {d['I']} | {d['J']} | {row['U']} | {row['tiling_report']['status']} "
            f"| {row['spectral_report']['status']} |"
        )
    md.append("")
    path = outdir / "summary.md"
    path.write_text("\n".join(md), encoding="utf-8")
    written.append(path)
    for w in written:
        print(w)
    return EXIT_OK


# ---------------------------------------------------------------- parser


@cache
def _build_parser() -> _Parser:
    """The parser of every command, built on the first call of main and kept: a command reads its library
    function by name when it runs (a lambda, not a partial over the function), so a name rebound after the
    first call is still reached."""
    top = _Parser(
        prog="padictiles",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def new(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="machine-readable JSON output")
        sp.set_defaults(func=fn)
        return sp

    sp = new("normalize", cmd_normalize, "reduce a union of balls to the canonical frame")
    sp.add_argument("--p", type=int)
    sp.add_argument("--balls", help="semicolon-separated v,M,c triples, e.g. '0,2,3;1,0,0'")
    sp.add_argument("--stdin", action="store_true",
                    help="read {p, balls:[{v,M,c},...]} JSON from stdin")

    for name, fn, help_text in (
        ("measure", cmd_measure, "Haar measure of a compact open set (exact rational)"),
        ("autocorr", cmd_autocorr, "measure of Ω ∩ (Ω+ξ), exact"),
        ("fourier", cmd_fourier, "exact Fourier value of the indicator at ξ"),
    ):
        sp = new(name, fn, help_text)
        _add_omega_flags(sp)
        if name in ("autocorr", "fourier"):
            sp.add_argument("--xi", required=True, help="rational point, e.g. 3/4")

    sp = new("homogeneity", cmd_homogeneity,
             "p-homogeneity of the digit tree; exit 2 when not homogeneous")
    _add_omega_flags(sp)
    sp.add_argument("--declared-frame", action="store_true",
                    help="answer on the given (v=0, M) frame instead of the canonical one")

    for name, fn, help_text in (
        ("is-tile", lambda args: _decider_command(is_tile_zmod, "is_tile", "not a tile", "tile; witness T", args),
         "decide tiling of Z/p^M; prints a complement witness"),
        ("is-spectral", lambda args: _decider_command(is_spectral_zmod, "is_spectral", "not spectral",
                                                      "spectral; witness Λ", args),
         "decide spectrality in Z/p^M; prints a spectrum witness"),
        ("make-spectrum", lambda args: _constructor_command(spectrum_from_homogeneity, "spectrum", args),
         "construct the spectrum of a homogeneous set"),
        ("make-complement", lambda args: _constructor_command(complement_from_homogeneity, "tiling complement", args),
         "construct the tiling complement of a homogeneous set"),
    ):
        sp = new(name, fn, help_text)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--set", required=True,
                        help="digit set: comma list or JSON array; '-' reads it from stdin")
        sp.add_argument("--M", type=int, default=None,
                        help="group depth (default: smallest depth holding the largest digit)")

    for name, fn, help_text in (
        ("verify-tiling", lambda args: _verify_command(verify_tiling_pair, args),
         "verify tiling on an explicit window"),
        ("verify-spectral", lambda args: _verify_command(verify_spectral_pair, args),
         "verify spectral on an explicit window"),
        ("spectrum-to-tiling", cmd_spectrum_to_tiling,
         "derive a tiling complement from a spectrum (sphere classification)"),
    ):
        sp = new(name, fn, help_text)
        _add_omega_flags(sp)
        sp.add_argument("--elements", help="translate/spectrum elements: comma list of rationals "
                                           "(spectrum-to-tiling: omit to lift the constructed spectrum)")
        sp.add_argument("--window", type=int, help="declared truncation exponent of the element list")
        sp.add_argument("--window-exp", type=int, default=3,
                        help="verification window exponent (default 3)")

    for name, fn, help_text in (
        ("scan-zeros", cmd_scan_zeros, "classify spheres against the zero set of μ̂_E"),
        ("density", cmd_density, "exact density ratios (and optional uniformity check)"),
    ):
        sp = new(name, fn, help_text)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--elements", required=True, help="comma list of rationals")
        sp.add_argument("--window", type=int, required=True, help="declared truncation exponent")
        if name == "scan-zeros":
            sp.add_argument("--levels", help="sphere levels: 'a:b' inclusive range or comma list")
            sp.add_argument("--bound", action="store_true",
                            help="also check the zero-set bound (no zero sphere at radius ≥ p^(n_E+2))")
        else:
            sp.add_argument("--x0", default="0", help="ball center (default 0)")
            sp.add_argument("--k-range", required=True, help="'a:b' inclusive range or comma list")
            sp.add_argument("--probes", help="probe centers for the uniformity check")
            sp.add_argument("--uniformity-n", type=int, help="ball exponent for the uniformity check")

    sp = new("classify", cmd_classify, "census over nonempty subsets of Z/p^M")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true",
                    help="visit every nonempty subset (p=2 M<=4, p=3 M<=2)")
    sp.add_argument("--sample", type=int, default=None, metavar="K",
                    help="visit K distinct random subsets instead")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed for --sample (default 0)")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sp.add_argument("--out", help="write JSON-lines rows to this file ('-' = stdout, no summary)")

    sp = new("gallery", cmd_gallery, "emit the standard example suite (censuses + pipelines)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for the censuses")

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except (WindowTooSmall, NotASpectrumEvidence) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_WINDOW
    except (ConstructionFailed, EquivalenceViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
