"""Command-line front end.

Subcommands expose the library as reproducible computations with
human-readable and JSON output. Exit codes: 0 success, 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

# Imported here, not where used: a traced benchmark run looks all five
# package modules up in sys.modules right after importing this one.
from . import lattice, surgery, verification


#: Largest sweep grid, in descriptors, that ``sweep`` accepts; a bigger one
#: exits 2. The grid bounds the recurrence states the sweep folds and the
#: classes it holds, and its memory grows with those, not with output
#: lines: the 9.8M-descriptor grid with k in 0..55 gives 214,715 classes
#: and peaks at about 169 MiB.
MAX_SWEEP_DESCRIPTORS = 10**7


class InputError(Exception):
    """Bad command-line input; maps to exit code 2."""


def integer(text: str) -> int:
    """An optional sign and ASCII digits, and nothing else: ``int()`` alone
    would also read other scripts' digits (``"٣"`` as 3), spaces and
    underscores."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _parse_ints(text: str, flag: str) -> tuple[int, int, int, int]:
    """Four comma-separated integers given to ``flag``."""
    try:
        values = tuple(integer(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag} expects four comma-separated integers: {exc}")
    if len(values) != 4:
        raise InputError(f"{flag} expects exactly four values, got {len(values)}")
    return values


def _parse_sl2z(text: str, flag: str) -> surgery.SL2Z:
    """A twist matrix given to ``flag`` as p,q,r,s."""
    try:
        return surgery.SL2Z(*_parse_ints(text, flag))
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}")


def _parse_tau_slot(text: str) -> tuple[int, surgery.SL2Z]:
    slot_text, _, entries_text = text.partition(":")
    try:
        slot = integer(slot_text)
    except ValueError:
        slot = None
    if slot not in (1, 2, 3, 4):
        raise InputError(f"--tau expects 'i:p,q,r,s' with i in 1..4, got {text!r}")
    return slot, _parse_sl2z(entries_text, "--tau")


def _descriptor_from_args(args) -> surgery.SurgeryDescriptor:
    if args.descriptor is not None:
        if args.k is not None or args.tau:
            raise InputError("--descriptor cannot be combined with --k or --tau")
        try:
            data = json.loads(Path(args.descriptor).read_text())
            return surgery.SurgeryDescriptor.from_json(data)
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise InputError(f"bad descriptor file {args.descriptor!r}: {exc}")
    if args.k is None:
        raise InputError("provide --k or a descriptor file")
    ks = _parse_ints(args.k, "--k")
    taus: dict[int, surgery.SL2Z] = {}
    for text in args.tau or []:
        slot, tau = _parse_tau_slot(text)
        if slot in taus:
            raise InputError(f"--tau gives slot {slot} twice")
        taus[slot] = tau
    identity = surgery.SL2Z.identity()
    return surgery.SurgeryDescriptor(ks, tuple(taus.get(i, identity) for i in (1, 2, 3, 4)))


def _report_line(rep: surgery.SurgeryReport) -> str:
    return (
        f"H1 = {rep.h1}; b1 = {rep.b1}; b2 <= {rep.bound_b2}; "
        f"b3 <= {rep.bound_b3}; euler = {rep.euler}; "
        f"non-Kahler: {'yes' if rep.kahler_obstructed else 'no'}; "
        f"product-obstructed: "
        f"{'yes' if rep.product_status == surgery.OBSTRUCTED else 'unknown'}"
    )


def cmd_report(args) -> int:
    """``h1`` and ``report``; only ``report`` prints the relation matrix."""
    rep = surgery.report(_descriptor_from_args(args))
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(_report_line(rep))
        if args.command == "report":
            print("relations:")
            for row in rep.relations:
                print("  " + " ".join(f"{v:3d}" for v in row))
    return 0


def cmd_realize(args) -> int:
    targets = _parse_ints(args.d, "--d")
    if any(d < 0 for d in targets):
        raise InputError("--d expects four non-negative integers")
    descriptor = surgery.realize(*targets)
    rep = surgery.report(descriptor)
    if args.json:
        print(json.dumps({"descriptor": descriptor.to_json(), "report": rep.to_json()}))
    else:
        print(json.dumps(descriptor.to_json()))
        print(_report_line(rep))
    return 0


def _parse_k_param(text: str):
    if text == "symbolic":
        return "symbolic"
    try:
        return integer(text)
    except ValueError:
        raise InputError(f"--k must be an integer or 'symbolic', got {text!r}")


def cmd_verify_forms(args) -> int:
    k = _parse_k_param(args.k)
    tau = _parse_sl2z(args.tau, "--tau")
    reports = [verification.check_lemma2(k), verification.check_theorem5(k, tau)]
    ok = all(r.passed for r in reports)
    controls = {}
    if args.negative_controls:
        controls = verification.negative_control_reports(*reports)
        ok = ok and all(not r.passed for r in controls.values())
    if args.json:
        document = {
            "passed": ok,
            "checks": [r.to_json() for r in reports],
        }
        if controls:
            document["negative_controls"] = {
                name: r.to_json() for name, r in controls.items()
            }
        print(json.dumps(document))
    else:
        for rep in reports:
            for claim in rep.claims:
                mark = "PASS" if claim.passed else "FAIL"
                print(f"[{mark}] {rep.name}: {claim.label}")
                if claim.residual:
                    print(f"       residual: {claim.residual}")
        for name, rep in controls.items():
            mark = "PASS" if not rep.passed else "FAIL"
            print(f"[{mark}] negative control {name} "
                  f"({'failed as designed' if not rep.passed else 'unexpectedly passed'})")
    return 0 if ok else 1


def cmd_lemma6(args) -> int:
    certificate = lattice.complement_betti()
    actual = certificate.summary()
    ok = actual == lattice.LEMMA6_EXPECTED
    if args.json:
        document = {
            "passed": ok,
            "matrix": certificate.matrix,
            "certificate": actual,
            "expected": lattice.LEMMA6_EXPECTED,
            "dual_tori": [str(t) for t in certificate.dual_tori],
            "assumption": (
                "the ten 3-tori with free first coordinate lift to the "
                "complement, so the rank is exactly 10"
            ),
        }
        print(json.dumps(document))
    else:
        print("intersection matrix (10 x 16):")
        for row in certificate.matrix:
            print("  " + " ".join(f"{v:2d}" for v in row))
        print(f"rank: {actual['rank']}")
        print(f"invariant factors: {actual['invariant_factors']}")
        print(f"cokernel rank: {actual['cokernel_rank']}")
        print("dual tori:")
        for i, torus in enumerate(certificate.dual_tori, start=1):
            print(f"  T{i} = {torus}")
        print(f"complement betti: b1 = {actual['b1']}, b2 = {actual['b2']}")
    return 0 if ok else 1


def _load_tau_file(path: str | None) -> list[surgery.SL2Z]:
    if path is None:
        return [surgery.SL2Z.identity()]
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"bad tau file {path!r}: {exc}")
    if not isinstance(data, list):
        raise InputError(f"bad tau file {path!r}: expected a JSON list of matrices")
    # A repeated twist would count each of its descriptors more than once.
    first_index: dict[surgery.SL2Z, int] = {}
    for index, entry in enumerate(data):
        try:
            tau = surgery.SL2Z.from_json(entry)
        except (ValueError, TypeError) as exc:
            raise InputError(f"tau entry {index}: {exc}")
        if tau in first_index:
            raise InputError(f"tau entry {index} repeats entry {first_index[tau]}")
        first_index[tau] = index
    return list(first_index)


def cmd_sweep(args) -> int:
    taus = _load_tau_file(args.tau_file)
    if args.base_k is not None and args.slot is None:
        raise InputError("--base-k needs --slot: with no --slot every slot varies")
    base = (0, 0, 0, 0) if args.base_k is None else _parse_ints(args.base_k, "--base-k")
    slots = [0, 1, 2, 3] if args.slot is None else [args.slot - 1]
    # len() of a range longer than sys.maxsize raises OverflowError.
    count = max(args.k_max - args.k_min + 1, 0) ** len(slots) * len(taus) ** 4
    if count > MAX_SWEEP_DESCRIPTORS:
        raise InputError(
            f"sweep grid has {count} descriptors, limit {MAX_SWEEP_DESCRIPTORS}"
        )
    classes = surgery.sweep(
        range(args.k_min, args.k_max + 1), taus, slots=slots, base_ks=base
    )
    lines = (json.dumps(c.to_json()) + "\n" for c in classes)
    if args.out:
        try:
            with open(args.out, "w") as out:
                out.writelines(lines)
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc}")
    else:
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    print(f"classes: {len(classes)}", file=sys.stderr)
    for c in classes:
        print(
            f"  {c.h1}  b1={c.b1}  "
            f"kahler-obstructed={'yes' if c.kahler_obstructed else 'no'}  "
            f"product={c.product_status}  count={c.count}",
            file=sys.stderr,
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse echoes unrecognized arguments raw; escaping newlines keeps
    its error on one ``error:`` line. Subparsers take this class too."""

    def error(self, message):
        super().error(message.replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torus-surgery",
        description="Exact invariants of twist surgeries on 4-tori in the 6-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_descriptor_flags(p):
        p.add_argument("--descriptor", help="descriptor JSON file")
        p.add_argument("--k", help="four comma-separated twist coefficients")
        p.add_argument(
            "--tau",
            action="append",
            help="per-slot twist matrix as i:p,q,r,s (repeatable)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")

    p_h1 = sub.add_parser("h1", help="first homology and bounds")
    add_descriptor_flags(p_h1)
    p_h1.set_defaults(func=cmd_report)

    p_report = sub.add_parser("report", help="full report incl. relation matrix")
    add_descriptor_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    p_realize = sub.add_parser("realize", help="descriptor hitting a target group")
    p_realize.add_argument("--d", required=True, help="four target torsion orders")
    p_realize.add_argument("--json", action="store_true")
    p_realize.set_defaults(func=cmd_realize)

    p_verify = sub.add_parser("verify-forms", help="symbolic form identities")
    p_verify.add_argument("--k", default="symbolic", help="integer or 'symbolic'")
    p_verify.add_argument("--tau", default="1,0,0,1", help="twist matrix p,q,r,s")
    p_verify.add_argument("--negative-controls", action="store_true")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify_forms)

    p_lemma6 = sub.add_parser("lemma6", help="complement homology certificate")
    p_lemma6.add_argument("--json", action="store_true")
    p_lemma6.set_defaults(func=cmd_lemma6)

    p_sweep = sub.add_parser("sweep", help="enumerate invariant classes")
    p_sweep.add_argument("--k-min", type=integer, required=True)
    p_sweep.add_argument("--k-max", type=integer, required=True)
    p_sweep.add_argument("--tau-file", help="JSON list of [[p,q],[r,s]] matrices")
    p_sweep.add_argument("--slot", type=integer, choices=(1, 2, 3, 4),
                         help="vary only this surgery slot")
    p_sweep.add_argument("--base-k", help="k values for the slots held fixed")
    p_sweep.add_argument("--out", help="write JSON lines here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python refuses to write an int of more than
        # sys.get_int_max_str_digits() digits. An input integer that long
        # has already been refused as bad input where it was parsed.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: the result holds an integer of more than {limit} digits",
              file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # Point fd 1 at devnull so that the flush at exit stays quiet.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
