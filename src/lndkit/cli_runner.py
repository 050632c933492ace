"""Session-file parser, command dispatcher, JSON report emitter, and the
shipped example corpus.

The session grammar is line-oriented (`#` starts a comment; braced blocks
may span lines).  Every statement form is one entry of `_FORMS`, whose
template is both the form's grammar and its printed form:

    ring <name> = poly(<vars>)
    ring <name> = quotient(<ring>, (<polys>))
    subalgebra <name> in <ring> = gens { <polys> }
    derivation <name> on <ring|subalgebra> { <images> }
    ideal <name> in <ring|subalgebra> = ( <polys> )

    check nilpotent <derivation> [bound <int>]
    check fpf <derivation>
    check irreducible <derivation>
    check contained <derivation> in (<poly>)
    grade <derivation>
    grade ideal <ideal>
    kernel <derivation> degree <int> [expect <subalgebra>]
    slice <derivation> degree <int>
    dixmier <derivation> slice <poly> of <poly>
    symbolic <ideal> power <int> saturate <poly>
    rees <ideal> upto <int> saturate <poly>
    verify generators <subalgebra> claim { <polys> } degree <int>

`<vars>` and `<polys>` are comma-separated, `<images>` is a `;`-separated
list of `var -> poly`; spaces next to punctuation are optional.

Exit codes: 0 all commands succeeded; 1 usage, parse or I/O error (a
negative budget, a malformed number or `LND_SEED`); 2 at least one
command-level failure, an out-of-range count (`kernel D degree 0`) included.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

from . import __version__
from .config import RunConfig, ascii_int, budget, default_seed
from .derivation_engine import (
    Derivation,
    certify_nilpotent,
    check_well_defined,
    contained_in_principal,
    irreducible_over_ufd,
    restrict_to_subalgebra,
)
from .errors import BudgetExceededError, LndError, ParseError
from .grade_analyzer import fpf_test, grade_of_derivation, grade_of_ideal
from .groebner_engine import Ideal, basis_memo, ideal_member
from .kernel_lab import (
    compare_kernel_to_subalgebra,
    dixmier,
    kernel_generators,
    slice_search,
    verify_generators_up_to_degree,
)
from .poly_core import format_polynomial, parse_polynomial
from .presentation import PresentedRing, present_subalgebra
from .rees_builder import ideal_power, rees_truncation, saturator_certified, symbolic_power

TOOL_NAME = "lndkit"
SCHEMA_VERSION = 1
# the Jacobian certificate's verdict on a saturator, as reported
_SATURATOR = {True: "certified", False: "uncertified"}


# ---------------------------------------------------------------------------
# session AST
# ---------------------------------------------------------------------------

@dataclass
class Statement:
    """One parsed statement: its form's kind, its slot values, and neither
    compared, the terms its parse charged (a reprint may expand at another
    cost) and its text as written, reported when it cannot be printed."""

    kind: str
    args: dict = field(default_factory=dict)
    terms: int = field(default=0, compare=False)
    text: str = field(default="", compare=False)

    def pretty(self):
        return _KINDS[self.kind].show(self.args)


@dataclass
class Session:
    declarations: list
    commands: list

    def pretty(self):
        statements = self.declarations + self.commands
        return "\n".join(_shown(s)[0] for s in statements) + "\n"


def _shown(statement):
    """(the statement printed, None), or (its text as written, the reason)
    when it cannot be printed: a coefficient too long for text."""
    try:
        return statement.pretty(), None
    except LndError as exc:
        return statement.text, str(exc)


# ---------------------------------------------------------------------------
# slot types: how a template's <slot:type> reads and prints its value
# ---------------------------------------------------------------------------

_NAME = r"[^\W\d]\w*"
_TEXT = r".*?"


def _read_new(parser, text):
    if text in parser.names:
        raise ParseError(f"duplicate name {text!r}")
    return text


def _reference(kinds):
    """Reader of a declared name of one of `kinds`; the first reference of
    a statement fixes the variables its polynomials are read in."""
    def read(parser, text):
        info = parser.names.get(text)
        if info is None:
            raise ParseError(f"undefined name {text!r}")
        if info[0] not in kinds:
            raise ParseError(f"{text!r} is a {info[0]}, expected {'|'.join(kinds)}")
        if parser.vars is None:
            parser.vars = info[1]
        return text
    return read


def _read_vars(parser, text):
    vars = tuple(v.strip() for v in text.split(","))
    if not all(re.fullmatch(_NAME, v) for v in vars):
        raise ParseError(f"bad variable list ({text})")
    if len(set(vars)) != len(vars):
        raise ParseError("repeated variable")
    parser.vars = vars
    return vars


def _read_int(parser, text):
    """An integer in ASCII decimal digits, with an optional minus sign."""
    try:
        return ascii_int(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _moved(exc, offset, line=None):
    """The parse error `exc` on `line`, its column (if any) counted
    `offset` characters further on."""
    column = None if exc.column is None else exc.column + offset
    return ParseError(exc.message, line=line, column=column)


def _read_poly(parser, text, offset=0):
    """The polynomial over the statement's variables, from a piece of a
    slot that starts `offset` characters into it (error columns count from
    the slot's start).  One too large to expand within its statement's
    term budget is checked for syntax alone and kept as its stripped text;
    the terms its parse charged fail the statement when it runs."""
    try:
        return parse_polynomial(text, parser.vars)
    except BudgetExceededError:
        return text.strip()
    except ParseError as exc:
        raise _moved(exc, offset) from None


def _read_polys(parser, text):
    polys = tuple(_read_poly(parser, m[0], m.start())
                  for m in re.finditer(r"[^,]+", text) if m[0].strip())
    if not polys:
        raise ParseError("empty polynomial list")
    return polys


def _read_images(parser, text):
    images = []
    for m in re.finditer(r"[^;]+", text):
        if not m[0].strip():
            continue
        head, arrow, poly = m[0].partition("->")
        var = head.strip()
        if not arrow:
            raise ParseError(f"expected 'var -> poly' in {m[0].strip()!r}")
        if var not in parser.vars:
            raise ParseError(f"{var!r} is not one of the variables "
                             f"({', '.join(parser.vars)})")
        if not poly.strip():
            raise ParseError(f"empty image for {var!r}")
        offset = m.start() + len(head) + len(arrow)
        images.append((var, _read_poly(parser, poly, offset)))
    if len({v for v, _ in images}) != len(images):
        raise ParseError("repeated variable image")
    return tuple(images)


@dataclass(frozen=True)
class _SlotType:
    regex: str
    read: object     # (parser, text) -> value
    show: object     # value -> text


_TYPES = {
    "new": _SlotType(_NAME, _read_new, str),
    "vars": _SlotType(_TEXT, _read_vars, ", ".join),
    "int": _SlotType(r"\S+", _read_int, str),
    "poly": _SlotType(_TEXT, _read_poly, str),
    "polys": _SlotType(_TEXT, _read_polys, lambda polys: ", ".join(map(str, polys))),
    "images": _SlotType(_TEXT, _read_images,
                        lambda images: "; ".join(f"{v} -> {p}" for v, p in images)),
}
_TYPES.update((kinds, _SlotType(_NAME, _reference(kinds.split("|")), str))
              for kinds in ("ring", "subalgebra", "derivation", "ideal",
                            "ring|subalgebra"))


# ---------------------------------------------------------------------------
# statement forms
# ---------------------------------------------------------------------------

_SLOT = re.compile(r"<(\w+):([\w|]+)>")
_TEMPLATE_TOKEN = re.compile(r"<\w+:[\w|]+>|\w+|\S")
_OPTION = re.compile(r" \[(.*?)\]")


class _Form:
    """One statement form.  Its template `word <slot:type> [option]` gives
    the grammar (adjacent words need whitespace, punctuation may touch its
    neighbours) and, filled in, the printed form."""

    def __init__(self, kind, template, execute):
        self.kind = kind
        self.template = template
        self.execute = execute
        self.keyword = template.split()[0]
        self.slots = _SLOT.findall(template)
        self.declares = self.slots[0][1] == "new"
        self.usage = _SLOT.sub(
            lambda m: "<name>" if m[2] == "new" else f"<{m[2]}>", template)
        pieces, prev_word = [], None
        for token in _TEMPLATE_TOKEN.findall(template):
            if token in ("[", "]"):
                pieces.append("(?:" if token == "[" else ")?")
                continue
            word = token[0] == "<" or token[0].isalnum()
            if prev_word is not None:
                pieces.append(r"\s+" if prev_word and word else r"\s*")
            slot = _SLOT.fullmatch(token)
            pieces.append(f"(?P<{slot[1]}>{_TYPES[slot[2]].regex})" if slot
                          else re.escape(token))
            prev_word = word
        self.pattern = re.compile("".join(pieces))

    def show(self, args):
        def option(m):
            used = all(args[slot] is not None for slot, _ in _SLOT.findall(m[1]))
            return " " + m[1] if used else ""
        text = _OPTION.sub(option, self.template)
        return _SLOT.sub(lambda m: _TYPES[m[2]].show(args[m[1]]), text)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _logical_lines(text):
    """Comment-stripped statements; braced blocks may span lines."""
    lines = []
    pending = ""
    pending_line = 0
    for i, raw in enumerate(text.splitlines(), start=1):
        chunk = raw.split("#", 1)[0].strip()
        if not chunk:
            continue
        if pending:
            pending += " " + chunk
        else:
            pending, pending_line = chunk, i
        if pending.count("{") > pending.count("}"):
            continue
        lines.append((pending_line, pending))
        pending = ""
    if pending:
        raise ParseError("unterminated '{' block", line=pending_line)
    return lines


class _Parser:
    def __init__(self):
        self.names = {}       # name -> (kind, ambient variable tuple)
        self.vars = None      # variables of the statement being read
        self.session = Session([], [])

    def feed(self, line, text):
        keyword = text.split(None, 1)[0]
        forms = [f for f in _FORMS if f.keyword == keyword]
        found = next(((f, m) for f in forms if (m := f.pattern.fullmatch(text))),
                     None)
        if found is None:
            if not forms:
                raise ParseError(f"unrecognized statement: {text!r}", line=line)
            raise ParseError("expected " + " or ".join(f"'{f.usage}'" for f in forms),
                             line=line)
        form, match = found
        self.vars = None
        args = {}
        with budget() as scope:
            for slot, type_ in form.slots:
                try:
                    args[slot] = (None if match[slot] is None
                                  else _TYPES[type_].read(self, match[slot]))
                except ParseError as exc:
                    raise _moved(exc, match.start(slot), line) from None
                except LndError as exc:
                    raise ParseError(str(exc), line=line) from None
        statement = Statement(form.kind, args, scope.terms_used, text)
        if form.declares:
            self.names[args["name"]] = (form.keyword, self.vars)
            self.session.declarations.append(statement)
        else:
            self.session.commands.append(statement)


def parse_session(text):
    parser = _Parser()
    for line, statement in _logical_lines(text):
        parser.feed(line, statement)
    return parser.session


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class _BoundIdeal:
    ideal: Ideal            # over the computational ring's variables
    ring: PresentedRing     # where grade/symbolic computations run
    host: object            # Subalgebra when declared inside one


class _Environment:
    """The objects a session's declarations bound, by kind."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.rings = {}
        self.subalgebras = {}
        self.derivations = {}
        self.ideals = {}
        self.of_kind = {"ring": self.rings, "subalgebra": self.subalgebras,
                        "derivation": self.derivations, "ideal": self.ideals}

    def execute(self, statement):
        """Run one statement in a budget scope of its own (config.budget),
        charged first with the terms its parse formed."""
        with budget(self.cfg.pair_budget, self.cfg.dim_budget) as scope:
            scope.charge_terms(statement.terms, "a polynomial product")
            return _KINDS[statement.kind].execute(self, **statement.args)

    def declare(self, decl):
        kind = _KINDS[decl.kind].keyword
        self.of_kind[kind][decl.args["name"]] = self.execute(decl)


def _element(poly, ring, host=None):
    """`poly`, read in ambient coordinates, expressed on the tags of `host`
    when the element lives inside a subalgebra, normalised in `ring`."""
    return ring.normal(poly if host is None else host.express(poly))


def _display(p, host):
    """Render an element in ambient coordinates when it lives on tags."""
    return format_polynomial(p if host is None else host.to_ambient(p))


# -- declarations: each returns the object it binds --------------------------

def _ring(env, name, vars):
    return PresentedRing.polynomial_ring(vars)


def _quotient_ring(env, name, base, relations):
    base = env.rings[base]
    return PresentedRing.quotient(base.vars, [*base.relations.elements, *relations])


def _subalgebra(env, name, ring, generators):
    ring = env.rings[ring]
    return present_subalgebra(ring, [_element(p, ring) for p in generators])


def _derivation(env, name, host, images):
    if host in env.rings:
        ring = env.rings[host]
        d = Derivation(ring, {v: _element(p, ring) for v, p in images})
        if ring.has_relations() and not check_well_defined(d):
            raise LndError(
                f"derivation {name} is not well defined on the "
                f"quotient {host}: a relation escapes the relation ideal")
        return d
    sub = env.subalgebras[host]
    ambient = Derivation(sub.ambient, {v: _element(p, sub.ambient) for v, p in images})
    return restrict_to_subalgebra(ambient, sub)


def _ideal(env, name, host, generators):
    sub = env.subalgebras.get(host)
    ring = env.rings[host] if sub is None else sub.presented_ring()
    gens = [_element(p, ring, sub) for p in generators]
    return _BoundIdeal(Ideal(gens, ring.vars), ring, sub)


# -- commands: each returns (value, witnesses, notes) ------------------------

def _check_nilpotent(env, name, bound):
    cert = certify_nilpotent(env.derivations[name], bound=bound)
    value = {"certified": cert.certified, "bound": cert.bound}
    if cert.certified:
        value["orders"] = {v: cert.orders[v] for v in sorted(cert.orders)}
    else:
        value["stuck"] = cert.stuck
    return value, [], []


def _check_fpf(env, name):
    d = env.derivations[name]
    return {"fixed_point_free": fpf_test(d)}, [], []


def _check_irreducible(env, name):
    d = env.derivations[name]
    report = irreducible_over_ufd(d)
    witnesses = [] if report.irreducible else [_display(report.witness, d.host)]
    return {"irreducible": report.irreducible}, witnesses, []


def _check_contained(env, name, poly):
    d = env.derivations[name]
    ok = contained_in_principal(d, _element(poly, d.ring, d.host))
    notes = ["checks the named candidate divisor only; "
             "other localizations are unexamined"]
    return {"contained": ok, "modulus": str(poly)}, [], notes


def _grade_value(report, host):
    # every value is certified: the two flags are constants of schema 1
    value = {
        "grade": str(report.value),
        "method": report.method,
        "exhaustive": True,
        "probabilistic": False,
    }
    witnesses = [_display(w, host) for w in report.witness]
    return value, witnesses, list(report.notes)


def _grade_derivation(env, name):
    d = env.derivations[name]
    report = grade_of_derivation(d)
    return _grade_value(report, d.host)


def _grade_ideal(env, name):
    bound = env.ideals[name]
    report = grade_of_ideal(bound.ideal, bound.ring)
    return _grade_value(report, bound.host)


def _kernel(env, name, degree, expect):
    d = env.derivations[name]
    report = kernel_generators(d, degree)
    # the kept generators are basis elements: each is mapped to ambient coordinates once
    ambient = {p: p if d.host is None else d.host.to_ambient(p) for p in report.basis}
    generators = [ambient[p] for p in report.generators]
    value = {
        "degree": degree,
        "basis_size": len(report.basis),
        "basis": [format_polynomial(p) for p in ambient.values()],
        "generators": [format_polynomial(p) for p in generators],
    }
    notes = []
    if expect is not None:
        inside, holds = compare_kernel_to_subalgebra(generators, d, env.subalgebras[expect])
        value.update(expected=expect, kernel_in_expected=inside, expected_in_kernel=holds)
        notes.append("containment verified up to the stated degree only")
    return value, [], notes


def _slice(env, name, degree):
    d = env.derivations[name]
    data = slice_search(d, degree)
    if data is None:
        return {"found": "none"}, [], []
    if data.is_local():
        return {"found": "local",
                "slice": _display(data.slice, d.host),
                "cofactor": _display(data.cofactor, d.host)}, [], []
    return {"found": "slice", "slice": _display(data.slice, d.host)}, [], []


def _dixmier(env, name, slice, target):
    d = env.derivations[name]
    out = dixmier(d, _element(slice, d.ring, d.host), _element(target, d.ring, d.host))
    value = {"projection": _display(out.numerator, d.host),
             "denominator_power": out.denominator_power}
    if out.cofactor is not None:
        value["cofactor"] = _display(out.cofactor, d.host)
    return value, [], []


def _symbolic(env, name, power, saturator):
    bound = env.ideals[name]
    s = _element(saturator, bound.ring, bound.host)
    sym = symbolic_power(bound.ideal, power, s, bound.ring)
    # I^n + relations lies in its saturation, so one inclusion decides
    ordinary = bound.ring.lifted_ideal(ideal_power(bound.ideal, power).generators)
    same = all(ideal_member(g, ordinary) for g in sym.generators)
    return {"power": power,
            "generators": sorted(_display(g, bound.host) for g in sym.generators),
            "equals_ordinary_power": same,
            "saturator": _SATURATOR[saturator_certified(bound.ideal, s, bound.ring)]}, [], []


def _rees(env, name, upto, saturator):
    bound = env.ideals[name]
    s = _element(saturator, bound.ring, bound.host)
    data = rees_truncation(bound.ideal, upto, s, bound.ring)
    return {"truncation": upto,
            "pieces": [sorted(_display(g, bound.host) for g in piece.generators)
                       for piece in data.pieces],
            "saturator": _SATURATOR[saturator_certified(bound.ideal, s, bound.ring)]}, [], []


def _verify_generators(env, name, claimed, degree):
    sub = env.subalgebras[name]
    out = verify_generators_up_to_degree(
        sub, [_element(p, sub.ambient) for p in claimed], degree)
    witnesses = [] if out.witness is None else [format_polynomial(out.witness)]
    return {"verdict": out.verdict, "degree": degree}, witnesses, []


_FORMS = (
    _Form("ring", "ring <name:new> = poly(<vars:vars>)", _ring),
    _Form("quotient-ring",
          "ring <name:new> = quotient(<base:ring>, (<relations:polys>))",
          _quotient_ring),
    _Form("subalgebra",
          "subalgebra <name:new> in <ring:ring> = gens { <generators:polys> }",
          _subalgebra),
    _Form("derivation",
          "derivation <name:new> on <host:ring|subalgebra> { <images:images> }",
          _derivation),
    _Form("ideal",
          "ideal <name:new> in <host:ring|subalgebra> = ( <generators:polys> )",
          _ideal),
    _Form("check-nilpotent",
          "check nilpotent <name:derivation> [bound <bound:int>]",
          _check_nilpotent),
    _Form("check-fpf", "check fpf <name:derivation>", _check_fpf),
    _Form("check-irreducible", "check irreducible <name:derivation>",
          _check_irreducible),
    _Form("check-contained", "check contained <name:derivation> in (<poly:poly>)",
          _check_contained),
    _Form("grade-derivation", "grade <name:derivation>", _grade_derivation),
    _Form("grade-ideal", "grade ideal <name:ideal>", _grade_ideal),
    _Form("kernel",
          "kernel <name:derivation> degree <degree:int> [expect <expect:subalgebra>]",
          _kernel),
    _Form("slice", "slice <name:derivation> degree <degree:int>", _slice),
    _Form("dixmier",
          "dixmier <name:derivation> slice <slice:poly> of <target:poly>",
          _dixmier),
    _Form("symbolic",
          "symbolic <name:ideal> power <power:int> saturate <saturator:poly>",
          _symbolic),
    _Form("rees", "rees <name:ideal> upto <upto:int> saturate <saturator:poly>",
          _rees),
    _Form("verify-generators",
          "verify generators <name:subalgebra> claim { <claimed:polys> } "
          "degree <degree:int>",
          _verify_generators),
)
_KINDS = {form.kind: form for form in _FORMS}


def load_environment(session, cfg=None):
    """Execute only the declarations, returning the bound objects.

    Handy for driving the API against objects declared in a session file.
    """
    if cfg is None:
        cfg = RunConfig.from_environment()
    env = _Environment(cfg)
    for decl in session.declarations:
        try:
            env.declare(decl)
        except LndError as exc:
            raise LndError(
                f"declaration {decl.args['name']!r} failed: {exc}") from exc
    return env


def run(session, cfg=None, session_name=None):
    """Execute the commands in order; failures are recorded per command and
    do not abort the rest; one `basis_memo` scope spans the session.
    Returns (report dict, exit code)."""
    if cfg is None:
        cfg = RunConfig.from_environment()
    t_start = time.monotonic()
    with basis_memo():
        try:
            env, decl_error = load_environment(session, cfg), None
        except LndError as exc:
            env, decl_error = None, str(exc)
        failed = decl_error is not None
        entries = []
        timings = []
        for index, command in enumerate(session.commands):
            shown, error = _shown(command)
            error = decl_error or error
            entry = {"index": index, "command": shown}
            t0 = time.monotonic()
            if error is None:
                try:
                    value, witnesses, notes = env.execute(command)
                    entry.update(status="ok", value=value, witnesses=witnesses,
                                 notes=notes)
                except LndError as exc:
                    error = str(exc)
            if error is not None:
                entry.update(status="error", error=error)
                failed = True
            timings.append(int((time.monotonic() - t0) * 1000))
            entries.append(entry)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "seed": cfg.seed,
        "session": session_name or "",
        "declaration_error": decl_error,
        "commands": entries,
        "timing": {
            "total_ms": int((time.monotonic() - t_start) * 1000),
            "per_command_ms": timings,
        },
    }
    return report, (2 if failed else 0)


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def strip_timing(report):
    """Copy of a report without its timing fields, for golden comparison."""
    return {k: v for k, v in report.items() if k != "timing"}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_SESSIONS = ("example_6_1.lnd", "example_6_2.lnd", "derived_uv.lnd",
                   "rees_cone.lnd")


def corpus_path(name):
    return resources.files(__package__) / "corpus" / name


def golden_path(name):
    stem = name.rsplit(".", 1)[0]
    return resources.files(__package__) / "corpus" / "golden" / f"{stem}.json"


def run_corpus(cfg=None, write_golden=False, out=None):
    """Run every shipped session and compare against its golden report.

    Returns 0 when every report matches its golden byte for byte after the
    timing fields are stripped.
    """
    if cfg is None:
        cfg = RunConfig.from_environment()
    if out is None:
        out = sys.stdout
    status = 0
    for name in CORPUS_SESSIONS:
        text = corpus_path(name).read_text(encoding="utf-8")
        session = parse_session(text)
        report, code = run(session, cfg, session_name=name)
        if code != 0:
            print(f"FAIL {name}: command failures", file=out)
            status = 2
            continue
        payload = report_to_json(strip_timing(report))
        gpath = golden_path(name)
        if write_golden:
            with open(str(gpath), "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"WROTE {name}", file=out)
            continue
        try:
            golden = gpath.read_text(encoding="utf-8")
        except FileNotFoundError:
            print(f"FAIL {name}: golden report missing", file=out)
            status = 2
            continue
        if payload == golden:
            print(f"PASS {name}", file=out)
        else:
            print(f"FAIL {name}: report differs from golden", file=out)
            status = 2
    return status


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_config(args):
    """The run configuration of the arguments; LND_SEED is read only when
    --seed is absent, and a malformed one raises ValueError."""
    cfg = RunConfig(seed=default_seed() if args.seed is None else args.seed)
    if args.pair_budget is not None:
        cfg.pair_budget = args.pair_budget
    if args.dim_budget is not None:
        cfg.dim_budget = args.dim_budget
    return cfg


def _non_negative(text):
    """argparse type of a budget: an integer, 0 or more, in ASCII digits."""
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"expected an integer 0 or more, got {text!r}")
    return ascii_int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lnd",
        description="Analyze locally nilpotent derivations on finitely "
                    "generated Q-algebras")
    sub = parser.add_subparsers(dest="action", required=True)
    runp = sub.add_parser("run", help="run a session file")
    runp.add_argument("file")
    runp.add_argument("--json", dest="json_out", metavar="OUT",
                      help="write the JSON report to OUT")
    corpusp = sub.add_parser("corpus",
                             help="run the shipped corpus against goldens")
    corpusp.add_argument("--write-golden", action="store_true",
                         help="regenerate the golden reports")
    for p in (runp, corpusp):
        p.add_argument("--seed", type=ascii_int, default=None)
        p.add_argument("--pair-budget", type=_non_negative, default=None)
        p.add_argument("--dim-budget", type=_non_negative, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # -h exits 0; a usage error is exit 1, like a parse error
        return 1 if exc.code else 0
    try:
        cfg = _build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.action == "corpus":
        return run_corpus(cfg, write_golden=args.write_golden)

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        session = parse_session(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    report, code = run(session, cfg, session_name=args.file)
    payload = report_to_json(report)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
