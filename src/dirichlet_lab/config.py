"""Run configuration: a small sectioned key=value text format.

One section, ``[run]``.  Comments start with ``#``.  Values are the text
after the first ``=``, kept verbatim as (key, text) lines in file order.
This module checks only the format: which keys a subcommand reads, how
each converts, and which may repeat (one line per value) is declared
once, in that subcommand's parameter table in ``cli``.  Declaration
strings for measures, maps, and trajectory families are stored verbatim
so a parsed config serializes back to the same declarations; dedicated
parsers below turn them into library objects on demand.

Measure/map/trajectory declaration grammars:

    measure    = lebesgue d=<dim> box=<lo,hi[,lo,hi...]>
               | ifs ratios=<r1,...> trans=<b1,...> [probs=<p1,...>]
    map        = veronese n=<deg>
               | poly d=<dim> n=<coords> f1=<poly> ... f<coords>=<poly>
    trajectory = ray central t=<start>:<step>:<count>
               | ray r=<r1,...> s=<s1,...> t=<start>:<step>:<count>
               | explicit <t1> <t2> ... <tk>        (repeatable)

Polynomials are '+'-joined terms; a term is an optional rational
coefficient and '*'-joined factors ``x<i>`` or ``x<i>^<e>``, e.g.
``f2=x1^2-2*x1+1`` or ``f1=1/3*x2``.  No spaces inside a declaration
token.  A map's d, and a Veronese n, are at most ``MAX_MAP_DIM``; a
ray's count is at most ``MAX_RAY_COUNT``.

Every number, here or in ``cli``, reads one grammar (``_rational``): an
integer, a decimal or a rational such as ``1/3``; NaN, infinities, values
beyond the float range and exponents of five digits or more are refused.
Form entries and polynomial coefficients stay exact; every other number
is correctly rounded to a float (``_num``).  A list (``_num_list``), like
a row of forms, separates its numbers by commas or whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .flows import MAX_FORMS, LinearFormSystem, WeightVector
from .lattice import MAX_DIM
from .measures import MAX_MAP_DIM, LebesgueBox, MapSpec, MeasureSpec, SelfSimilarIFS

# most weight vectors one ray schedule may list: its text does not bound
# the count, and every vector is built before any run starts
MAX_RAY_COUNT = 10_000

# keys a run writes first, in this order (report format 1); the rest follow
# in the order the run resolved them
_HEAD_KEYS = ("seed", "output", "eps", "samples", "margin", "measure", "map",
              "trajectory")


@dataclass(frozen=True)
class RunConfig:
    """An experiment name and its (key, text) lines, round-trippable."""

    experiment: str
    entries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.experiment:
            raise ParameterError("experiment name must be nonempty")
        object.__setattr__(self, "entries", tuple(
            (str(k), str(v)) for k, v in self.entries
        ))

    def values(self, key: str) -> tuple[str, ...]:
        """The texts given for ``key``, in order; () when absent."""
        return tuple(v for k, v in self.entries if k == key)

    def to_text(self) -> str:
        head = [e for key in _HEAD_KEYS for e in self.entries if e[0] == key]
        rest = [e for e in self.entries if e[0] not in _HEAD_KEYS]
        lines = ["[run]", "experiment = %s" % self.experiment]
        lines.extend("%s = %s" % entry for entry in head + rest)
        return "\n".join(lines) + "\n"


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_config(text: str) -> RunConfig:
    """Parse the sectioned key=value format; only the format is checked."""
    experiment = None
    entries = []
    in_run = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != "run":
                raise ParameterError("line %d: unknown section [%s]" % (lineno, name))
            in_run = True
            continue
        if "=" not in line:
            raise ParameterError("line %d: expected key = value" % lineno)
        if not in_run:
            raise ParameterError("line %d: key before [run] section" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "experiment":
            entries.append((key, value))
        elif experiment is not None:
            raise ParameterError("line %d: duplicate key %r" % (lineno, key))
        else:
            experiment = value
    if experiment is None:
        raise ParameterError("config is missing the experiment key")
    return RunConfig(experiment, tuple(entries))


# ---------------------------------------------------------------------------
# declaration parsers
# ---------------------------------------------------------------------------


def _kv_tokens(tokens, context: str) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParameterError("%s: expected key=value, got %r" % (context, tok))
        key, _, value = tok.partition("=")
        if key in out:
            raise ParameterError("%s: duplicate %r" % (context, key))
        out[key] = value
    return out


def _rational(tok: str, context: str) -> Fraction:
    """One number, exact: an integer, a decimal or a rational such as 1/3.

    A value beyond the float range is refused, and so is an exponent of five
    digits or more, whose exact value would take minutes to build.
    """
    try:
        if len(tok.lower().partition("e")[2].replace("_", "").lstrip("+-0")) > 4:
            raise ValueError(tok)
        value = Fraction(tok)
        float(value)  # OverflowError beyond the float range
        return value
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError("%s: bad number %r" % (context, tok)) from None


def _num(tok: str, context: str = "number") -> float:
    """One number, correctly rounded to a float."""
    return float(_rational(tok, context))


def _num_list(text: str, context: str = "numbers") -> tuple:
    return tuple(_num(tok, context) for tok in text.replace(",", " ").split())


def parse_measure(decl: str) -> MeasureSpec:
    tokens = decl.split()
    if not tokens:
        raise ParameterError("empty measure declaration")
    kind, rest = tokens[0], tokens[1:]
    if kind == "lebesgue":
        kv = _kv_tokens(rest, "measure lebesgue")
        if set(kv) != {"d", "box"}:
            raise ParameterError("measure lebesgue takes exactly d= and box=")
        try:
            d = int(kv["d"])
        except ValueError:
            raise ParameterError("measure lebesgue: d must be an integer")
        nums = _num_list(kv["box"], "measure lebesgue")
        if len(nums) != 2 * d:
            raise ParameterError(
                "measure lebesgue: box needs %d numbers (lo,hi per axis), got %d"
                % (2 * d, len(nums)))
        return LebesgueBox(nums[0::2], nums[1::2])
    if kind == "ifs":
        kv = _kv_tokens(rest, "measure ifs")
        if not {"ratios", "trans"} <= set(kv) or not set(kv) <= {"ratios", "trans", "probs"}:
            raise ParameterError("measure ifs takes ratios=, trans= and optional probs=")
        ratios = _num_list(kv["ratios"], "measure ifs")
        trans = _num_list(kv["trans"], "measure ifs")
        d = len(trans) // max(len(ratios), 1)
        if d < 1 or len(trans) != d * len(ratios):
            raise ParameterError("measure ifs: trans needs d numbers per map, a multiple "
                                 "of the %d ratios, got %d" % (len(ratios), len(trans)))
        trans = [trans[i:i + d] for i in range(0, len(trans), d)]
        if "probs" in kv:
            probs = _num_list(kv["probs"], "measure ifs")
        else:
            probs = tuple(1.0 / len(ratios) for _ in ratios) if ratios else ()
        return SelfSimilarIFS(ratios, trans, probs)
    raise ParameterError("unknown measure kind %r" % kind)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _parse_poly(text: str, dim: int, context: str) -> tuple:
    """'+'-joined terms -> ((coeff, exponents), ...) for MapSpec."""
    terms = []
    # '-' starts a new negative term unless an explicit '+' already does
    normalized = re.sub(r"(?<=[^+])-", "+-", text)
    for pos, chunk in enumerate(normalized.split("+")):
        if chunk == "":
            if pos == 0:
                continue  # leading sign leaves an empty first chunk
            raise ParameterError("%s: dangling '+' in %r" % (context, text))
        negative = chunk.startswith("-")
        if negative:
            chunk = chunk[1:]
        if chunk == "":
            raise ParameterError("%s: dangling sign in %r" % (context, text))
        coeff = Fraction(-1 if negative else 1)
        exponents = [0] * dim
        for factor in chunk.split("*"):
            match = _FACTOR_RE.match(factor)
            if match:
                i = int(match.group(1))
                if not 1 <= i <= dim:
                    raise ParameterError(
                        "%s: variable x%d out of range for d=%d" % (context, i, dim))
                exponents[i - 1] += int(match.group(2) or 1)
            else:
                coeff *= _rational(factor, context)
        terms.append((coeff, tuple(exponents)))
    if not terms:
        raise ParameterError("%s: empty polynomial" % context)
    return tuple(terms)


def parse_map(decl: str) -> MapSpec:
    tokens = decl.split()
    if not tokens:
        raise ParameterError("empty map declaration")
    kind, rest = tokens[0], tokens[1:]
    kv = _kv_tokens(rest, "map %s" % kind)
    if kind == "veronese":
        if set(kv) != {"n"}:
            raise ParameterError("map veronese takes exactly n=")
        try:
            n = int(kv["n"])
        except ValueError:
            raise ParameterError("map veronese: n must be an integer") from None
        return MapSpec.veronese(n)
    if kind == "poly":
        if not {"d", "n"} <= set(kv):
            raise ParameterError("map poly needs d= and n=")
        try:
            d, n = int(kv["d"]), int(kv["n"])
        except ValueError:
            raise ParameterError("map poly: d and n must be integers")
        # sizes the text does not bound are refused before anything that size is built
        if d > MAX_MAP_DIM:
            raise ParameterError("map poly: d must be at most %d" % MAX_MAP_DIM)
        if n != len(kv) - 2:
            raise ParameterError("map poly n=%d takes exactly keys f1..f%d" % (n, n))
        expected = {"d", "n"} | {"f%d" % (i + 1) for i in range(n)}
        if set(kv) != expected:
            raise ParameterError(
                "map poly d=%d n=%d takes exactly keys %s" % (d, n, sorted(expected)))
        coords = tuple(
            _parse_poly(kv["f%d" % (i + 1)], d, "map poly f%d" % (i + 1))
            for i in range(n)
        )
        return MapSpec(d, n, coords)
    raise ParameterError("unknown map kind %r" % kind)


def _ray(text: str, point) -> tuple:
    """point(start + j * step) for j < count, from the schedule start:step:count."""
    try:
        start, step, count = text.split(":")
        count = int(count)
    except ValueError:
        raise ParameterError("ray schedule must be t=<start>:<step>:<count>, got %r"
                             % text) from None
    start, step = _num(start, "ray schedule"), _num(step, "ray schedule")
    if step <= 0 or not 1 <= count <= MAX_RAY_COUNT:
        raise ParameterError("need step > 0 and 1 <= count <= %d" % MAX_RAY_COUNT)
    return tuple(point(start + j * step) for j in range(count))


def parse_trajectory(records, m: int, n: int) -> tuple[WeightVector, ...]:
    """Records (one per line) -> the family's weight vectors, in order.

    Either exactly one ray record, or any number of explicit records
    forming one explicit list; mixing the two is an error.
    """
    if m + n > MAX_DIM:
        raise ParameterError("the lattice route needs m + n <= %d, got %d" % (MAX_DIM, m + n))
    records = [r.strip() for r in records if r.strip()]
    if not records:
        raise ParameterError("no trajectory records given")
    kinds = [r.split()[0] for r in records]
    if kinds.count("ray") > 1 or ("ray" in kinds and "explicit" in kinds):
        raise ParameterError("trajectory takes one ray or a list of explicit records")
    if kinds[0] == "ray":
        tokens = records[0].split()[1:]
        if tokens and tokens[0] == "central":
            kv = _kv_tokens(tokens[1:], "ray central")
            if set(kv) != {"t"}:
                raise ParameterError("ray central takes exactly t=start:step:count")
            return _ray(kv["t"], lambda scale: WeightVector.central(m, n, scale))
        kv = _kv_tokens(tokens, "ray")
        if set(kv) != {"r", "s", "t"}:
            raise ParameterError("weighted ray takes exactly r=, s=, t=")
        r, s = _num_list(kv["r"], "ray r"), _num_list(kv["s"], "ray s")
        if (len(r), len(s)) != (m, n):
            raise ParameterError("ray weights sized for m=%d, n=%d" % (len(r), len(s)))
        return _ray(kv["t"], lambda scale: WeightVector.weighted(r, s, scale))
    items = []
    for rec in records:
        kind, *rest = rec.split(None, 1)
        if kind != "explicit":
            raise ParameterError("unknown trajectory record %r" % rec)
        items.append(parse_weight_vector("".join(rest), m, n))
    return tuple(items)


def parse_forms(text: str, m: int, n: int) -> LinearFormSystem:
    """Rows ';'-separated, entries separated by commas or whitespace, kept exact."""
    if not (1 <= m <= MAX_FORMS and 1 <= n <= MAX_FORMS):
        raise ParameterError("m, n must be in [1, %d]" % MAX_FORMS)
    rows = [tuple(_rational(tok, "Y") for tok in chunk.replace(",", " ").split())
            for chunk in text.split(";")]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ParameterError("Y must be %d row(s) of %d entrie(s)" % (m, n))
    return LinearFormSystem.from_exact(rows)


def parse_weight_vector(text: str, m: int, n: int) -> WeightVector:
    """m+n weights, a number list."""
    values = _num_list(text, "weight vector")
    if len(values) != m + n:
        raise ParameterError("weight vector needs %d entries, got %d"
                             % (m + n, len(values)))
    return WeightVector(m, n, values)
