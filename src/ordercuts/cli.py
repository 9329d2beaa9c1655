"""Batch front end: parse definition files, run analyses, emit reports.

Definition files hold `let NAME = <expr>` lines (comments with `#`), where an
expression is a cardinal, a cardinal set, an order term, a group or field
descriptor, or a concrete element literal.  Commands run over the applicable
definitions and print either aligned text or a line-oriented machine format
that parses back into records.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import GeneratorType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import oracle as orc
from .cardinals import ALEPH0, Card, CardSet, CofPair, ONE, OrdinalIndex, aleph
from .chains import IntChain, LexChain
from .errors import DomainError, OrderCutsError, ParseError
from .order_terms import (
    Atom,
    CardinalSchedule,
    EMPTY,
    LexRefined,
    LexSchedule,
    OrderTerm,
    PhiMap,
    PhiPiece,
    DOM_DEFAULT,
    DOM_ONE,
    DOM_SEG,
    DOM_SINGLE,
    PHI_SUCC,
    RULE_DSUCC,
    RULE_ID,
    RULE_SUCC,
    cf,
    chain,
    check_side_conditions,
    ci,
    coin_cofin,
    completeness_predicates,
    completion,
    cut_spectrum,
    extend_order,
    rev,
    sum_of,
    well,
)
from .struct_classify import (
    ComponentAssignment,
    ComponentKind,
    FieldDescriptor,
    GroupDescriptor,
    Residue,
    classify_field,
    classify_group,
    extend_field,
    extend_group,
)

if TYPE_CHECKING:
    from .hahn_concrete import HahnElement

STRUCTURE_TYPES = (GroupDescriptor, FieldDescriptor)

_TOKEN_RE = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|<=|[(){}\[\],;=<>:+*^/-])
  | (?P<bad>.+)
""", re.VERBOSE | re.DOTALL)


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    pos: int


def _drive(reader):
    """Run `reader` to its value.  A reader is a generator that yields a
    reader for each nested construct it needs and is sent back that
    construct's value; the open readers wait on a list, so nesting costs no
    Python frames.  A reader hands a nested term here rather than taking it
    with `yield from`, which re-enters every open level on each send."""
    stack = []
    value = None
    while True:
        try:
            child = reader.send(value)
        except StopIteration as done:
            if not stack:
                return done.value
            reader, value = stack.pop(), done.value
        else:
            stack.append(reader)
            reader, value = child, None


def _renamed(kv: Dict[str, object], **names: str) -> Dict[str, object]:
    """`kv` with each key of `names` renamed to its value there."""
    return {names.get(key, key): value for key, value in kv.items()}


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """`message` as a parse error at the line and column of `text[pos]`."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


Definition = Tuple[str, object]


class Parser:
    """Descent over the token list with an environment of earlier
    definitions for name references.  A construct that holds order terms is
    read by a reader (see `_drive`), so order terms, and the lexicographic
    products, groups and fields over them, nest to any depth."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.env: Dict[str, object] = {}
        self.order: List[str] = []

    # -- token plumbing ------------------------------------------------------

    def _tokenize(self, text: str) -> List[Token]:
        """One pass: whitespace and comments match unnamed groups and drop
        out, and the catch-all `bad` group takes the rest of the text from
        the first character no token starts with."""
        tokens = [Token(m.lastgroup, m.group(), m.start())
                  for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        if tokens and tokens[-1].kind == "bad":
            raise self.error(f"unexpected character {tokens[-1].text[0]!r}", tokens[-1])
        tokens.append(Token("eof", "", len(text)))
        return tokens

    def error(self, message: str, tok: Token) -> ParseError:
        """`message` as a parse error at the line and column of `tok`."""
        return _error_at(self.text, tok.pos, message)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token when it reads `text`."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def expect_int(self, message: str) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise self.error(message, tok)
        return int(tok.text)

    def choose(self, table: dict, message: str):
        """`table[text]` for the text of the next token; `message`, located
        at that token, when the text is not a key of `table`."""
        tok = self.next()
        if tok.text not in table:
            raise self.error(message, tok)
        return table[tok.text]

    def fail(self, message: str):
        tok = self.peek()
        raise self.error(message + f" (at {tok.text!r})", tok)

    def located(self, tok: Token, build, *args, **kwargs):
        """`build(*args, **kwargs)`, with a library error it raises reported
        as a parse error at `tok`."""
        try:
            return build(*args, **kwargs)
        except OrderCutsError as exc:
            raise self.error(str(exc), tok) from None

    def parse_list(self, open_: str, close: str, item, nonempty: bool = False) -> list:
        """`item`s between `open_` and `close`, with a comma between each
        pair and none after the last; a `nonempty` list holds at least one."""
        self.expect(open_)
        out = []
        if nonempty or self.peek().text != close:
            out.append(item())
            while self.accept(","):
                out.append(item())
        self.expect(close)
        return out

    def parse_block(self, head: str, spec, required=()):
        """Reader of `key=value` entries separated by `;`, then the closing
        `)`.  Each key of `spec`, which maps it to the parser of its value,
        appears at most once and every `required` key appears; `card` is
        written `card<=`.  A value parser that returns a reader has the
        driver read the value."""
        out: Dict[str, object] = {}
        while True:
            key_tok = self.next()
            key = key_tok.text
            if key not in spec:
                raise self.error(f"unknown key {key!r}", key_tok)
            if key in out:
                raise self.error(f"duplicate key {key!r}", key_tok)
            self.expect("<=" if key == "card" else "=")
            value = spec[key]()
            if isinstance(value, GeneratorType):
                value = yield value
            out[key] = value
            if not self.accept(";"):
                break
        self.expect(")")
        for key in required:
            if key not in out:
                self.fail(f"{head} needs {key}=")
        return out

    # -- entry ----------------------------------------------------------------

    def parse_file(self) -> List[Definition]:
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.text != "let":
                raise self.error(f"expected 'let', found {tok.text!r}", tok)
            name_tok = self.next()
            if name_tok.kind != "name":
                raise self.error("expected a definition name", name_tok)
            self.expect("=")
            value = self.parse_expr()
            if name_tok.text in self.env:
                raise self.error(f"duplicate definition {name_tok.text}", name_tok)
            self.env[name_tok.text] = value
            self.order.append(name_tok.text)
        return [(n, self.env[n]) for n in self.order]

    # -- expressions -----------------------------------------------------------

    TERM_HEADS = {"empty", "chain", "well", "rev", "sum", "comp", "atom",
                  "lexsched", "lexref"}

    def parse_expr(self):
        tok = self.peek()
        if tok.text == "{":
            return self.parse_cardset()
        if tok.text == "1" or tok.text == "aleph":
            return self.parse_cardinal()
        if tok.kind == "int":
            self.fail("a bare number is not an expression")
        if tok.text in self.TERM_HEADS:
            return self.parse_term_ref()
        if tok.text == "group":
            return _drive(self._group())
        if tok.text == "field":
            return _drive(self._field())
        if tok.text in ("hahn", "series"):
            return self.parse_hahn()
        if tok.kind == "name":
            return self.lookup(self.next())
        self.fail("cannot parse expression")

    def lookup(self, tok: Token):
        if tok.text not in self.env:
            raise self.error(f"undefined name {tok.text}", tok)
        return self.env[tok.text]

    # -- cardinals and sets -----------------------------------------------------

    def parse_cardinal(self) -> Card:
        tok = self.next()
        if tok.text == "1":
            return ONE
        if tok.text != "aleph":
            raise self.error(f"expected a cardinal, found {tok.text!r}", tok)
        self.expect("(")
        idx = self.parse_ordinal()
        self.expect(")")
        return aleph(idx)

    def parse_ordinal(self) -> OrdinalIndex:
        """An ordinal in Cantor normal form, its terms as written; a lone
        `0` is zero."""
        first = self.peek()
        terms: List[Tuple[int, int]] = []
        while True:
            tok = self.next()
            if tok.kind == "int":
                terms.append((0, int(tok.text)))
            elif tok.text == "w":
                exp = self.expect_int("expected an exponent") if self.accept("^") else 1
                coeff = self.expect_int("expected a coefficient") if self.accept("*") else 1
                terms.append((exp, coeff))
            else:
                raise self.error(f"expected an ordinal term, found {tok.text!r}", tok)
            if not self.accept("+"):
                break
        if terms == [(0, 0)]:
            terms = []
        return self.located(first, OrdinalIndex, tuple(terms))

    def parse_cardset(self) -> CardSet:
        return CardSet.empty().union(*self.parse_list("{", "}", self._parse_cardset_part))

    def _parse_cardset_part(self) -> CardSet:
        if self.accept("reg"):
            self.expect("<")
            return CardSet.segment_below(self.parse_cardinal())
        tok = self.peek()
        return self.located(tok, CardSet.singleton, self.parse_cardinal())

    def parse_pair(self) -> CofPair:
        tok = self.expect("(")
        left = self.parse_cardinal()
        self.expect(",")
        right = self.parse_cardinal()
        self.expect(")")
        return self.located(tok, CofPair, left, right)

    # -- order terms -------------------------------------------------------------

    def parse_term_ref(self) -> OrderTerm:
        """An order term or the name of one."""
        return _drive(self._term())

    def _term(self):
        """Reader of an order term or the name of one."""
        tok = self.peek()
        if tok.kind != "name":
            self.fail("expected an order term")
        self.pos += 1
        head = tok.text
        if head in ("rev", "comp"):
            self.expect("(")
            inner = yield self._term()
            self.expect(")")
            return rev(inner) if head == "rev" else completion(inner)
        if head == "sum":
            self.expect("(")
            parts = [(yield self._term())]
            while self.accept(","):
                parts.append((yield self._term()))
            self.expect(")")
            return sum_of(*parts)
        if head == "empty":
            return EMPTY
        if head == "chain":
            self.expect("(")
            size = self.expect_int("chain needs a size")
            self.expect(")")
            return chain(size)
        if head == "well":
            self.expect("(")
            k = self.parse_cardinal()
            self.expect(")")
            return self.located(tok, well, k)
        if head in ("atom", "lexsched", "lexref"):
            return (yield from getattr(self, "_" + head)())
        value = self.lookup(tok)
        if not isinstance(value, OrderTerm):
            raise self.error(f"{head} is not an order term", tok)
        return value

    def _atom(self):
        self.expect("(")
        name_tok = self.next()
        if name_tok.kind != "name":
            raise self.error("atom needs a name", name_tok)
        fields: Dict[str, object] = {}
        if self.accept(";"):
            fields = yield from self.parse_block("atom", {
                "cf": self.parse_cardinal, "ci": self.parse_cardinal,
                "coin": self.parse_cardset, "cofin": self.parse_cardset,
                "card": self.parse_cardinal,
                "cuts": lambda: tuple(self.parse_list("{", "}", self.parse_pair)),
            })
        else:
            self.expect(")")
        return self.located(name_tok, Atom, name_tok.text,
                            fields.get("cf", ALEPH0), fields.get("ci", ALEPH0),
                            fields.get("coin", CardSet.empty()),
                            fields.get("cofin", CardSet.empty()),
                            fields.get("card"), fields.get("cuts"))

    def _parse_rule(self) -> int:
        return self.choose({"id": RULE_ID, "plus": RULE_SUCC, "plusplus": RULE_DSUCC},
                           "successor rule is id/plus/plusplus")

    def _lexsched(self):
        self.expect("(")
        card, rule = self.parse_cardinal, self._parse_rule
        kv = yield from self.parse_block("lexsched", {
            "mu": card, "k0": card, "l0": card, "k1": card, "l1": card,
            "succ": rule, "ksucc": rule, "lsucc": rule,
            "lim": self._parse_lim, "klim": card, "llim": card,
            "i": self._term,
        }, required=("mu", "k0", "l0", "k1", "l1"))
        # `succ` and `lim` stand for both their k and l keys, and the
        # schedule's own defaults fill what is left out (`lim=v1` is one)
        lim = kv.get("lim")
        lim = {"mu": kv["mu"], "v1": None}.get(lim, lim)
        shared = {"ksucc": kv.get("succ"), "lsucc": kv.get("succ"), "klim": lim, "llim": lim}
        given = {key: kv.get(key, value) for key, value in shared.items()}
        sched = CardinalSchedule(kv["k1"], kv["l1"],
                                 **{key: v for key, v in given.items() if v is not None})
        return LexSchedule(kv["mu"], kv["k0"], kv["l0"], sched, kv.get("i", EMPTY))

    def _parse_lim(self):
        tok = self.peek()
        if tok.text in ("v1", "mu"):
            self.next()
            return tok.text
        return self.parse_cardinal()

    def parse_phimap(self) -> PhiMap:
        return PhiMap(tuple(self.parse_list("[", "]", self._parse_phi_piece)))

    def _parse_phi_piece(self) -> PhiPiece:
        tok = self.peek()
        if self.accept("1"):
            dom_kind, dom_card = DOM_ONE, None
        elif self.accept("default"):
            dom_kind, dom_card = DOM_DEFAULT, None
        elif self.accept("reg"):
            self.expect("<")
            dom_kind, dom_card = DOM_SEG, self.parse_cardinal()
        else:
            dom_kind, dom_card = DOM_SINGLE, self.parse_cardinal()
        self.expect("->")
        value = PHI_SUCC if self.accept("succ") else self.parse_cardinal()
        return self.located(tok, PhiPiece, dom_kind, dom_card, value)

    def _lexref(self):
        self.expect("(")
        card = self.parse_cardinal
        kv = yield from self.parse_block("lexref", {
            "mu": card, "k0": card, "l0": card, "phil": self.parse_phimap,
            "phir": self.parse_phimap, "i": self._term,
        }, required=("mu", "k0", "l0", "phil", "phir"))
        return LexRefined(kv["mu"], kv["k0"], kv["l0"], kv["phil"], kv["phir"],
                          kv.get("i", EMPTY))

    # -- descriptors -------------------------------------------------------------

    def _parse_bool(self) -> bool:
        return self.choose({"true": True, "false": False}, "expected true/false")

    _KINDS = {str(kind): kind for kind in ComponentKind}
    _TOP_KINDS = {f"{kind}_at_top": kind for kind in ComponentKind}
    _RESIDUES = {str(residue): residue for residue in Residue}

    def _parse_comp(self) -> ComponentAssignment:
        base = self.choose(self._KINDS, "component kind is reals/ints/dense")
        if self.accept("+"):
            return ComponentAssignment(
                base, self.choose(self._TOP_KINDS, "expected <kind>_at_top"))
        return ComponentAssignment(base)

    def _group(self):
        head = self.next()
        self.expect("(")
        boolean = self._parse_bool
        kv = yield from self.parse_block("group", {
            "vset": self._term, "comp": self._parse_comp,
            "spherical": boolean, "discrete": boolean, "divisible": boolean,
        }, required=("vset",))
        return self.located(head, GroupDescriptor,
                            **_renamed(kv, vset="value_set", comp="components"))

    def _field(self):
        head = self.next()
        self.expect("(")

        def group_ref():
            tok = self.peek()
            if tok.text == "group":
                return self._group()
            value = self.lookup(self.next())
            if not isinstance(value, GroupDescriptor):
                raise self.error(f"{tok.text} is not a group descriptor", tok)
            return value

        kv = yield from self.parse_block("field", {
            "group": group_ref,
            "residue": lambda: self.choose(self._RESIDUES, "residue is reals/proper"),
            "realclosed": self._parse_bool, "spherical": self._parse_bool,
        }, required=("group",))
        return self.located(head, FieldDescriptor,
                            **_renamed(kv, group="value_group", realclosed="real_closed"))

    # -- concrete elements ---------------------------------------------------------

    def _parse_index_chain(self, factor: bool = False):
        """An index chain; a `factor` of a `lex(...)` is int/rat/fin(n), since
        a nested product is the flat one with its factors in order."""
        from . import hahn_concrete as hc
        tok = self.next()
        if tok.text == "int":
            return hc.INT_CHAIN
        if tok.text == "rat":
            return hc.RAT_CHAIN
        if tok.text == "fin":
            self.expect("(")
            size = self.expect_int("fin(n) needs an integer size")
            self.expect(")")
            return self.located(tok, IntChain, 0, size)
        if tok.text == "lex":
            if factor:
                raise self.error("a lex factor is int/rat/fin(n)", tok)
            return LexChain(tuple(self.parse_list(
                "(", ")", lambda: self._parse_index_chain(True), nonempty=True)))
        raise self.error("index chain is int/rat/fin(n)/lex(...)", tok)

    def _parse_rational(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        num = self.expect_int("expected a rational")
        if self.accept("/"):
            den_tok = self.peek()
            den = self.expect_int("expected a denominator")
            if den == 0:
                raise self.error("zero denominator", den_tok)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def _parse_point(self, chain_):
        from . import hahn_concrete as hc
        if isinstance(chain_, hc.ExponentGroup):
            # the coordinate count is checked by make, located at the head
            return tuple(self.parse_list("(", ")", self._parse_rational,
                                         nonempty=chain_.dims > 0))
        if isinstance(chain_, LexChain):
            factors = iter(chain_.factors)

            def coordinate():
                factor = next(factors, None)
                if factor is None:
                    raise self.error(f"{chain_} points have {len(chain_.factors)} "
                                     "coordinates", self.tokens[self.pos - 1])
                return self._parse_point(factor)
            return tuple(self.parse_list("(", ")", coordinate, nonempty=True))
        value = self._parse_rational()
        if isinstance(chain_, IntChain):
            if value.denominator != 1:
                raise self.error("integer point expected", self.peek())
            return int(value)
        return value

    def parse_hahn(self) -> HahnElement:
        """hahn(chain=C; p:c, ...) or series(exp=lexN; (q, ...):c, ...).  The
        first such literal loads `hahn_concrete`; a file without one never
        does."""
        from . import hahn_concrete as hc
        head = self.next()
        self.expect("(")
        if head.text == "hahn":
            self.expect("chain")
            self.expect("=")
            chain_ = self._parse_index_chain()
        else:
            self.expect("exp")
            self.expect("=")
            tok = self.next()
            m = re.fullmatch(r"lex(\d+)", tok.text)
            if not m:
                raise self.error("exponent group is lexN", tok)
            chain_ = hc.ExponentGroup(int(m.group(1)))

        def term():
            point = self._parse_point(chain_)
            self.expect(":")
            return point, self._parse_rational()
        items = []
        if self.peek().text == ";":
            items = self.parse_list(";", ")", term)
        else:
            self.expect(")")
        return self.located(head, hc.HahnElement.make, chain_, items)


def parse_definitions(text: str) -> List[Definition]:
    return Parser(text).parse_file()


def _read_definitions(path: str) -> str:
    """The text of a definitions file, without one leading byte-order mark;
    the first byte that is not UTF-8 is a parse error at its line and
    column."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        text = handle.read()
    # surrogateescape reads each byte b that does not decode as U+DC00 + b
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        raise _error_at(text, bad.start(),
                        f"byte 0x{ord(bad.group()) - 0xdc00:02x} is not valid UTF-8")
    return text


def print_definitions(defs: List[Definition]) -> str:
    return "".join(f"let {name} = {value}\n" for name, value in defs)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

STATUS_OK, STATUS_FAIL, STATUS_ERROR = "ok", "fail", "error"


@dataclass
class ReportItem:
    name: str
    kind: str
    records: List[Dict[str, str]]
    status: str


@dataclass
class Report:
    command: str
    items: List[ReportItem]

    @property
    def exit_status(self) -> int:
        if any(item.status == STATUS_ERROR for item in self.items):
            return 2
        if any(item.status == STATUS_FAIL for item in self.items):
            return 1
        return 0

    def render_machine(self) -> str:
        lines = [f"rec=report|cmd={self.command}"]
        for item in self.items:
            lines.append(f"rec=item|name={item.name}|kind={item.kind}")
            for record in item.records:
                body = "|".join(f"{k}={v}" for k, v in record.items())
                lines.append(f"rec=row|name={item.name}|{body}")
            lines.append(f"rec=status|name={item.name}|value={item.status}")
        lines.append(f"rec=exit|value={self.exit_status}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        for item in self.items:
            lines.append("")
            lines.append(f"== {item.name} ({item.kind}) ==")
            for record in item.records:
                body = "  ".join(f"{k}={v}" for k, v in record.items())
                lines.append("  " + body)
            lines.append(f"  status: {item.status}")
        lines.append("")
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines) + "\n"


def parse_machine_report(text: str):
    """Parse the machine format back into (command, rows) records."""
    command = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = {}
        for chunk in line.split("|"):
            key, _, value = chunk.partition("=")
            fields[key] = value
        if fields.get("rec") == "report":
            command = fields["cmd"]
        rows.append(fields)
    if command is None:
        raise ParseError("machine report lacks its header line")
    return command, rows


def _fmt_bool(b) -> str:
    if b is None:
        return "n/a"
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _spectrum_records(term: OrderTerm, records, depth: int, bound: Optional[Card]) -> str:
    spec = cut_spectrum(term)
    coin, cofin = coin_cofin(term)
    cf_t, ci_t = cf(term), ci(term)
    records.append({"cf": str(cf_t), "ci": str(ci_t),
                    "coin": str(coin), "cofin": str(cofin)})
    records.extend({"part": line} for line in spec.render_lines())
    comp = completeness_predicates(term)
    records.append({"symmetric": _fmt_bool(comp.symmetric),
                    "strong": _fmt_bool(comp.strong),
                    "extreme": _fmt_bool(comp.extreme),
                    "spherical_balls": _fmt_bool(comp.spherical_balls)})
    if bound is not None:
        records.extend({"below": str(bound), "pair": str(pair)}
                       for pair in sorted(spec.pairs_below(bound)))
    return STATUS_OK


def _verdict_records(v) -> List[Dict[str, str]]:
    records = [{"symmetric": _fmt_bool(v.symmetric), "strong": _fmt_bool(v.strong),
                "extreme": _fmt_bool(v.extreme),
                "symmetric_d": _fmt_bool(v.symmetric_d),
                "extreme_d": _fmt_bool(v.extreme_d),
                "spherical_balls": _fmt_bool(v.spherical_balls)}]
    for fact in v.facts:
        records.append({"fact": fact})
    return records


def _classify(value):
    return (classify_group if isinstance(value, GroupDescriptor) else classify_field)(value)


def _classify_records(value, records, depth: int, bound: Optional[Card]) -> str:
    records.extend(_verdict_records(_classify(value)))
    return STATUS_OK


def _extend_records(value, records, depth: int, bound: Optional[Card]) -> str:
    if isinstance(value, OrderTerm):
        ext = extend_order(value)
        comp = completeness_predicates(ext.term)
        records.extend([{"mu": str(ext.mu), "k1": str(ext.k1), "l1": str(ext.l1),
                         "base": str(ext.base)},
                        {"note": ext.note},
                        {"term": str(ext.term)},
                        {"extreme": _fmt_bool(comp.extreme)}])
        return STATUS_OK
    ext = (extend_group if isinstance(value, GroupDescriptor) else extend_field)(value)
    verdict = _classify(ext.descriptor)
    records.extend([{"mu": str(ext.recipe.mu), "k1": str(ext.recipe.k1),
                     "l1": str(ext.recipe.l1)},
                    {"descriptor": str(ext.descriptor)},
                    *_verdict_records(verdict)])
    return STATUS_OK


def _conditions_records(term: OrderTerm, records, depth: int, bound: Optional[Card]) -> str:
    checks = check_side_conditions(term)
    records.extend({"condition": c.name,
                    "verdict": "pass" if c.passed else "fail",
                    **({"detail": c.detail} if c.detail else {})}
                   for c in checks)
    return STATUS_OK if all(c.passed for c in checks) else STATUS_FAIL


def _verify_records(term: OrderTerm, records, depth: int, bound: Optional[Card]) -> str:
    report = orc.spectrum_soundness(term, depth)
    records.extend({"line": line} for line in report.render_lines())
    records.append({"note": report.note})
    return STATUS_OK if report.ok else STATUS_FAIL


# command -> (the definition types it reports on, the function that appends
# one definition's records and returns its status)
COMMANDS = {
    "spectrum": (OrderTerm, _spectrum_records),
    "classify": (STRUCTURE_TYPES, _classify_records),
    "extend": ((OrderTerm,) + STRUCTURE_TYPES, _extend_records),
    "verify": (OrderTerm, _verify_records),
    "check-conditions": ((LexSchedule, LexRefined), _conditions_records),
}


def run(defs: List[Definition], command: str, depth: int = 100,
        bound: Optional[Card] = None) -> Report:
    """Report `command` on each definition of the types it applies to.  An
    error stops that definition's records with an error record."""
    if command not in COMMANDS:
        raise DomainError(f"unknown command {command!r}; known: {', '.join(COMMANDS)}")
    types, records_of = COMMANDS[command]
    items: List[ReportItem] = []
    for name, value in defs:
        if not isinstance(value, types):
            continue
        kind = "group" if isinstance(value, GroupDescriptor) else \
            "field" if isinstance(value, FieldDescriptor) else "order"
        records: List[Dict[str, str]] = []
        try:
            status = records_of(value, records, depth, bound)
        except OrderCutsError as exc:
            records.append({"error": str(exc)})
            status = STATUS_ERROR
        items.append(ReportItem(name, kind, records, status))
    return Report(command, items)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ordercuts",
        description="cut-cofinality analyses over order and structure definitions")
    ap.add_argument("--in", dest="infile", required=True, help="definitions file")
    ap.add_argument("--cmd", dest="command", required=True, choices=COMMANDS)
    ap.add_argument("--depth", type=int, default=100, help="witness depth")
    ap.add_argument("--bound", default=None,
                    help="enumeration bound aleph(n) with finite n, e.g. aleph(3)")
    ap.add_argument("--format", dest="fmt", choices=("text", "machine"),
                    default="text")
    args = ap.parse_args(argv)
    if args.depth < 1:
        ap.error(f"--depth must be at least 1, got {args.depth}")
    bound = None
    if args.bound is not None:
        try:
            bound_parser = Parser(args.bound)
            bound = bound_parser.parse_cardinal()
            if bound_parser.peek().kind != "eof":
                bound_parser.fail("trailing text after the cardinal")
        except OrderCutsError as exc:
            ap.error(f"--bound {args.bound!r}: {exc}")
        if not (bound.is_infinite and bound.index.is_finite_number()):
            ap.error(f"--bound must be aleph(n) with finite n, got {bound}")

    try:
        defs = parse_definitions(_read_definitions(args.infile))
    except (OSError, OrderCutsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    report = run(defs, args.command, depth=args.depth, bound=bound)
    out = report.render_machine() if args.fmt == "machine" else report.render_text()
    sys.stdout.write(out)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
