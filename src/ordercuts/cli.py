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
from typing import Dict, List, Optional, Tuple

from . import hahn_concrete as hc
from . import oracle as orc
from .cardinals import ALEPH0, Card, CardSet, CofPair, ONE, OrdinalIndex, aleph
from .errors import DomainError, OrderCutsError, ParseError
from .order_terms import (
    Atom,
    CardinalSchedule,
    Completion,
    EMPTY,
    Empty,
    FiniteChain,
    LexRefined,
    LexSchedule,
    OrderTerm,
    PhiMap,
    PhiPiece,
    Rev,
    Sum,
    WellOrder,
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
    spectrum_completeness,
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

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[(){}\[\],;=<>:+*^/-])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


Definition = Tuple[str, object]


class Parser:
    """Recursive descent over the token list with an environment of earlier
    definitions for name references."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env: Dict[str, object] = {}
        self.order: List[str] = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message + f" (at {tok.text!r})", tok.line, tok.col)

    # -- entry ----------------------------------------------------------------

    def parse_file(self) -> List[Definition]:
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.text != "let":
                raise ParseError(f"expected 'let', found {tok.text!r}",
                                 tok.line, tok.col)
            name_tok = self.next()
            if name_tok.kind != "name":
                raise ParseError("expected a definition name",
                                 name_tok.line, name_tok.col)
            self.expect("=")
            try:
                value = self.parse_expr()
            except RecursionError:
                # the descent recurses once per nesting level; report where
                # it stopped rather than raising the interpreter's limit
                tok = self.peek()
                raise ParseError("definition nested too deeply",
                                 tok.line, tok.col) from None
            if name_tok.text in self.env:
                raise ParseError(f"duplicate definition {name_tok.text}",
                                 name_tok.line, name_tok.col)
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
            return self.parse_term()
        if tok.text == "group":
            return self.parse_group()
        if tok.text == "field":
            return self.parse_field()
        if tok.text in ("hahn", "series"):
            return self.parse_hahn()
        if tok.kind == "name":
            return self.lookup(self.next())
        self.fail("cannot parse expression")

    def lookup(self, tok: Token):
        if tok.text not in self.env:
            raise ParseError(f"undefined name {tok.text}", tok.line, tok.col)
        return self.env[tok.text]

    # -- cardinals and sets -----------------------------------------------------

    def parse_cardinal(self) -> Card:
        tok = self.next()
        if tok.text == "1":
            return ONE
        if tok.text != "aleph":
            raise ParseError(f"expected a cardinal, found {tok.text!r}",
                             tok.line, tok.col)
        self.expect("(")
        idx = self.parse_ordinal()
        self.expect(")")
        return aleph(idx)

    def parse_ordinal(self) -> OrdinalIndex:
        terms: List[Tuple[int, int]] = []
        while True:
            tok = self.next()
            if tok.kind == "int":
                terms.append((0, int(tok.text)))
            elif tok.text == "w":
                exp = 1
                if self.peek().text == "^":
                    self.next()
                    exp_tok = self.next()
                    if exp_tok.kind != "int":
                        raise ParseError("expected an exponent", exp_tok.line, exp_tok.col)
                    exp = int(exp_tok.text)
                coeff = 1
                if self.peek().text == "*":
                    self.next()
                    coeff_tok = self.next()
                    if coeff_tok.kind != "int":
                        raise ParseError("expected a coefficient", coeff_tok.line, coeff_tok.col)
                    coeff = int(coeff_tok.text)
                terms.append((exp, coeff))
            else:
                raise ParseError(f"expected an ordinal term, found {tok.text!r}",
                                 tok.line, tok.col)
            if self.peek().text == "+":
                self.next()
                continue
            break
        if len(terms) == 1 and terms[0] == (0, 0):
            return OrdinalIndex.of(0)
        acc: Dict[int, int] = {}
        for exp, coeff in terms:
            if (exp, coeff) == (0, 0):
                raise ParseError("zero term inside an ordinal notation",
                                 self.peek().line, self.peek().col)
            acc[exp] = acc.get(exp, 0) + coeff
        return OrdinalIndex(tuple(sorted(acc.items(), reverse=True)))

    def parse_cardset(self) -> CardSet:
        self.expect("{")
        out = CardSet.empty()
        while self.peek().text != "}":
            if self.peek().text == "reg":
                self.next()
                self.expect("<")
                out = out.union(CardSet.segment_below(self.parse_cardinal()))
            else:
                out = out.union(CardSet.singleton(self.parse_cardinal()))
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        return out

    def parse_pair(self) -> CofPair:
        self.expect("(")
        left = self.parse_cardinal()
        self.expect(",")
        right = self.parse_cardinal()
        self.expect(")")
        return CofPair(left, right)

    def parse_pairset(self) -> Tuple[CofPair, ...]:
        self.expect("{")
        out = []
        while self.peek().text != "}":
            out.append(self.parse_pair())
            if self.peek().text == ",":
                self.next()
        self.expect("}")
        return tuple(out)

    # -- order terms -------------------------------------------------------------

    def parse_term_ref(self) -> OrderTerm:
        tok = self.peek()
        if tok.text in self.TERM_HEADS:
            return self.parse_term()
        if tok.kind == "name":
            value = self.lookup(self.next())
            if not _is_order_term(value):
                raise ParseError(f"{tok.text} is not an order term", tok.line, tok.col)
            return value
        self.fail("expected an order term")

    def parse_term(self) -> OrderTerm:
        tok = self.next()
        head = tok.text
        if head == "empty":
            return EMPTY
        if head == "chain":
            self.expect("(")
            n_tok = self.next()
            if n_tok.kind != "int":
                raise ParseError("chain needs a size", n_tok.line, n_tok.col)
            self.expect(")")
            return chain(int(n_tok.text))
        if head == "well":
            self.expect("(")
            k = self.parse_cardinal()
            self.expect(")")
            return well(k)
        if head == "rev":
            self.expect("(")
            inner = self.parse_term_ref()
            self.expect(")")
            return rev(inner)
        if head == "comp":
            self.expect("(")
            inner = self.parse_term_ref()
            self.expect(")")
            return completion(inner)
        if head == "sum":
            self.expect("(")
            parts = [self.parse_term_ref()]
            while self.peek().text == ",":
                self.next()
                parts.append(self.parse_term_ref())
            self.expect(")")
            return sum_of(*parts)
        if head == "atom":
            return self.parse_atom()
        if head == "lexsched":
            return self.parse_lexsched()
        if head == "lexref":
            return self.parse_lexref()
        raise ParseError(f"unknown term head {head!r}", tok.line, tok.col)

    def parse_atom(self) -> Atom:
        self.expect("(")
        name_tok = self.next()
        if name_tok.kind != "name":
            raise ParseError("atom needs a name", name_tok.line, name_tok.col)
        fields: Dict[str, object] = {}
        while self.peek().text == ";":
            self.next()
            key_tok = self.next()
            key = key_tok.text
            if key == "card":
                self.expect("<=")
                fields["card"] = self.parse_cardinal()
                continue
            self.expect("=")
            if key in ("cf", "ci"):
                fields[key] = self.parse_cardinal()
            elif key in ("coin", "cofin"):
                fields[key] = self.parse_cardset()
            elif key == "cuts":
                fields[key] = self.parse_pairset()
            else:
                raise ParseError(f"unknown atom field {key!r}", key_tok.line, key_tok.col)
        self.expect(")")
        try:
            return Atom(name_tok.text,
                        fields.get("cf", ALEPH0), fields.get("ci", ALEPH0),
                        fields.get("coin", CardSet.empty()),
                        fields.get("cofin", CardSet.empty()),
                        fields.get("card"), fields.get("cuts"))
        except DomainError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col)

    def _parse_kv_block(self, allowed) -> Dict[str, object]:
        out: Dict[str, object] = {}
        first = True
        while True:
            if not first:
                if self.peek().text != ";":
                    break
                self.next()
            first = False
            key_tok = self.next()
            key = key_tok.text
            if key not in allowed:
                raise ParseError(f"unknown key {key!r}", key_tok.line, key_tok.col)
            if key in out:
                raise ParseError(f"duplicate key {key!r}", key_tok.line, key_tok.col)
            self.expect("=")
            out[key] = allowed[key]()
        return out

    def _parse_rule(self) -> int:
        tok = self.next()
        table = {"id": RULE_ID, "plus": RULE_SUCC, "plusplus": RULE_DSUCC}
        if tok.text not in table:
            raise ParseError("successor rule is id/plus/plusplus", tok.line, tok.col)
        return table[tok.text]

    def parse_lexsched(self) -> LexSchedule:
        self.expect("(")
        spec = {
            "mu": self.parse_cardinal, "k0": self.parse_cardinal,
            "l0": self.parse_cardinal, "k1": self.parse_cardinal,
            "l1": self.parse_cardinal, "succ": self._parse_rule,
            "ksucc": self._parse_rule, "lsucc": self._parse_rule,
            "lim": self._parse_lim, "klim": self.parse_cardinal,
            "llim": self.parse_cardinal, "i": self.parse_term_ref,
        }
        kv = self._parse_kv_block(spec)
        self.expect(")")
        for required in ("mu", "k0", "l0", "k1", "l1"):
            if required not in kv:
                self.fail(f"lexsched needs {required}=")
        mu = kv["mu"]
        ksucc = kv.get("ksucc", kv.get("succ", RULE_DSUCC))
        lsucc = kv.get("lsucc", kv.get("succ", RULE_DSUCC))
        lim = kv.get("lim")
        if lim == "v1":
            klim, llim = kv["k1"], kv["l1"]
        elif lim == "mu":
            klim = llim = mu
        elif isinstance(lim, Card):
            klim = llim = lim
        else:
            klim, llim = kv["k1"], kv["l1"]
        klim = kv.get("klim", klim)
        llim = kv.get("llim", llim)
        sched = CardinalSchedule(kv["k1"], kv["l1"], ksucc, lsucc, klim, llim)
        return LexSchedule(mu, kv["k0"], kv["l0"], sched, kv.get("i", EMPTY))

    def _parse_lim(self):
        tok = self.peek()
        if tok.text in ("v1", "mu"):
            self.next()
            return tok.text
        return self.parse_cardinal()

    def parse_phimap(self) -> PhiMap:
        self.expect("[")
        pieces = []
        while self.peek().text != "]":
            tok = self.peek()
            if tok.text == "1":
                self.next()
                dom_kind, dom_card = DOM_ONE, None
            elif tok.text == "default":
                self.next()
                dom_kind, dom_card = DOM_DEFAULT, None
            elif tok.text == "reg":
                self.next()
                self.expect("<")
                dom_kind, dom_card = DOM_SEG, self.parse_cardinal()
            else:
                dom_kind, dom_card = DOM_SINGLE, self.parse_cardinal()
            self.expect("->")
            if self.peek().text == "succ":
                self.next()
                value = PHI_SUCC
            else:
                value = self.parse_cardinal()
            try:
                pieces.append(PhiPiece(dom_kind, dom_card, value))
            except DomainError as exc:
                raise ParseError(str(exc), tok.line, tok.col)
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return PhiMap(tuple(pieces))

    def parse_lexref(self) -> LexRefined:
        self.expect("(")
        spec = {
            "mu": self.parse_cardinal, "k0": self.parse_cardinal,
            "l0": self.parse_cardinal, "phil": self.parse_phimap,
            "phir": self.parse_phimap, "i": self.parse_term_ref,
        }
        kv = self._parse_kv_block(spec)
        self.expect(")")
        for required in ("mu", "k0", "l0", "phil", "phir"):
            if required not in kv:
                self.fail(f"lexref needs {required}=")
        return LexRefined(kv["mu"], kv["k0"], kv["l0"], kv["phil"], kv["phir"],
                          kv.get("i", EMPTY))

    # -- descriptors -------------------------------------------------------------

    def _parse_bool(self) -> bool:
        tok = self.next()
        if tok.text not in ("true", "false"):
            raise ParseError("expected true/false", tok.line, tok.col)
        return tok.text == "true"

    def _parse_comp(self) -> ComponentAssignment:
        tok = self.next()
        kinds = {"reals": ComponentKind.REALS, "ints": ComponentKind.INTEGERS,
                 "dense": ComponentKind.DENSE}
        if tok.text in ("ints_at_top", "dense_at_top"):
            return ComponentAssignment(ComponentKind.REALS,
                                       kinds[tok.text.split("_")[0]])
        if tok.text not in kinds:
            raise ParseError("component kind is reals/ints/dense", tok.line, tok.col)
        base = kinds[tok.text]
        if self.peek().text == "+":
            self.next()
            top_tok = self.next()
            if not top_tok.text.endswith("_at_top") or \
                    top_tok.text.split("_")[0] not in kinds:
                raise ParseError("expected <kind>_at_top", top_tok.line, top_tok.col)
            return ComponentAssignment(base, kinds[top_tok.text.split("_")[0]])
        return ComponentAssignment(base)

    def parse_group(self) -> GroupDescriptor:
        head = self.next()
        self.expect("(")
        spec = {
            "vset": self.parse_term_ref, "comp": self._parse_comp,
            "spherical": self._parse_bool, "discrete": self._parse_bool,
            "divisible": self._parse_bool,
        }
        kv = self._parse_kv_block(spec)
        self.expect(")")
        if "vset" not in kv:
            self.fail("group needs vset=")
        try:
            return GroupDescriptor(kv["vset"],
                                   kv.get("comp", ComponentAssignment(ComponentKind.REALS)),
                                   spherical=kv.get("spherical", False),
                                   discrete=kv.get("discrete", False),
                                   divisible=kv.get("divisible", False))
        except OrderCutsError as exc:
            raise ParseError(str(exc), head.line, head.col)

    def parse_field(self) -> FieldDescriptor:
        head = self.next()
        self.expect("(")

        def group_ref():
            tok = self.peek()
            if tok.text == "group":
                return self.parse_group()
            value = self.lookup(self.next())
            if not isinstance(value, GroupDescriptor):
                raise ParseError(f"{tok.text} is not a group descriptor",
                                 tok.line, tok.col)
            return value

        def residue():
            tok = self.next()
            if tok.text == "reals":
                return Residue.REALS
            if tok.text == "proper":
                return Residue.PROPER
            raise ParseError("residue is reals/proper", tok.line, tok.col)

        spec = {"group": group_ref, "residue": residue,
                "realclosed": self._parse_bool, "spherical": self._parse_bool}
        kv = self._parse_kv_block(spec)
        self.expect(")")
        if "group" not in kv:
            self.fail("field needs group=")
        try:
            return FieldDescriptor(kv["group"], kv.get("residue", Residue.PROPER),
                                   real_closed=kv.get("realclosed", False),
                                   spherical=kv.get("spherical", False))
        except OrderCutsError as exc:
            raise ParseError(str(exc), head.line, head.col)

    # -- concrete elements ---------------------------------------------------------

    def _parse_index_chain(self):
        tok = self.next()
        if tok.text == "int":
            return hc.INT_CHAIN
        if tok.text == "rat":
            return hc.RAT_CHAIN
        if tok.text == "fin":
            self.expect("(")
            n_tok = self.next()
            if n_tok.kind != "int":
                raise ParseError("fin(n) needs an integer size", n_tok.line, n_tok.col)
            self.expect(")")
            return hc.FinitePoints(int(n_tok.text))
        if tok.text == "lex":
            self.expect("(")
            factors = [self._parse_index_chain()]
            while self.peek().text == ",":
                self.next()
                factors.append(self._parse_index_chain())
            self.expect(")")
            return hc.LexPoints(tuple(factors))
        raise ParseError("index chain is int/rat/fin(n)/lex(...)", tok.line, tok.col)

    def _parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        num_tok = self.next()
        if num_tok.kind != "int":
            raise ParseError("expected a rational", num_tok.line, num_tok.col)
        num = int(num_tok.text)
        if self.peek().text == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "int":
                raise ParseError("expected a denominator", den_tok.line, den_tok.col)
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(sign * num, int(den_tok.text))
        return Fraction(sign * num)

    def _parse_point(self, chain_):
        if isinstance(chain_, hc.ExponentGroup):
            # the coordinate count is checked by make, located at the head
            self.expect("(")
            coords = [self._parse_rational()]
            while self.peek().text == ",":
                self.next()
                coords.append(self._parse_rational())
            self.expect(")")
            return tuple(coords)
        if isinstance(chain_, hc.LexPoints):
            self.expect("(")
            parts = [self._parse_point(chain_.factors[0])]
            i = 1
            while self.peek().text == ",":
                comma = self.next()
                if i == len(chain_.factors):
                    raise ParseError(f"{chain_} points have {i} coordinates",
                                     comma.line, comma.col)
                parts.append(self._parse_point(chain_.factors[i]))
                i += 1
            self.expect(")")
            return tuple(parts)
        value = self._parse_rational()
        if isinstance(chain_, (hc.FinitePoints, hc.IntegerPoints)):
            if value.denominator != 1:
                raise ParseError("integer point expected",
                                 self.peek().line, self.peek().col)
            return int(value)
        return value

    def parse_hahn(self) -> hc.HahnElement:
        """hahn(chain=C; p:c, ...) or series(exp=lexN; (q, ...):c, ...)."""
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
                raise ParseError("exponent group is lexN", tok.line, tok.col)
            chain_ = hc.ExponentGroup(int(m.group(1)))
        items = []
        if self.peek().text == ";":
            self.next()
            while self.peek().text != ")":
                point = self._parse_point(chain_)
                self.expect(":")
                coeff = self._parse_rational()
                items.append((point, coeff))
                if self.peek().text == ",":
                    self.next()
        self.expect(")")
        try:
            return hc.HahnElement.make(chain_, items)
        except OrderCutsError as exc:
            raise ParseError(str(exc), head.line, head.col)


def _is_order_term(value) -> bool:
    return isinstance(value, (Empty, FiniteChain, WellOrder, Rev, Sum,
                              Completion, Atom, LexSchedule, LexRefined))


def parse_definitions(text: str) -> List[Definition]:
    return Parser(text).parse_file()


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

def _spectrum_item(name: str, term: OrderTerm, bound: Optional[Card]) -> ReportItem:
    records: List[Dict[str, str]] = []
    try:
        spec = cut_spectrum(term)
        coin, cofin = coin_cofin(term)
        cf_t, ci_t = cf(term), ci(term)
        records.append({"cf": str(cf_t), "ci": str(ci_t),
                        "coin": str(coin), "cofin": str(cofin)})
        for line in spec.render_lines():
            records.append({"part": line})
        comp = spectrum_completeness(spec, cf_t, ci_t)
        records.append({"symmetric": _fmt_bool(comp.symmetric),
                        "strong": _fmt_bool(comp.strong),
                        "extreme": _fmt_bool(comp.extreme),
                        "spherical_balls": _fmt_bool(comp.spherical_balls)})
        if bound is not None:
            for pair in sorted(spec.pairs_below(bound)):
                records.append({"below": str(bound), "pair": str(pair)})
        return ReportItem(name, "order", records, STATUS_OK)
    except OrderCutsError as exc:
        records.append({"error": str(exc)})
        return ReportItem(name, "order", records, STATUS_ERROR)


def _verdict_records(v) -> List[Dict[str, str]]:
    records = [{"symmetric": _fmt_bool(v.symmetric), "strong": _fmt_bool(v.strong),
                "extreme": _fmt_bool(v.extreme),
                "symmetric_d": _fmt_bool(v.symmetric_d),
                "extreme_d": _fmt_bool(v.extreme_d),
                "spherical_balls": _fmt_bool(v.spherical_balls)}]
    for fact in v.facts:
        records.append({"fact": fact})
    return records


def _classify_item(name: str, value) -> ReportItem:
    kind = "group" if isinstance(value, GroupDescriptor) else "field"
    try:
        verdict = classify_group(value) if kind == "group" else classify_field(value)
        return ReportItem(name, kind, _verdict_records(verdict), STATUS_OK)
    except OrderCutsError as exc:
        return ReportItem(name, kind, [{"error": str(exc)}], STATUS_ERROR)


def _extend_item(name: str, value) -> ReportItem:
    try:
        if _is_order_term(value):
            ext = extend_order(value)
            records = [{"mu": str(ext.mu), "k1": str(ext.k1), "l1": str(ext.l1),
                        "base": str(ext.base)},
                       {"note": ext.note},
                       {"term": str(ext.term)}]
            comp = completeness_predicates(ext.term)
            records.append({"extreme": _fmt_bool(comp.extreme)})
            return ReportItem(name, "order", records, STATUS_OK)
        if isinstance(value, GroupDescriptor):
            gext = extend_group(value)
            records = [{"mu": str(gext.recipe.mu), "k1": str(gext.recipe.k1),
                        "l1": str(gext.recipe.l1)},
                       {"descriptor": str(gext.descriptor)}]
            records.extend(_verdict_records(classify_group(gext.descriptor)))
            return ReportItem(name, "group", records, STATUS_OK)
        fext = extend_field(value)
        records = [{"mu": str(fext.recipe.mu), "k1": str(fext.recipe.k1),
                    "l1": str(fext.recipe.l1)},
                   {"descriptor": str(fext.descriptor)}]
        records.extend(_verdict_records(classify_field(fext.descriptor)))
        return ReportItem(name, "field", records, STATUS_OK)
    except OrderCutsError as exc:
        kind = "order" if _is_order_term(value) else \
            ("group" if isinstance(value, GroupDescriptor) else "field")
        return ReportItem(name, kind, [{"error": str(exc)}], STATUS_ERROR)


def _conditions_item(name: str, term: OrderTerm) -> ReportItem:
    try:
        checks = check_side_conditions(term)
        records = [{"condition": c.name,
                    "verdict": "pass" if c.passed else "fail",
                    **({"detail": c.detail} if c.detail else {})}
                   for c in checks]
        status = STATUS_OK if all(c.passed for c in checks) else STATUS_FAIL
        return ReportItem(name, "order", records, status)
    except OrderCutsError as exc:
        return ReportItem(name, "order", [{"error": str(exc)}], STATUS_ERROR)


def _verify_item(name: str, term: OrderTerm, depth: int) -> ReportItem:
    try:
        report = orc.spectrum_soundness(term, depth)
        records = [{"line": line} for line in report.render_lines()]
        records.append({"note": report.note})
        return ReportItem(name, "order", records,
                          STATUS_OK if report.ok else STATUS_FAIL)
    except OrderCutsError as exc:
        return ReportItem(name, "order", [{"error": str(exc)}], STATUS_ERROR)


def run(defs: List[Definition], command: str, depth: int = 100,
        bound: Optional[Card] = None) -> Report:
    items: List[ReportItem] = []
    for name, value in defs:
        if command == "spectrum" and _is_order_term(value):
            items.append(_spectrum_item(name, value, bound))
        elif command == "classify" and isinstance(value, (GroupDescriptor, FieldDescriptor)):
            items.append(_classify_item(name, value))
        elif command == "extend" and (
                _is_order_term(value) or isinstance(value, (GroupDescriptor, FieldDescriptor))):
            items.append(_extend_item(name, value))
        elif command == "check-conditions" and isinstance(value, (LexSchedule, LexRefined)):
            items.append(_conditions_item(name, value))
        elif command == "verify" and _is_order_term(value):
            items.append(_verify_item(name, value, depth))
    return Report(command, items)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = ("spectrum", "classify", "extend", "verify", "check-conditions")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ordercuts",
        description="cut-cofinality analyses over order and structure definitions")
    ap.add_argument("--in", dest="infile", required=True, help="definitions file")
    ap.add_argument("--cmd", dest="command", required=True, choices=COMMANDS)
    ap.add_argument("--depth", type=int, default=100, help="witness depth")
    ap.add_argument("--bound", default=None,
                    help="enumeration bound, e.g. aleph(3)")
    ap.add_argument("--format", dest="fmt", choices=("text", "machine"),
                    default="text")
    args = ap.parse_args(argv)
    if args.depth < 1:
        ap.error(f"--depth must be at least 1, got {args.depth}")

    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
        defs = parse_definitions(text)
        bound = None
        if args.bound is not None:
            bound_parser = Parser(args.bound)
            bound = bound_parser.parse_cardinal()
    except (OSError, OrderCutsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    report = run(defs, args.command, depth=args.depth, bound=bound)
    out = report.render_machine() if args.fmt == "machine" else report.render_text()
    sys.stdout.write(out)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
