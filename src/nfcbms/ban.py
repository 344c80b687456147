"""Belief-logic engine for the handshake's authentication argument.

A small BAN-style inference engine: belief statements are parsed from an
ASCII grammar, four postulates are applied by forward chaining, and the
mutual-authentication and session-key-possession goals of the
five-message handshake are re-derived mechanically.

Grammar (see docs/formats.md for the full description):

    NR |= fresh(chr)            NR believes chr is fresh
    NR |= NR <-KM-> MN          NR believes KM is a good key for NR,MN
    NR <| {{(chr, NR <-KM-> MN)}KM}KM     NR sees a double-encrypted term
    NR |= MN |~ (chr, ...)      NR believes MN once said the pair
    NR |= MN |= ...             nested belief

Rules (``_RULE_TABLE`` is their single statement in code: which premises
each rule reads, in which order, and what it concludes):

    message-meaning     P believes a key it shares with Q; P sees a term
                        encrypted under that key (or under a session key
                        declared from it): P believes Q said the term.
    freshness-promotion P believes a component of a said pair is fresh:
                        P believes the whole pair is fresh.
    nonce-verification  P believes a term fresh and believes Q said it:
                        P believes Q believes it.
    belief              a believed pair projects to its components, at
                        any belief nesting depth.

A session key is declared from a base key (``sessionkey KS from KM``),
and its ``Key`` term carries that base.  Message-meaning accepts the
believed base key as authority for traffic under the session key, which
is the mechanical counterpart of the possession argument: only a holder
of the master key can compute the session key.  A session key speaks
for the key it was declared from, and for that key only (one hop): a
``KT`` declared from ``KS`` has the authority of ``KS``, not of ``KM``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import NfcBmsError


class ParseError(NfcBmsError):
    """Statement text does not match the grammar; carries a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


# --- terms and statements ---


@dataclass(frozen=True)
class _Symbol:
    """A declared name; its subclass is the kind of term it stands for."""

    name: str

    def __str__(self) -> str:
        return self.name


class Principal(_Symbol):
    pass


@dataclass(frozen=True)
class Key(_Symbol):
    # the key a session key is declared from, None for a long-term key;
    # not part of equality, so a name is one symbol however it was built
    base: Key | None = field(default=None, compare=False)


class NonceTerm(_Symbol):
    pass


@dataclass(frozen=True)
class SharedKey:
    left: Principal
    key: Key
    right: Principal

    def __str__(self) -> str:
        return f"{self.left} <-{self.key}-> {self.right}"


@dataclass(frozen=True)
class Pair:
    left: object
    right: object

    def __str__(self) -> str:
        return f"({', '.join(str(m) for m in pair_members(self))})"


@dataclass(frozen=True)
class Encrypted:
    body: object
    key: Key

    def __str__(self) -> str:
        return f"{{{self.body}}}{self.key}"


@dataclass(frozen=True)
class DoubleEncrypted:
    body: object
    key: Key

    def __str__(self) -> str:
        return f"{{{{{self.body}}}{self.key}}}{self.key}"


@dataclass(frozen=True)
class Believes:
    who: Principal
    fact: object  # Statement or term

    def __str__(self) -> str:
        return f"{self.who} |= {self.fact}"


@dataclass(frozen=True)
class Sees:
    who: Principal
    term: object

    def __str__(self) -> str:
        return f"{self.who} <| {self.term}"


@dataclass(frozen=True)
class Said:
    who: Principal
    term: object

    def __str__(self) -> str:
        return f"{self.who} |~ {self.term}"


@dataclass(frozen=True)
class Fresh:
    term: object

    def __str__(self) -> str:
        return f"fresh({self.term})"


def pair_members(term) -> list:
    """Flatten right-nested pairs into their member list."""
    if isinstance(term, Pair):
        return [term.left] + pair_members(term.right)
    return [term]


def _peel(stmt) -> tuple[tuple, object]:
    """Split nested beliefs into the believers, outermost first, and the innermost fact."""
    believers = []
    while isinstance(stmt, Believes):
        believers.append(stmt.who)
        stmt = stmt.fact
    return tuple(believers), stmt


# --- symbol table and parser ---

_TERMS = {"principal": Principal, "key": Key, "nonce": NonceTerm}  # symbol kind -> term


@dataclass
class SymbolTable:
    terms: dict = field(default_factory=dict)  # declared name -> the term it stands for

    def term_for(self, name: str, pos: int):
        if name not in self.terms:
            raise ParseError(f"undeclared symbol {name!r}", pos)
        return self.terms[name]


# a statement nests at most one level per token; this bound keeps the
# recursive parser and derivation's hashing of nested statements well
# inside the interpreter's recursion limit, and it is the only bound on
# nesting (see ``derive``)
MAX_STATEMENT_TOKENS = 128
# ``\w`` is ``str.isalnum()`` or ``_``; whitespace (``\s``) is skipped; anything else is an error
_TOKEN = re.compile(r"(?P<punct>\|=|\|~|<\||<-|->|[{}(),])|(?P<ident>\w[\w']*)|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, symbols: SymbolTable):
        self.tokens = _tokenize(text)
        if len(self.tokens) > MAX_STATEMENT_TOKENS + 1:  # the last token marks the end
            raise ParseError(
                f"statement longer than {MAX_STATEMENT_TOKENS} tokens",
                self.tokens[MAX_STATEMENT_TOKENS][2],
            )
        self.symbols = symbols
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, at = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, got {val or 'end of input'!r}", at)

    def symbol(self, cls, expected: str):
        """Read a declared name that must stand for a ``cls`` term (a Key or a Principal)."""
        kind, name, at = self.next()
        if kind != "ident":
            raise ParseError(f"expected {expected}", at)
        term = self.symbols.term_for(name, at)
        if not isinstance(term, cls):
            raise ParseError(f"{name!r} is not a declared {cls.__name__.lower()}", at)
        return term

    def parse_statement(self):
        kind, val, at = self.peek()
        if kind == "ident" and val == "fresh":
            self.next()
            self.expect("(")
            term = self.parse_term()
            self.expect(")")
            return Fresh(term)
        start = self.pos
        if kind == "ident":
            subject = self.symbols.term_for(val, at)
            if isinstance(subject, Principal):
                self.next()
                _, op, _ = self.peek()
                if op == "|=":
                    self.next()
                    return Believes(subject, self.parse_statement())
                if op == "<|":
                    self.next()
                    return Sees(subject, self.parse_term())
                if op == "|~":
                    self.next()
                    return Said(subject, self.parse_term())
                self.pos = start  # plain term that begins with a principal
        return self.parse_term()

    def parse_term(self):
        kind, val, at = self.peek()
        if val == "{":
            return self.parse_encrypted()
        if val == "(":
            return self.parse_pair()
        if kind == "ident":
            if val == "fresh":
                return self.parse_statement()
            self.next()
            term = self.symbols.term_for(val, at)
            _, op, _ = self.peek()
            if isinstance(term, Principal) and op == "<-":
                self.next()
                key = self.symbol(Key, "key name")
                self.expect("->")
                return SharedKey(term, key, self.symbol(Principal, "principal name"))
            return term
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)

    def parse_encrypted(self):
        self.expect("{")
        body = self.parse_statement()
        self.expect("}")
        key = self.symbol(Key, "key name after '}'")
        if isinstance(body, Encrypted) and body.key == key:
            return DoubleEncrypted(body.body, key)
        return Encrypted(body, key)

    def parse_pair(self):
        self.expect("(")
        members = [self.parse_statement()]
        while self.peek()[1] == ",":
            self.next()
            members.append(self.parse_statement())
        self.expect(")")
        if len(members) == 1:
            return members[0]
        pair = members[-1]
        for m in reversed(members[:-1]):
            pair = Pair(m, pair)
        return pair

    def finish(self, node):
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting with {val!r}", at)
        return node


def parse_statement(text: str, symbols: SymbolTable):
    """Parse one statement in the ASCII grammar."""
    p = _Parser(text, symbols)
    return p.finish(p.parse_statement())


# --- rules ---


class Rule(str, Enum):
    MESSAGE_MEANING = "message-meaning"
    FRESHNESS_PROMOTION = "freshness-promotion"
    NONCE_VERIFICATION = "nonce-verification"
    BELIEF = "belief"


# Each schema takes its premises and yields what the rule concludes from them.


def _message_meaning(seen, belief):
    enc, share = seen.term, belief.fact
    if belief.who != seen.who or seen.who not in (share.left, share.right):
        return
    # a session key declared from the believed key speaks with its authority
    if share.key in (enc.key, enc.key.base):
        peer = share.right if seen.who == share.left else share.left
        yield Believes(seen.who, Said(peer, enc.body))


def _freshness_promotion(fresh, said):
    term = said.fact.term
    if said.who == fresh.who and isinstance(term, Pair) and fresh.fact.term in pair_members(term):
        yield Believes(fresh.who, Fresh(term))


def _nonce_verification(fresh, said):
    if said.who == fresh.who and said.fact.term == fresh.fact.term:
        yield Believes(fresh.who, Believes(said.fact.who, said.fact.term))


def _belief(stmt):
    believers, pair = _peel(stmt)
    for member in pair_members(pair):
        for who in reversed(believers):
            member = Believes(who, member)
        yield member


def _believes(kind):
    return lambda stmt: isinstance(stmt, Believes) and isinstance(stmt.fact, kind)


def _sees_ciphertext(stmt) -> bool:
    return isinstance(stmt, Sees) and isinstance(stmt.term, (Encrypted, DoubleEncrypted))


def _pair_belief(stmt) -> bool:
    believers, inner = _peel(stmt)
    return bool(believers) and isinstance(inner, Pair)


# One row per premise shape: a predicate per premise slot, then the schema
# of each rule that reads premises of that shape.  Rows, premise tuples and
# rules run in this order, which fixes the step ids a derivation prints.
_RULE_TABLE = (
    ((_sees_ciphertext, _believes(SharedKey)), {Rule.MESSAGE_MEANING: _message_meaning}),
    ((_believes(Fresh), _believes(Said)), {Rule.FRESHNESS_PROMOTION: _freshness_promotion,
                                           Rule.NONCE_VERIFICATION: _nonce_verification}),
    ((_pair_belief,), {Rule.BELIEF: _belief}),
)


def _applications(statements):
    """Yield ``(rule, premises, conclusion)`` for every rule application over ``statements``."""
    statements = list(statements)
    for slots, rules in _RULE_TABLE:
        candidates = [[s for s in statements if fits(s)] for fits in slots]
        for premises in itertools.product(*candidates):
            for rule, schema in rules.items():
                for conclusion in schema(*premises):
                    yield rule, premises, conclusion


def apply_rule(rule: Rule, premises) -> list:
    """All conclusions the rule's schema yields from these premises, in order, without repeats.

    Non-applicability is not an error: the result is just empty.
    """
    rule = Rule(rule)
    conclusions = (c for applied, _, c in _applications(premises) if applied == rule)
    return list(dict.fromkeys(conclusions))


# --- forward-chaining derivation ---


@dataclass(frozen=True)
class ProofStep:
    index: int
    rule: str  # rule value, "assumption", or "message"
    premises: tuple
    statement: object

    def render(self) -> str:
        src = f" [{', '.join(str(p) for p in self.premises)}]" if self.premises else ""
        return f"{self.index:>3}. {self.rule:<20}{src}  {self.statement}"


@dataclass
class ProofTrace:
    steps: list
    goal_steps: dict  # statement -> step index

    def rules_for(self, goal) -> list[str]:
        """Rule names along this goal's derivation, topological order."""
        rules = (self.steps[i].rule for i in _ancestry(self.steps, [self.goal_steps[goal]]))
        return [rule for rule in rules if rule not in ("assumption", "message")]

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "id": s.index,
                    "rule": s.rule,
                    "premises": list(s.premises),
                    "statement": str(s.statement),
                }
                for s in self.steps
            ],
            "goals": {str(g): idx for g, idx in self.goal_steps.items()},
            "derived": True,
        }

    def render(self) -> str:
        lines = [s.render() for s in self.steps]
        lines.append("goals:")
        lines.extend(f"  {g}  => step {idx}" for g, idx in self.goal_steps.items())
        return "\n".join(lines)


def _ancestry(steps: list, roots) -> list[int]:
    """Ascending indices of the ``roots`` steps and of every step they rest on.

    A step's index is its position in ``steps``.
    """
    needed = set()
    frontier = list(roots)
    while frontier:
        idx = frontier.pop()
        if idx not in needed:
            needed.add(idx)
            frontier.extend(steps[idx].premises)
    return sorted(needed)


@dataclass
class NotDerivable:
    unreached: list
    at_fixpoint: bool  # False means the round budget ran out first
    rounds: int

    def to_json(self) -> dict:
        return {
            "unreached": [str(s) for s in self.unreached],
            "at_fixpoint": self.at_fixpoint,
            "rounds": self.rounds,
            "derived": False,
        }

    def render(self) -> str:
        lines = ["not derivable (" + ("fixpoint" if self.at_fixpoint else "round budget") + "):"]
        lines.extend(f"  {s}" for s in self.unreached)
        return "\n".join(lines)


def derive(assumptions, messages, goals, max_depth: int = 16):
    """Forward chain to a fixpoint or the round budget.

    A fixpoint always exists: every conclusion is built from subterms of
    the inputs, at most two belief or said levels deeper, so only finitely
    many statements can be derived.  ``max_depth`` only stops sooner.

    Returns a :class:`ProofTrace` pruned to the goals' ancestors, or
    :class:`NotDerivable` listing what was never reached (and whether a
    fixpoint was hit, as opposed to running out of rounds).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    steps: list[ProofStep] = []
    known: dict = {}

    def add(stmt, rule: str, premises: tuple) -> None:
        if stmt in known:
            return
        step = ProofStep(len(steps), rule, premises, stmt)
        steps.append(step)
        known[stmt] = step.index

    for a in assumptions:
        add(a, "assumption", ())
    for m in messages:
        add(m, "message", ())

    goals = list(goals)
    rounds = 0
    at_fixpoint = False
    while not all(g in known for g in goals):
        if rounds >= max_depth:
            break
        rounds += 1
        new = list(_applications(known))
        before = len(known)
        for rule, premises, stmt in new:
            add(stmt, rule.value, tuple(known[p] for p in premises))
        if len(known) == before:
            at_fixpoint = True
            break

    missing = [g for g in goals if g not in known]
    if missing:
        return NotDerivable(unreached=missing, at_fixpoint=at_fixpoint, rounds=rounds)

    # prune to the goals' ancestry and renumber
    needed = _ancestry(steps, [known[g] for g in goals])
    renumber = {old: new for new, old in enumerate(needed)}
    pruned = [
        ProofStep(renumber[s.index], s.rule, tuple(renumber[p] for p in s.premises), s.statement)
        for s in (steps[i] for i in needed)
    ]
    goal_steps = {g: renumber[known[g]] for g in goals}
    return ProofTrace(steps=pruned, goal_steps=goal_steps)


# --- protocol / goals files ---


@dataclass
class ProtocolSpec:
    symbols: SymbolTable
    assumptions: list
    messages: list
    goals: dict  # label -> statement


def _parse_lines(text: str, parse_line) -> None:
    """Call ``parse_line`` on each non-blank line, comment stripped; parse errors name the line."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            parse_line(line)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.pos) from None


def _labelled(text: str, symbols: SymbolTable) -> tuple[str, object]:
    """Parse a ``label: statement`` line."""
    label, _, stmt_text = text.partition(":")
    return label.strip(), parse_statement(stmt_text.strip(), symbols)


def _add_goal(goals: dict, text: str, symbols: SymbolTable) -> None:
    """Parse a ``label: statement`` goal line into ``goals``; a label names one goal."""
    label, stmt = _labelled(text, symbols)
    if label in goals:
        raise ParseError(f"goal label {label!r} appears twice", 0)
    goals[label] = stmt


def _declare(symbols: SymbolTable, head: str, rest: str) -> None:
    """``principal|key|nonce NAME`` or ``sessionkey NAME from KEY``: exactly one
    new name, and a session key's base key declared before it."""
    p = _Parser(rest, symbols)
    kind, name, at = p.next()
    if kind != "ident" or name == "fresh":  # the keyword could never be read as a symbol
        raise ParseError(f"expected a name to declare, got {name or 'end of input'!r}", at)
    if name in symbols.terms:
        raise ParseError(f"{name!r} is already declared", at)
    if head == "sessionkey":
        p.expect("from")
        term = Key(name, p.symbol(Key, "key name after 'from'"))
    else:
        term = _TERMS[head](name)
    p.finish(None)
    symbols.terms[name] = term


def parse_protocol(text: str) -> ProtocolSpec:
    """Parse a protocol file: declarations, assumptions, messages, goals."""
    symbols = SymbolTable()
    spec = ProtocolSpec(symbols=symbols, assumptions=[], messages=[], goals={})

    def directive(line: str) -> None:
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in _TERMS or head == "sessionkey":
            _declare(symbols, head, rest)
        elif head == "assume":
            spec.assumptions.append(parse_statement(rest, symbols))
        elif head == "message":
            label, stmt = _labelled(rest, symbols)
            if not isinstance(stmt, Sees):
                raise ParseError("message statements must be sees facts", 0)
            spec.messages.append((label, stmt))
        elif head == "goal":
            _add_goal(spec.goals, rest, symbols)
        else:
            raise ParseError(f"unknown directive {head!r}", 0)

    _parse_lines(text, directive)
    return spec


def parse_goals(text: str, symbols: SymbolTable) -> dict:
    goals = {}
    _parse_lines(text, lambda line: _add_goal(goals, line, symbols))
    return goals


def verify_protocol(spec: ProtocolSpec, goals: dict | None = None, max_depth: int = 16):
    """Run derivation for a parsed protocol; returns the derive() result."""
    goals = goals if goals is not None else spec.goals
    messages = [stmt for _, stmt in spec.messages]
    return derive(spec.assumptions, messages, list(goals.values()), max_depth=max_depth)
