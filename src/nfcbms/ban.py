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

Rules:

    message-meaning     P believes a key it shares with Q; P sees a term
                        encrypted under that key (or under a session key
                        declared as derived from it): P believes Q said
                        the term.
    freshness-promotion P believes a component of a said pair is fresh:
                        P believes the whole pair is fresh.
    nonce-verification  P believes a term fresh and believes Q said it:
                        P believes Q believes it.
    belief              a believed pair projects to its components, at
                        any belief nesting depth.

Session keys may be declared as derived from a long-term key
(``sessionkey KS from KM``).  Message-meaning then accepts the believed
long-term key as authority for traffic under the session key, which is
the mechanical counterpart of the possession argument: only a holder of
the master key can compute the session key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import NfcBmsError

BELIEF_DEPTH_CAP = 6


class ParseError(NfcBmsError):
    """Statement text does not match the grammar; carries a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


# --- terms and statements ---


@dataclass(frozen=True)
class Principal:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Key:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NonceTerm:
    name: str

    def __str__(self) -> str:
        return self.name


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


def belief_depth(stmt) -> int:
    if isinstance(stmt, Believes):
        return 1 + belief_depth(stmt.fact)
    return 0


# --- symbol table and parser ---


@dataclass
class SymbolTable:
    kinds: dict = field(default_factory=dict)  # name -> principal | key | nonce
    key_derivations: dict = field(default_factory=dict)  # session key -> base key

    def declare(self, kind: str, name: str, derived_from: str | None = None) -> None:
        if kind not in ("principal", "key", "nonce"):
            raise ValueError(f"unknown symbol kind {kind!r}")
        self.kinds[name] = kind
        if derived_from is not None:
            self.key_derivations[name] = derived_from

    def term_for(self, name: str, pos: int):
        kind = self.kinds.get(name)
        if kind == "principal":
            return Principal(name)
        if kind == "key":
            return Key(name)
        if kind == "nonce":
            return NonceTerm(name)
        raise ParseError(f"undeclared symbol {name!r}", pos)


_PUNCT = ("|=", "|~", "<|", "<-", "->", "{", "}", "(", ")", ",")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT:
            tokens.append(("punct", two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, symbols: SymbolTable):
        self.tokens = _tokenize(text)
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
                kkind, kname, kat = self.next()
                if kkind != "ident":
                    raise ParseError("expected key name", kat)
                key = self.symbols.term_for(kname, kat)
                if not isinstance(key, Key):
                    raise ParseError(f"{kname!r} is not a declared key", kat)
                self.expect("->")
                pkind, pname, pat = self.next()
                if pkind != "ident":
                    raise ParseError("expected principal name", pat)
                right = self.symbols.term_for(pname, pat)
                if not isinstance(right, Principal):
                    raise ParseError(f"{pname!r} is not a declared principal", pat)
                return SharedKey(term, key, right)
            return term
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)

    def parse_encrypted(self):
        self.expect("{")
        body = self.parse_statement()
        self.expect("}")
        kind, kname, at = self.next()
        if kind != "ident":
            raise ParseError("expected key name after '}'", at)
        key = self.symbols.term_for(kname, at)
        if not isinstance(key, Key):
            raise ParseError(f"{kname!r} is not a declared key", at)
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


def _key_authorizes(believed: Key, used: Key, key_derivations: dict | None) -> bool:
    if believed == used:
        return True
    return bool(key_derivations) and key_derivations.get(used.name) == believed.name


def apply_rule(rule: Rule, premises, key_derivations: dict | None = None) -> list:
    """All conclusions the rule's schema yields from these premises.

    Non-applicability is not an error: the result is just empty.
    """
    premises = list(premises)
    out = []
    if rule == Rule.MESSAGE_MEANING:
        for seen in premises:
            if not isinstance(seen, Sees):
                continue
            enc = seen.term
            if not isinstance(enc, (Encrypted, DoubleEncrypted)):
                continue
            for belief in premises:
                if not isinstance(belief, Believes) or belief.who != seen.who:
                    continue
                share = belief.fact
                if not isinstance(share, SharedKey):
                    continue
                if seen.who not in (share.left, share.right):
                    continue
                if not _key_authorizes(share.key, enc.key, key_derivations):
                    continue
                peer = share.right if seen.who == share.left else share.left
                out.append(Believes(seen.who, Said(peer, enc.body)))
    elif rule == Rule.FRESHNESS_PROMOTION:
        for fresh in premises:
            if not (isinstance(fresh, Believes) and isinstance(fresh.fact, Fresh)):
                continue
            for said in premises:
                if not (
                    isinstance(said, Believes)
                    and said.who == fresh.who
                    and isinstance(said.fact, Said)
                ):
                    continue
                term = said.fact.term
                if isinstance(term, Pair) and fresh.fact.term in pair_members(term):
                    out.append(Believes(fresh.who, Fresh(term)))
    elif rule == Rule.NONCE_VERIFICATION:
        for fresh in premises:
            if not (isinstance(fresh, Believes) and isinstance(fresh.fact, Fresh)):
                continue
            for said in premises:
                if not (
                    isinstance(said, Believes)
                    and said.who == fresh.who
                    and isinstance(said.fact, Said)
                ):
                    continue
                if said.fact.term == fresh.fact.term:
                    out.append(
                        Believes(fresh.who, Believes(said.fact.who, said.fact.term))
                    )
    elif rule == Rule.BELIEF:
        for stmt in premises:
            prefix = []
            inner = stmt
            while isinstance(inner, Believes):
                prefix.append(inner.who)
                inner = inner.fact
            if not prefix or not isinstance(inner, Pair):
                continue
            for member in pair_members(inner):
                conclusion = member
                for who in reversed(prefix):
                    conclusion = Believes(who, conclusion)
                out.append(conclusion)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    # drop duplicates but keep order
    seen_set = set()
    unique = []
    for stmt in out:
        if stmt not in seen_set:
            seen_set.add(stmt)
            unique.append(stmt)
    return unique


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
        by_index = {s.index: s for s in self.steps}
        needed = set()
        frontier = [self.goal_steps[goal]]
        while frontier:
            idx = frontier.pop()
            if idx in needed:
                continue
            needed.add(idx)
            frontier.extend(by_index[idx].premises)
        return [
            by_index[i].rule
            for i in sorted(needed)
            if by_index[i].rule not in ("assumption", "message")
        ]

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
        }

    def render(self) -> str:
        lines = [s.render() for s in self.steps]
        lines.append("goals:")
        lines.extend(f"  {g}  => step {idx}" for g, idx in self.goal_steps.items())
        return "\n".join(lines)


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
        }


def derive(
    assumptions,
    messages,
    goals,
    max_depth: int = 16,
    key_derivations: dict | None = None,
):
    """Forward chain to a fixpoint or the round budget.

    Returns a :class:`ProofTrace` pruned to the goals' ancestors, or
    :class:`NotDerivable` listing what was never reached (and whether a
    fixpoint was hit, as opposed to running out of rounds).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    steps: list[ProofStep] = []
    known: dict = {}

    def add(stmt, rule: str, premises: tuple) -> None:
        if stmt in known or belief_depth(stmt) > BELIEF_DEPTH_CAP:
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
        fresh_beliefs = []
        said_beliefs = []
        share_beliefs = []
        sees_facts = []
        pair_beliefs = []
        for stmt in known:
            if isinstance(stmt, Sees):
                sees_facts.append(stmt)
            elif isinstance(stmt, Believes):
                if isinstance(stmt.fact, Fresh):
                    fresh_beliefs.append(stmt)
                elif isinstance(stmt.fact, Said):
                    said_beliefs.append(stmt)
                elif isinstance(stmt.fact, SharedKey):
                    share_beliefs.append(stmt)
                inner = stmt
                while isinstance(inner, Believes):
                    inner = inner.fact
                if isinstance(inner, Pair):
                    pair_beliefs.append(stmt)

        new: list[tuple[object, str, tuple]] = []
        for seen in sees_facts:
            for belief in share_beliefs:
                for c in apply_rule(Rule.MESSAGE_MEANING, [seen, belief], key_derivations):
                    new.append((c, Rule.MESSAGE_MEANING.value, (known[seen], known[belief])))
        for fr in fresh_beliefs:
            for sd in said_beliefs:
                for c in apply_rule(Rule.FRESHNESS_PROMOTION, [fr, sd]):
                    new.append((c, Rule.FRESHNESS_PROMOTION.value, (known[fr], known[sd])))
                for c in apply_rule(Rule.NONCE_VERIFICATION, [fr, sd]):
                    new.append((c, Rule.NONCE_VERIFICATION.value, (known[fr], known[sd])))
        for pb in pair_beliefs:
            for c in apply_rule(Rule.BELIEF, [pb]):
                new.append((c, Rule.BELIEF.value, (known[pb],)))

        before = len(known)
        for stmt, rule, premises in new:
            add(stmt, rule, premises)
        if len(known) == before:
            at_fixpoint = True
            break

    missing = [g for g in goals if g not in known]
    if missing:
        return NotDerivable(unreached=missing, at_fixpoint=at_fixpoint, rounds=rounds)

    # prune to the goals' ancestry and renumber
    needed = set()
    frontier = [known[g] for g in goals]
    while frontier:
        idx = frontier.pop()
        if idx in needed:
            continue
        needed.add(idx)
        frontier.extend(steps[idx].premises)
    renumber = {old: new for new, old in enumerate(sorted(needed))}
    pruned = [
        ProofStep(
            renumber[s.index],
            s.rule,
            tuple(renumber[p] for p in s.premises),
            s.statement,
        )
        for s in steps
        if s.index in needed
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


def parse_protocol(text: str) -> ProtocolSpec:
    """Parse a protocol file: declarations, assumptions, messages, goals."""
    symbols = SymbolTable()
    spec = ProtocolSpec(symbols=symbols, assumptions=[], messages=[], goals={})
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head in ("principal", "key", "nonce"):
                symbols.declare(head, rest)
            elif head == "sessionkey":
                name, _, base = rest.partition(" from ")
                symbols.declare("key", name.strip(), derived_from=base.strip())
            elif head == "assume":
                spec.assumptions.append(parse_statement(rest, symbols))
            elif head == "message":
                label, _, stmt_text = rest.partition(":")
                stmt = parse_statement(stmt_text.strip(), symbols)
                if not isinstance(stmt, Sees):
                    raise ParseError("message statements must be sees facts", 0)
                spec.messages.append((label.strip(), stmt))
            elif head == "goal":
                label, _, stmt_text = rest.partition(":")
                spec.goals[label.strip()] = parse_statement(stmt_text.strip(), symbols)
            else:
                raise ParseError(f"unknown directive {head!r}", 0)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.pos) from None
    return spec


def parse_goals(text: str, symbols: SymbolTable) -> dict:
    goals = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        label, _, stmt_text = line.partition(":")
        try:
            goals[label.strip()] = parse_statement(stmt_text.strip(), symbols)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.pos) from None
    return goals


def verify_protocol(spec: ProtocolSpec, goals: dict | None = None, max_depth: int = 16):
    """Run derivation for a parsed protocol; returns the derive() result."""
    goals = goals if goals is not None else spec.goals
    return derive(
        spec.assumptions,
        [stmt for _, stmt in spec.messages],
        list(goals.values()),
        max_depth=max_depth,
        key_derivations=spec.symbols.key_derivations,
    )


def render_result(result) -> str:
    if isinstance(result, ProofTrace):
        return result.render()
    lines = ["not derivable (" + ("fixpoint" if result.at_fixpoint else "round budget") + "):"]
    lines.extend(f"  {s}" for s in result.unreached)
    return "\n".join(lines)


def result_to_json(result) -> dict:
    payload = result.to_json()
    payload["derived"] = isinstance(result, ProofTrace)
    return payload


def dump_result(result) -> str:
    return json.dumps(result_to_json(result), indent=2, sort_keys=True)
