"""Mechanically re-derive the handshake's belief-logic goals.

Run:  python demos/05_ban_proof.py
"""

from importlib import resources

from nfcbms import ban

text = resources.files("nfcbms.data").joinpath("handshake.ban").read_text()
spec = ban.parse_protocol(text)

print("assumptions:")
for a in spec.assumptions:
    print(f"  {a}")
print("idealized messages:")
for label, stmt in spec.messages:
    print(f"  {label}: {stmt}")
print("goals:")
for label, g in spec.goals.items():
    print(f"  {label}: {g}")

result = ban.verify_protocol(spec)
assert isinstance(result, ban.ProofTrace)

print("\nderivation (pruned to the goals' ancestry):")
print(result.render())

print("\nrule chain per goal:")
for label, g in spec.goals.items():
    print(f"  {label}: {' -> '.join(result.rules_for(g))}")

print("\nablation: drop every freshness assumption and retry")
kept = [
    a for a in spec.assumptions
    if not (isinstance(a, ban.Believes) and isinstance(a.fact, ban.Fresh))
]
broken = ban.derive(
    kept,
    [stmt for _, stmt in spec.messages],
    list(spec.goals.values()),
)
print(f"  derivable: {isinstance(broken, ban.ProofTrace)}; "
      f"fixpoint: {broken.at_fixpoint}; unreached: {len(broken.unreached)} goals")
