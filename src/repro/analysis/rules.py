"""The rule catalog.

Every rule maps a *design-time* check onto a mechanism or caveat from the
paper: the taint rules (F1xx) enforce that Section 2.2 data-confidentiality
mechanisms sit between confidential sources and public sinks; the
determinism rules (D2xx) enforce the Section 5 requirement that contract /
validation code be replayable on every node; the boundary rules (B3xx)
surface the platform caveats Section 5 documents (Quorum's participant
broadcast, PDC member disclosure, ordering-principal visibility).

Rule ids are stable API: suppression comments, the JSON output, docs, and
the fixture corpus all key on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Severity


@dataclass(frozen=True)
class Rule:
    """One check: stable id + code, severity, and its paper grounding."""

    code: str
    rule_id: str
    severity: Severity
    summary: str
    hint: str
    paper: str


_RULES = [
    # -- information-flow rules (taint pass) ---------------------------
    Rule(
        code="F101",
        rule_id="flow-to-state",
        severity=Severity.ERROR,
        summary="confidential value written to shared ledger state",
        hint="hash or commit the value and anchor the digest, encrypt it "
        "with a key shared only among the involved parties, or move it "
        "to an off-chain store and record the anchor",
        paper="Section 2.2 (hashes/commitments, symmetric encryption, "
        "off-chain peer data); Figure 1 'on-chain record desired' branch",
    ),
    Rule(
        code="F102",
        rule_id="flow-to-log",
        severity=Severity.WARNING,
        summary="confidential value printed or logged",
        hint="log a hash or redacted form; operational logs are outside "
        "every ledger confidentiality boundary",
        paper="Section 3.4 (visibility beyond transacting parties)",
    ),
    Rule(
        code="F103",
        rule_id="flow-to-message",
        severity=Severity.WARNING,
        summary="confidential value sent in a point-to-point message payload",
        hint="verify the recipient is a transaction participant; otherwise "
        "encrypt the payload or send a hash/tear-off instead",
        paper="Section 2.1/2.2 (separation of ledgers keeps data with "
        "involved parties only)",
    ),
    Rule(
        code="F104",
        rule_id="flow-to-metadata",
        severity=Severity.WARNING,
        summary="confidential value placed in transaction metadata or an "
        "exposure declaration",
        hint="transaction metadata is visible to the ordering principal "
        "and often the whole network; reference confidential values by "
        "hash only",
        paper="Section 3.4 (ordering service visibility); Section 5 "
        "(participant lists in transaction metadata)",
    ),
    # -- determinism rules (contract/validation contexts only) ---------
    Rule(
        code="D201",
        rule_id="nondet-time",
        severity=Severity.ERROR,
        summary="wall-clock access inside contract/validation code",
        hint="take the timestamp from the transaction (time-window / "
        "block timestamp) so every replay validates identically",
        paper="Section 5 (validation must be deterministic and "
        "replayable on every node)",
    ),
    Rule(
        code="D202",
        rule_id="nondet-random",
        severity=Severity.ERROR,
        summary="randomness inside contract/validation code",
        hint="derive any needed entropy deterministically from "
        "transaction inputs, or move the random choice off-chain and "
        "commit to it",
        paper="Section 5 (deterministic validation); Section 2.2 "
        "(commitments for off-chain choices)",
    ),
    Rule(
        code="D203",
        rule_id="nondet-env",
        severity=Severity.ERROR,
        summary="environment access (os / filesystem / network / process) "
        "inside contract/validation code",
        hint="contract code must be a pure function of the state view and "
        "arguments; fetch external facts via an oracle attestation",
        paper="Section 5 (deterministic validation); Section 4 (oracle "
        "attestation pattern)",
    ),
    Rule(
        code="D204",
        rule_id="unordered-iter",
        severity=Severity.WARNING,
        summary="iteration over a set inside contract/validation code",
        hint="wrap the iterable in sorted(...) so every node visits "
        "elements in the same order",
        paper="Section 5 (identical execution on every endorsing node)",
    ),
    Rule(
        code="D205",
        rule_id="unstable-hash",
        severity=Severity.WARNING,
        summary="builtin hash()/id() inside contract/validation code",
        hint="Python's hash() is salted per process and id() is an "
        "address; use repro.crypto.hashing for stable digests",
        paper="Section 5 (identical execution on every endorsing node)",
    ),
    # -- trust-boundary rules (platform caveats) -----------------------
    Rule(
        code="B301",
        rule_id="quorum-participant-broadcast",
        severity=Severity.INFO,
        summary="Quorum private transaction broadcasts its participant "
        "list to the whole network",
        hint="acceptable only when privacy of interaction is not "
        "required; otherwise prefer a platform with separated ledgers "
        "for parties",
        paper="Section 5 (Quorum: 'revealing to the entire network which "
        "parties are interacting')",
    ),
    Rule(
        code="B302",
        rule_id="plaintext-broadcast",
        severity=Severity.ERROR,
        summary="confidential value broadcast beyond the transaction "
        "participants",
        hint="a broadcast crosses every trust boundary at once: encrypt "
        "the payload, or broadcast only a hash/commitment",
        paper="Section 2.2 (encryption / hashes before leaving the "
        "participant set); Section 3.4",
    ),
    Rule(
        code="B303",
        rule_id="pdc-member-disclosure",
        severity=Severity.INFO,
        summary="private data collection use discloses the member list in "
        "associated transactions",
        hint="useful only if privacy of interaction is not required "
        "within the channel (the paper's PDC caveat)",
        paper="Section 5 (Fabric private data collections)",
    ),
    Rule(
        code="B304",
        rule_id="ordering-full-visibility",
        severity=Severity.INFO,
        summary="ordering principal configured with full transaction "
        "visibility",
        hint="a validating notary sees every transaction; use a "
        "non-validating notary with tear-offs or a member-operated "
        "sequencing service if that trust is not warranted",
        paper="Section 3.4 (third-party ordering visibility); Section 2.1 "
        "(private sequencing service)",
    ),
]

RULES: dict[str, Rule] = {rule.rule_id: rule for rule in _RULES}
RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in _RULES}


def rule(rule_id: str) -> Rule:
    """Look a rule up by id or code."""
    if rule_id in RULES:
        return RULES[rule_id]
    if rule_id in RULES_BY_CODE:
        return RULES_BY_CODE[rule_id]
    raise KeyError(f"unknown rule {rule_id!r}")
