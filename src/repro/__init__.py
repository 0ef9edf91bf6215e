"""repro: reproduction of "Designing for Privacy and Confidentiality on
Distributed Ledgers for Enterprise" (Irvin & Kiral, Middleware 2019).

Public API layers, bottom-up:

- ``repro.crypto``    — from-scratch primitives behind every mechanism
  (signatures, PKI, Merkle tear-offs, ZKPs, Idemix-style credentials,
  one-time keys, MPC, Paillier, simulated TEEs).
- ``repro.network``   — discrete-event network with leakage observer taps.
- ``repro.ledger``    — transactions, blocks, chains, world state,
  ordering services with explicit visibility.
- ``repro.offchain``  — hash-anchored off-chain stores with true deletion.
- ``repro.execution`` — smart contracts and the three execution engines.
- ``repro.platforms`` — behavioural simulations of Hyperledger Fabric,
  Corda, and Quorum, plus each one's Table 1 column as a probe table.
- ``repro.core``      — the paper's contribution: mechanism catalog,
  Figure 1 decision tree, the full design guide, Table 1 regeneration,
  and the leakage auditor.
- ``repro.usecases``  — letters of credit (Section 4), secret ballots,
  oracle attestation with tear-offs.

Quickstart::

    from repro.core import design_solution, score_platforms
    from repro.usecases import letter_of_credit_requirements

    design = design_solution(letter_of_credit_requirements())
    print(design.describe())
    for score in score_platforms(design):
        print(score.platform, score.score)
"""

__version__ = "1.0.0"
