"""Ledger substrate: transactions, blocks, chains, state, validation, ordering."""

from repro.ledger.anchors import (
    Anchor,
    AnchorLedger,
    ChannelAnchorer,
    ExistenceProof,
)
from repro.ledger.block import (
    GENESIS_DIGEST,
    Block,
    BlockHeader,
    Chain,
    Checkpoint,
    build_block,
)
from repro.ledger.ordering import (
    OrderedBatch,
    OrdererProfile,
    OrderingService,
)
from repro.ledger.state import WorldState
from repro.ledger.transaction import (
    Endorsement,
    ReadEntry,
    Transaction,
    WriteEntry,
)
from repro.ledger.validation import (
    EndorsementPolicy,
    apply_writes,
    check_read_set,
    validate_and_apply,
    verify_endorsements,
)

__all__ = [name for name in dir() if not name.startswith("_")]
