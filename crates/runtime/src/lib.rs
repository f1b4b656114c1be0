//! `parp-runtime`: the concurrent serving runtime behind a PARP full
//! node.
//!
//! The accountable RPC protocol only matters at provider scale — a full
//! node serving heavy read traffic from many light clients must not let
//! per-request overheads swamp the accountability machinery. This crate
//! supplies the three serving-layer mechanisms the protocol layer
//! (`parp-core`) deliberately stays agnostic of:
//!
//! * [`SnapshotCache`] — an LRU of fully built, `Arc`-shared state
//!   tries keyed by state root. Every exchange served at an unchanged
//!   head reuses one trie instead of paying an O(accounts) rebuild;
//!   [`Runtime::note_new_head`] is the invalidation hook block
//!   production (and reorgs) drive.
//! * [`sharded_account_multiproof`] — batch items split across a
//!   `std::thread` worker pool in equal contiguous chunks (balanced for
//!   any key skew), workers exchanging arena witness ids rather than
//!   proof bytes, with per-shard paths merged into the *same*
//!   deduplicated multiproof the sequential path produces:
//!   byte-identical output for every shard count, so sharding can never
//!   change what the client verifies.
//! * [`AdmissionController`] + [`FairQueue`] — per-client token-bucket
//!   rate limiting and fair round-robin dequeueing across open
//!   channels, so one flooding client is bounded to its paid-for rate
//!   and cannot starve honest clients (the incentive-compatibility
//!   condition Relay Mining identifies for multi-tenant RPC serving).
//! * [`TieredSnapshotStore`] + [`ColdProofEngine`] — a byte-budgeted
//!   warm tier over per-block inclusion tries, spilling cold pages to
//!   `parp-store` segment files and rehydrating them on demand, so a
//!   node can serve arbitrarily deep history under a fixed
//!   `storage_budget_bytes` memory envelope.
//!
//! [`Runtime`] bundles the three behind `parp-core`'s
//! [`ProofEngine`](parp_core::ProofEngine) hook:
//!
//! ```
//! use parp_runtime::{Runtime, RuntimeConfig};
//! use parp_chain::State;
//! use parp_core::ProofEngine;
//! use parp_primitives::{Address, U256};
//!
//! let mut runtime = Runtime::new(RuntimeConfig { shards: 4, ..Default::default() });
//! let state = State::with_alloc(
//!     (1..=100u64).map(|i| (Address::from_low_u64_be(i), U256::from(i))),
//! );
//! let addresses = [Address::from_low_u64_be(1), Address::from_low_u64_be(2)];
//! let multiproof = runtime.account_multiproof(&state, &addresses);
//! // Identical bytes to the sequential path, with the build now cached.
//! assert_eq!(multiproof, state.account_multiproof(&addresses));
//! assert_eq!(runtime.cache().misses(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod cache;
mod runtime;
mod shard;
mod tiered;

pub use admission::{AdmissionController, AdmissionError, AdmissionStats, FairQueue, TokenBucket};
pub use cache::SnapshotCache;
pub use runtime::{Runtime, RuntimeConfig, RuntimeError};
pub use shard::{
    shard_of, sharded_account_multiproof, sharded_account_multiproof_into, INLINE_THRESHOLD,
    MAX_SHARDS,
};
pub use tiered::{ColdProofEngine, TieredSnapshotStore};
