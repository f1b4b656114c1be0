//! Workload fixtures: the shared funded state, the providers and clients
//! each workload drives, and the seeded call schedule.
//!
//! Every workload runs on `LatencyModel::zero()` with the shipped
//! defaults (`Runtime` with 4 shards, `GatewayConfig::default()`), one
//! client identity and a closed loop. The schedule is a pure function of
//! the seed and the fixture, so two runs with one seed make the same
//! calls in the same order and only time differs between them.

use crate::calibrate::Calibration;
use parp_chain::{SignedTransaction, Transaction};
use parp_contracts::RpcCall;
use parp_core::LightClient;
use parp_crypto::SecretKey;
use parp_gateway::{Gateway, GatewayConfig};
use parp_net::{splitmix64, LatencyModel, Network, NodeId};
use parp_primitives::{Address, H256, U256};

/// The four exchange shapes the benchmark drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Network::parp_call` with one `GetBalance` on a uniform account.
    ReadSingle,
    /// `Network::parp_batch_call` with 64 Zipf-skewed `GetBalance` calls.
    Batch64,
    /// `Gateway::quorum_call`, k = 3, over three honest providers.
    Quorum3,
    /// Deep history on; an 8-call cycle of one write and seven reads.
    WriteMix,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ReadSingle,
        Workload::Batch64,
        Workload::Quorum3,
        Workload::WriteMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSingle => "read_single",
            Workload::Batch64 => "batch64",
            Workload::Quorum3 => "quorum3",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Exchanges per measurement window: about one second of the shape on
    /// a 2-vCPU host, in whole write-mix cycles. A run's length is fixed by
    /// `--seconds` alone, never by the clock, so every count repeats
    /// between runs.
    pub fn window(self) -> usize {
        match self {
            Workload::ReadSingle => 1_504,
            Workload::Batch64 => 304,
            Workload::Quorum3 => 400,
            Workload::WriteMix => 120,
        }
    }

    /// Exchanges in a run of `seconds`: whole windows, at least one.
    pub fn exchanges(self, seconds: f64) -> usize {
        (seconds.round() as usize).max(1) * self.window()
    }
}

/// How big the shared state and the archived history are.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Funded accounts every workload reads from.
    pub accounts: usize,
    /// Blocks mined (one transaction each) before the accounts are
    /// funded on `write_mix`: the archive the cold receipt reads hit.
    pub history_blocks: u64,
}

/// The benchmark's scale: 10,000 accounts, 1,024 archived blocks.
pub const FULL: Scale = Scale {
    accounts: 10_000,
    history_blocks: 1_024,
};

/// Calls in one batch on `batch64`.
pub const BATCH: usize = 64;
/// Providers a quorum read fans out to.
pub const QUORUM: usize = 3;
/// Length of the `write_mix` cycle: one write, then seven reads.
pub const CYCLE: usize = 8;
/// Skew of the batch account picks and of the cold receipt picks.
const ZIPF_EXPONENT: f64 = 1.1;
/// Warm-tier byte budget of the deep-history runtime.
const WARM_TIER_BUDGET_BYTES: usize = 1_024;
/// Price per call (wei) every provider charges.
const PRICE: u64 = 10;
/// Base of the funded account addresses.
const ACCOUNT_BASE: u64 = 0xA000_0000;
/// Where the `write_mix` writes send value: never a read target.
const SINK: u64 = 0x5111_0000;
/// Seed of the warm-up schedule: fixed, so set-up is the same work for
/// every run seed.
const WARMUP_SEED: u64 = 0x5EED_0000_0000_0001;
/// Exchanges driven while warming up (one write-mix cycle's worth).
const WARMUP_EXCHANGES: usize = 2 * CYCLE;

/// What one scheduled exchange asks for.
#[derive(Clone, Debug)]
pub enum Op {
    /// One `GetBalance` through `Network::parp_call`.
    Read(Address),
    /// One batch of `GetBalance` calls through `Network::parp_batch_call`.
    Batch(Vec<Address>),
    /// One `GetBalance` through `Gateway::quorum_call`.
    Quorum(Address),
    /// One `SendRawTransaction` through `Network::parp_call`.
    Write(SignedTransaction),
    /// One `GetTransactionReceipt` for an archived transaction.
    Receipt {
        /// Transaction hash.
        hash: H256,
        /// Containing block.
        block: u64,
        /// Index within the block.
        index: usize,
    },
}

impl Op {
    /// Logical RPC calls the exchange carries (a batch counts each item,
    /// a quorum read counts once).
    pub fn calls(&self) -> u64 {
        match self {
            Op::Batch(addresses) => addresses.len() as u64,
            _ => 1,
        }
    }

    /// The wire-level RPC call of a single exchange.
    pub fn rpc(&self) -> RpcCall {
        match self {
            Op::Read(address) | Op::Quorum(address) => RpcCall::GetBalance { address: *address },
            Op::Write(tx) => RpcCall::SendRawTransaction { raw: tx.encode() },
            Op::Receipt { hash, .. } => RpcCall::GetTransactionReceipt { hash: *hash },
            Op::Batch(_) => unreachable!("a batch has no single wire call"),
        }
    }
}

/// Which latency class an exchange belongs to (the `write_mix` split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Any exchange of the three read-only workloads.
    Plain,
    /// A `write_mix` write.
    Write,
    /// The `GetBalance` right after a write.
    ReadAfterWrite,
    /// A `write_mix` `GetBalance` that does not follow a write.
    WarmRead,
    /// A receipt read of an archived transaction.
    ColdRead,
}

/// One scheduled exchange.
#[derive(Clone, Debug)]
pub struct Step {
    /// The request.
    pub op: Op,
    /// Its latency class.
    pub class: Class,
}

/// A built workload: network, providers, clients and schedule inputs.
pub struct Fixture {
    /// The workload this fixture serves.
    pub workload: Workload,
    /// The in-process network.
    pub net: Network,
    /// Provider ids (one, or three on `quorum3`).
    pub providers: Vec<NodeId>,
    /// The benchmark's bonded client: the workload's caller, and on
    /// `quorum3` the plain client bonded to all three providers that the
    /// traced pass decomposes legs on.
    pub client: LightClient,
    /// The quorum gateway (`quorum3` only).
    pub gateway: Option<Gateway>,
    /// Funded read targets.
    pub accounts: Vec<Address>,
    /// Archived transactions, oldest first: `(hash, block, index)`.
    pub receipts: Vec<(H256, u64, usize)>,
    writer: SecretKey,
    writer_nonce: u64,
}

fn sim<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

impl Fixture {
    /// Builds the workload's network and warms it: state funding,
    /// history mining, providers, channel opens, then a fixed warm-up
    /// schedule so lazy tables and the snapshot cache are filled before
    /// anything is timed. Calibration bursts run between the steps, so
    /// set-up time can be expressed at the nominal host speed too.
    ///
    /// # Errors
    ///
    /// Reports any set-up step the network refuses.
    pub fn build(workload: Workload, scale: Scale, cal: &mut Calibration) -> Result<Self, String> {
        let price = U256::from(PRICE);
        let mut net = Network::with_latency(LatencyModel::zero());
        let mut receipts = Vec::new();
        cal.burst();
        if workload == Workload::WriteMix {
            net.enable_deep_history(0, WARM_TIER_BUDGET_BYTES)
                .map_err(sim("enable deep history"))?;
            // One transfer per block over a small target set: history
            // depth without state breadth.
            for i in 0..scale.history_blocks {
                net.fund(Address::from_low_u64_be(0xB10C_0000 + i % 32));
                if i % 128 == 127 {
                    cal.burst();
                }
            }
            for (hash, block) in net.transaction_locations() {
                let index = net
                    .chain()
                    .transaction_location(&hash)
                    .map_or(0, |(_, index)| index);
                receipts.push((hash, block, index));
            }
        }
        let accounts: Vec<Address> = (0..scale.accounts as u64)
            .map(|i| Address::from_low_u64_be(ACCOUNT_BASE + i))
            .collect();
        // `fund_many` mines 1,000 transfers per block; calling it per
        // block's worth leaves the same blocks and lets bursts interleave.
        for block in accounts.chunks(1_000) {
            net.fund_many(block);
            cal.burst();
        }
        let provider_count = if workload == Workload::Quorum3 {
            QUORUM
        } else {
            1
        };
        let providers: Vec<NodeId> = (0..provider_count)
            .map(|i| net.spawn_node(format!("perfbench-node-{i}").as_bytes(), price))
            .collect();
        let mut client = net.spawn_client(b"perfbench-client", price);
        for &node in &providers {
            net.connect(&mut client, node, U256::from(1u64) << 60)
                .map_err(sim("connect"))?;
        }
        let gateway = (workload == Workload::Quorum3).then(|| {
            let gateway_client = net.spawn_client(b"perfbench-gateway", price);
            Gateway::new(gateway_client, GatewayConfig::default())
        });
        let writer = SecretKey::from_seed(b"perfbench-writer");
        if workload == Workload::WriteMix {
            net.fund(writer.address());
        }
        let writer_nonce = net.chain().nonce(&writer.address());
        let mut fixture = Fixture {
            workload,
            net,
            providers,
            client,
            gateway,
            accounts,
            receipts,
            writer,
            writer_nonce,
        };
        cal.burst();
        let warmup = fixture.schedule(WARMUP_SEED, WARMUP_EXCHANGES);
        for step in &warmup {
            crate::drive::exchange(&mut fixture, &step.op).map_err(sim("warm-up"))?;
        }
        cal.burst();
        Ok(fixture)
    }

    /// The seeded schedule of `exchanges` exchanges. Writes are signed
    /// here, before any timing, with consecutive nonces.
    pub fn schedule(&mut self, seed: u64, exchanges: usize) -> Vec<Step> {
        let mut rng = Rng::new(seed);
        let n = self.accounts.len();
        let zipf_accounts = Zipf::new(n);
        let zipf_receipts = Zipf::new(self.receipts.len());
        (0..exchanges)
            .map(|i| match self.workload {
                Workload::ReadSingle => Step {
                    op: Op::Read(self.accounts[rng.below(n)]),
                    class: Class::Plain,
                },
                Workload::Batch64 => Step {
                    op: Op::Batch(
                        (0..BATCH)
                            .map(|_| self.accounts[zipf_accounts.sample(&mut rng)])
                            .collect(),
                    ),
                    class: Class::Plain,
                },
                Workload::Quorum3 => Step {
                    op: Op::Quorum(self.accounts[rng.below(n)]),
                    class: Class::Plain,
                },
                Workload::WriteMix => match i % CYCLE {
                    0 => Step {
                        op: Op::Write(self.next_write(&mut rng)),
                        class: Class::Write,
                    },
                    1 => Step {
                        op: Op::Read(self.accounts[rng.below(n)]),
                        class: Class::ReadAfterWrite,
                    },
                    k if k % 2 == 0 => {
                        let (hash, block, index) = self.receipts[zipf_receipts.sample(&mut rng)];
                        Step {
                            op: Op::Receipt { hash, block, index },
                            class: Class::ColdRead,
                        }
                    }
                    _ => Step {
                        op: Op::Read(self.accounts[rng.below(n)]),
                        class: Class::WarmRead,
                    },
                },
            })
            .collect()
    }

    /// A signed value transfer from the writer to the sink: touches no
    /// read target, so balances read later still match the state.
    fn next_write(&mut self, rng: &mut Rng) -> SignedTransaction {
        let nonce = self.writer_nonce;
        self.writer_nonce += 1;
        Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(SINK)),
            value: U256::from(1 + rng.below(1_000) as u64),
            data: Vec::new(),
        }
        .sign(&self.writer)
    }
}

/// Counter-mode splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n`: rank 0 is the most likely. For
/// accounts that means a few hot keys sharing trie paths; for receipts,
/// ranks run oldest first, so the mass sits deepest in the archive.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-ZIPF_EXPONENT);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let target = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len().saturating_sub(1))
    }
}
