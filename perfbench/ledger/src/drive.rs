//! Driving exchanges: the untraced call each workload makes, the traced
//! pass that decomposes the same exchanges into their public steps, and
//! the ground-truth check of every verified payload.

use crate::calibrate::Calibration;
use crate::fixture::{Class, Fixture, Op, Step, Workload, QUORUM};
use crate::ledger::Ledger;
use crate::sys;
use parp_chain::{Account, State};
use parp_contracts::{BatchOutput, ParpBatchResponse, ParpResponse, RpcCall};
use parp_core::{ProcessBatchOutcome, ProcessOutcome, ProofEngine};
use parp_crypto::{keccak256, recover_address, sign, Keccak256};
use parp_gateway::QuorumOutcome;
use parp_net::NodeId;
use parp_primitives::{Address, H256};
use parp_trie::ProofBuf;
use std::time::Instant;

/// What one exchange returned, kept for the ground-truth check after
/// the timed loop.
#[derive(Debug)]
pub enum Record {
    /// A single `GetBalance`.
    Balance {
        /// Queried account.
        address: Address,
        /// Verified payload.
        result: Vec<u8>,
        /// Whether the state proof backed it.
        proven: bool,
    },
    /// A batch of `GetBalance` calls.
    Batch {
        /// Queried accounts, in call order.
        addresses: Vec<Address>,
        /// Verified payloads.
        results: Vec<Vec<u8>>,
        /// Per-item proof flags.
        proven: Vec<bool>,
    },
    /// A quorum `GetBalance`.
    Quorum {
        /// Queried account.
        address: Address,
        /// The gateway's outcome.
        outcome: QuorumOutcome,
    },
    /// A receipt lookup.
    Receipt {
        /// Containing block.
        block: u64,
        /// Index in the block.
        index: usize,
        /// Verified payload.
        result: Vec<u8>,
        /// Whether the receipt proof backed it.
        proven: bool,
    },
    /// A write, checked against the chain as soon as it returned (the
    /// transaction index is only known once it is mined).
    Write {
        /// Whether the payload named the transaction's mined index.
        correct: bool,
    },
    /// An outcome the client did not accept, or an exchange error.
    Unverified(String),
}

/// Bytes one exchange put on the simulated wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    /// Request plus response bytes.
    pub bytes: u64,
    /// Merkle proof bytes in the response.
    pub proof_bytes: u64,
}

fn unverified(e: impl std::fmt::Debug) -> Record {
    Record::Unverified(format!("{e:?}"))
}

fn single_record(fx: &Fixture, op: &Op, outcome: ProcessOutcome) -> Record {
    let ProcessOutcome::Valid { result, proven } = outcome else {
        return unverified(outcome);
    };
    match op {
        Op::Read(address) | Op::Quorum(address) => Record::Balance {
            address: *address,
            result,
            proven,
        },
        Op::Receipt { block, index, .. } => Record::Receipt {
            block: *block,
            index: *index,
            result,
            proven,
        },
        Op::Write(tx) => {
            let mined = fx.net.chain().transaction_location(&tx.hash());
            Record::Write {
                correct: proven
                    && mined.is_some_and(|(_, index)| result == parp_rlp::encode_u64(index as u64)),
            }
        }
        Op::Batch(_) => unreachable!("batches are recorded by batch_record"),
    }
}

fn batch_record(addresses: &[Address], outcome: ProcessBatchOutcome) -> Record {
    match outcome {
        ProcessBatchOutcome::Valid { results, proven } => Record::Batch {
            addresses: addresses.to_vec(),
            results,
            proven,
        },
        other => unverified(other),
    }
}

fn balance_calls(addresses: &[Address]) -> Vec<RpcCall> {
    addresses
        .iter()
        .map(|address| RpcCall::GetBalance { address: *address })
        .collect()
}

/// One exchange exactly as a user of the library makes it: the timed
/// unit of the untraced pass.
///
/// # Errors
///
/// Reports an exchange the network or gateway refused.
pub fn exchange(fx: &mut Fixture, op: &Op) -> Result<(Record, Option<Wire>), String> {
    let node = fx.providers[0];
    let wire = |s: parp_net::ExchangeStats| Wire {
        bytes: (s.request_bytes + s.response_bytes) as u64,
        proof_bytes: s.proof_bytes as u64,
    };
    match op {
        Op::Batch(addresses) => {
            let (outcome, stats) = fx
                .net
                .parp_batch_call(&mut fx.client, node, balance_calls(addresses))
                .map_err(|e| format!("{e:?}"))?;
            Ok((batch_record(addresses, outcome), Some(wire(stats))))
        }
        Op::Quorum(address) => {
            let gateway = fx
                .gateway
                .as_mut()
                .ok_or("quorum3 runs through a gateway")?;
            let outcome = gateway
                .quorum_call(&mut fx.net, op.rpc(), QUORUM)
                .map_err(|e| format!("{e:?}"))?;
            let record = Record::Quorum {
                address: *address,
                outcome,
            };
            Ok((record, None))
        }
        _ => {
            let (outcome, stats) = fx
                .net
                .parp_call(&mut fx.client, node, op.rpc())
                .map_err(|e| format!("{e:?}"))?;
            Ok((single_record(fx, op, outcome), Some(wire(stats))))
        }
    }
}

/// The account record the chain holds for `address`: the payload every
/// verified `GetBalance` must carry.
fn account_truth(fx: &Fixture, address: &Address) -> Vec<u8> {
    fx.net
        .chain()
        .state()
        .account(address)
        .map(Account::encode)
        .unwrap_or_default()
}

/// Checks one record against the chain's ground truth. Returns
/// `(verified calls, wrong calls)`: a payload that differs from the
/// chain, an unproven item, a quorum that disagreed, degraded or came
/// back short, and an unverified outcome all count as wrong.
pub fn check(fx: &Fixture, record: &Record) -> (u64, u64) {
    let one = |ok: bool| if ok { (1, 0) } else { (0, 1) };
    match record {
        Record::Balance {
            address,
            result,
            proven,
        } => one(*proven && *result == account_truth(fx, address)),
        Record::Batch {
            addresses,
            results,
            proven,
        } => {
            let good = addresses
                .iter()
                .enumerate()
                .filter(|(i, address)| {
                    proven.get(*i) == Some(&true)
                        && results.get(*i) == Some(&account_truth(fx, address))
                })
                .count() as u64;
            (good, addresses.len() as u64 - good)
        }
        Record::Quorum { address, outcome } => {
            let truth = account_truth(fx, address);
            one(outcome.agreed
                && !outcome.degraded
                && outcome.votes.len() == QUORUM
                && outcome.result == truth
                && outcome.votes.iter().all(|vote| vote.result == truth))
        }
        Record::Receipt {
            block,
            index,
            result,
            proven,
        } => {
            // The payload is `rlp([index, receipt])`, the receipt being
            // the chain's canonical encoding, warm or archived.
            let truth = fx
                .net
                .chain()
                .receipt_encoded(*block, *index)
                .map(|receipt| {
                    parp_rlp::encode_list(&[
                        parp_rlp::encode_u64(*index as u64),
                        parp_rlp::encode_bytes(&receipt),
                    ])
                });
            one(*proven && Some(result) == truth.as_ref())
        }
        Record::Write { correct } => one(*correct),
        Record::Unverified(_) => (0, 1),
    }
}

/// Folds what a run served into its replay digest.
pub struct Digest(Keccak256);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(Keccak256::new())
    }

    /// Absorbs one integer.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Absorbs a call and its record's payload bytes.
    pub fn exchange(&mut self, op: &Op, record: &Record) {
        match op {
            Op::Batch(addresses) => addresses.iter().for_each(|a| self.0.update(a.as_bytes())),
            _ => self.0.update(&op.rpc().encode()),
        }
        match record {
            Record::Balance { result, .. } | Record::Receipt { result, .. } => {
                self.0.update(result)
            }
            Record::Batch { results, .. } => results.iter().for_each(|r| self.0.update(r)),
            Record::Quorum { outcome, .. } => self.0.update(&outcome.result),
            Record::Write { correct } => self.u64(u64::from(*correct)),
            Record::Unverified(why) => self.0.update(why.as_bytes()),
        }
    }

    /// Absorbs the end-of-run state: head hash, wire totals, and the
    /// snapshot-cache, inclusion-cache, warm-tier and gateway counters.
    pub fn finish(mut self, fx: &Fixture, wire: Wire) -> String {
        self.0.update(fx.net.chain().head().hash().as_bytes());
        self.u64(wire.bytes);
        self.u64(wire.proof_bytes);
        let runtime = fx.net.runtime();
        for cache in [runtime.cache(), runtime.inclusion_cache()] {
            self.u64(cache.hits());
            self.u64(cache.misses());
        }
        if let Some(tier) = runtime.cold_storage().map(|cold| cold.tier()) {
            for v in [
                tier.hits(),
                tier.misses(),
                tier.spill_count(),
                tier.rehydrate_count(),
            ] {
                self.u64(v);
            }
        }
        if let Some(gateway) = &fx.gateway {
            for v in [
                gateway.calls_served(),
                gateway.retries(),
                gateway.hedges_fired(),
            ] {
                self.u64(v);
            }
        }
        let hash = self.0.finalize();
        hash.as_bytes()[..16]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// Counters sampled before and after a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Snapshot-cache hits and misses.
    pub cache: (u64, u64),
    /// Warm-tier hits, misses, spills and rehydrates.
    pub tier: (u64, u64, u64, u64),
    /// Gateway retries and fired hedges.
    pub gateway: (u64, u64),
}

impl Counters {
    /// Reads every counter now.
    pub fn read(fx: &Fixture) -> Self {
        let runtime = fx.net.runtime();
        let tier = runtime.cold_storage().map(|cold| cold.tier());
        Counters {
            cache: (runtime.cache().hits(), runtime.cache().misses()),
            tier: tier.map_or((0, 0, 0, 0), |t| {
                (t.hits(), t.misses(), t.spill_count(), t.rehydrate_count())
            }),
            gateway: fx
                .gateway
                .as_ref()
                .map_or((0, 0), |g| (g.retries(), g.hedges_fired())),
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            cache: (self.cache.0 - before.cache.0, self.cache.1 - before.cache.1),
            tier: (
                self.tier.0 - before.tier.0,
                self.tier.1 - before.tier.1,
                self.tier.2 - before.tier.2,
                self.tier.3 - before.tier.3,
            ),
            gateway: (
                self.gateway.0 - before.gateway.0,
                self.gateway.1 - before.gateway.1,
            ),
        }
    }
}

/// Outcome counts of one pass, after the ground-truth check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Logical calls attempted.
    pub attempted: u64,
    /// Calls whose payload matched the chain.
    pub verified: u64,
    /// Calls that were wrong or unverified.
    pub wrong: u64,
    /// Exchange errors and unverified outcomes, by message.
    pub errors: Vec<String>,
}

/// The untraced pass: every exchange timed from request build to
/// verified outcome.
pub struct Untraced {
    /// Per-exchange wall time (ns) with its class.
    pub samples: Vec<(u64, Class)>,
    /// Verified calls per exchange (after the ground-truth check).
    pub verified: Vec<u64>,
    /// Logical calls per exchange.
    pub calls: Vec<u64>,
    /// Loop wall time (s) and process CPU time (µs) at each window
    /// boundary, calibration included.
    pub marks: Vec<(f64, u64)>,
    /// The host-speed calibration sampled after every exchange.
    pub calibration: Calibration,
    /// Checked outcomes.
    pub tally: Tally,
    /// Wire totals (workloads whose exchanges report them).
    pub wire: Option<Wire>,
    /// Replay digest.
    pub digest: String,
}

/// Runs `schedule` untraced and checks every payload afterwards. Wall
/// and CPU time are marked every `window` exchanges.
pub fn run_untraced(fx: &mut Fixture, schedule: &[Step], window: usize) -> Untraced {
    let mut samples = Vec::with_capacity(schedule.len());
    let mut records = Vec::with_capacity(schedule.len());
    let mut wire_total = Wire::default();
    let mut has_wire = false;
    let mut calibration = Calibration::default();
    let mut marks = Vec::with_capacity(schedule.len() / window.max(1) + 2);
    let wall0 = Instant::now();
    for (i, step) in schedule.iter().enumerate() {
        if i % window.max(1) == 0 {
            marks.push((wall0.elapsed().as_secs_f64(), sys::process_cpu_us()));
        }
        let start = Instant::now();
        let done = exchange(fx, &step.op);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        calibration.sample();
        samples.push((ns, step.class));
        records.push(match done {
            Ok((record, wire)) => {
                if let Some(w) = wire {
                    has_wire = true;
                    wire_total.bytes += w.bytes;
                    wire_total.proof_bytes += w.proof_bytes;
                }
                record
            }
            Err(e) => Record::Unverified(e),
        });
    }
    marks.push((wall0.elapsed().as_secs_f64(), sys::process_cpu_us()));
    let mut tally = Tally::default();
    let mut digest = Digest::new();
    let mut verified = Vec::with_capacity(records.len());
    for (step, record) in schedule.iter().zip(&records) {
        let before = tally.verified;
        tally_record(fx, &mut tally, step.op.calls(), record);
        verified.push(tally.verified - before);
        digest.exchange(&step.op, record);
    }
    gateway_gate(fx, &mut tally);
    digest.u64(tally.attempted);
    Untraced {
        samples,
        verified,
        calls: schedule.iter().map(|step| step.op.calls()).collect(),
        marks,
        calibration,
        tally,
        wire: has_wire.then_some(wire_total),
        digest: digest.finish(fx, wire_total),
    }
}

fn tally_record(fx: &Fixture, tally: &mut Tally, calls: u64, record: &Record) {
    let (good, bad) = check(fx, record);
    tally.attempted += calls;
    tally.verified += good;
    tally.wrong += bad;
    if bad > 0 && tally.errors.len() < 8 {
        tally
            .errors
            .push(format!("{record:?}").chars().take(300).collect());
    }
}

/// Fault-free quorum reads never retry or hedge: any retry or fired
/// hedge fails the run like a wrong payload.
fn gateway_gate(fx: &Fixture, tally: &mut Tally) {
    if let Some(gateway) = &fx.gateway {
        if gateway.retries() > 0 || gateway.hedges_fired() > 0 {
            tally.wrong += 1;
            tally.errors.push(format!(
                "gateway retried {} times and fired {} hedges",
                gateway.retries(),
                gateway.hedges_fired()
            ));
        }
    }
}

/// The traced pass's results.
pub struct Traced {
    /// Spans and per-layer distributions.
    pub ledger: Ledger,
    /// Totals of the traced exchanges (ns).
    pub traced_ns: Vec<u64>,
    /// Totals of the interleaved untraced exchanges (ns).
    pub untraced_ns: Vec<u64>,
    /// Logical calls carried by the traced exchanges.
    pub traced_calls: u64,
    /// Wire totals of the traced exchanges (on `quorum3`: of their
    /// decomposed legs).
    pub wire: Wire,
    /// Counters accumulated over the pass.
    pub counters: Counters,
    /// Quorum reads made (for per-call gateway ratios).
    pub quorum_calls: u64,
    /// Process CPU ÷ wall over the pass.
    pub cpu_util: f64,
    /// The host-speed calibration sampled after every exchange.
    pub calibration: Calibration,
    /// Checked outcomes of every exchange, probes included.
    pub tally: Tally,
    /// Replay digest.
    pub digest: String,
}

/// A clone of the head state, refreshed whenever the head moves: the
/// state the `runtime.snapshot` step looks up in the runtime's cache.
/// Cloned off the exchange's clock (it is the benchmark's copy, not
/// work the program does).
struct Head {
    height: u64,
    state: Option<State>,
}

impl Head {
    fn current(&mut self, fx: &Fixture) -> &State {
        let height = fx.net.chain().height();
        if self.state.is_none() || self.height != height {
            self.height = height;
            self.state = Some(fx.net.chain().state().clone());
        }
        self.state.as_ref().expect("just refreshed")
    }
}

/// Runs `schedule` with every other exchange (every other cycle on
/// `write_mix`) traced: the traced ones are driven as their public steps
/// with spans, the others exactly as the untraced pass drives them, so
/// the tracing overhead is a comparison at the same moment on the same
/// host.
pub fn run_traced(fx: &mut Fixture, schedule: &[Step]) -> Traced {
    let mut ledger = Ledger::new();
    let mut head = Head {
        height: 0,
        state: None,
    };
    let mut traced_ns = Vec::new();
    let mut untraced_ns = Vec::new();
    let mut traced_calls = 0;
    let mut wire = Wire::default();
    let mut tally = Tally::default();
    let mut probe_tally = Tally::default();
    let mut digest = Digest::new();
    let mut quorum_calls = 0;
    let mut calibration = Calibration::default();
    let before = Counters::read(fx);
    let cpu0 = sys::process_cpu_us();
    let wall0 = Instant::now();
    let period = if fx.workload == Workload::WriteMix {
        crate::fixture::CYCLE
    } else {
        1
    };
    for (i, step) in schedule.iter().enumerate() {
        if matches!(step.op, Op::Quorum(_)) {
            quorum_calls += 1;
        }
        let record = if (i / period) % 2 == 1 {
            match traced_exchange(fx, &step.op, &mut ledger, &mut head, &mut probe_tally) {
                Ok((record, total_ns, w)) => {
                    traced_ns.push(total_ns);
                    traced_calls += step.op.calls();
                    wire.bytes += w.bytes;
                    wire.proof_bytes += w.proof_bytes;
                    record
                }
                Err(e) => Record::Unverified(e),
            }
        } else {
            let start = Instant::now();
            let done = exchange(fx, &step.op);
            untraced_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            done.map_or_else(Record::Unverified, |(record, _)| record)
        };
        calibration.sample();
        tally_record(fx, &mut tally, step.op.calls(), &record);
        digest.exchange(&step.op, &record);
    }
    let wall_s = wall0.elapsed().as_secs_f64() - calibration.total_s();
    let cpu_s = sys::process_cpu_us().saturating_sub(cpu0) as f64 / 1e6 - calibration.total_s();
    let counters = Counters::read(fx).since(before);
    // Probe legs are checked like any exchange; a wrong one fails the
    // run but does not count toward the workload's own calls.
    tally.wrong += probe_tally.wrong;
    tally.errors.extend(probe_tally.errors);
    gateway_gate(fx, &mut tally);
    digest.u64(tally.attempted);
    Traced {
        ledger,
        traced_ns,
        untraced_ns,
        traced_calls,
        wire,
        counters,
        quorum_calls,
        cpu_util: cpu_s / wall_s.max(1e-9),
        calibration,
        digest: digest.finish(fx, wire),
        tally,
    }
}

/// Sub-stage probes shared by single and batched exchanges.
fn crypto_probes(
    ledger: &mut Ledger,
    fx: &Fixture,
    request_hash: &H256,
    sig: &parp_crypto::Signature,
    response: &[u8],
) {
    ledger.probe("crypto.sign", || sign(fx.client.secret(), request_hash));
    ledger.probe("crypto.recover", || recover_address(request_hash, sig));
    ledger.probe("crypto.keccak", || keccak256(response));
}

/// One single-call exchange on `node`, driven as its public steps:
/// request build, snapshot lookup, serve, header sync, wire encode and
/// client processing; then the sub-stage probes on the same inputs.
fn traced_single(
    fx: &mut Fixture,
    node: NodeId,
    op: &Op,
    ledger: &mut Ledger,
    head: &mut Head,
) -> Result<(ProcessOutcome, u64, Wire), String> {
    let provider = fx.net.node(node).address();
    let call = op.rpc();
    let state_address = match op {
        Op::Read(address) | Op::Quorum(address) => Some(*address),
        _ => None,
    };
    let lookup = state_address.unwrap_or(fx.accounts[0]);
    let state = head.current(fx);
    let mut x = ledger.begin("exchange");
    let request = ledger
        .step(&mut x, "core.request", || {
            fx.client.request_from(provider, call)
        })
        .map_err(|e| format!("{e:?}"))?;
    ledger.step(&mut x, "runtime.snapshot", || {
        fx.net.runtime_mut().account_proof(state, &lookup)
    });
    let response = ledger
        .step(&mut x, "net.serve", || fx.net.serve(node, &request))
        .map_err(|e| format!("{e:?}"))?;
    let serve_ns = x.last_step_ns();
    ledger.step(&mut x, "net.sync", || fx.net.sync_client(&mut fx.client));
    let (request_bytes, response_bytes) = ledger.step(&mut x, "net.encode", || {
        (request.encode(), response.encode())
    });
    let outcome = ledger
        .step(&mut x, "core.process", || {
            fx.client.process_response_from(provider, &response)
        })
        .map_err(|e| format!("{e:?}"))?;
    let total = ledger.end(x);

    // The request was just paid, so this re-verification ends in the
    // payment check's refusal, after the same two recoveries and
    // envelope checks the serve ran.
    let executor = fx.net.executor();
    let verify_ns = ledger.probe("core.verify_request", || {
        fx.net.node(node).verify_request(&request, executor)
    });
    if let Some(address) = state_address {
        let trie = state.shared_trie();
        let key = keccak256(address.as_bytes());
        ledger.probe("runtime.proof", || trie.prove(key.as_bytes()));
        if let Some(header) = fx.net.chain().header_at(response.block_number) {
            ledger.probe("trie.verify", || {
                parp_trie::verify_proof(header.state_root, key.as_bytes(), &response.proof)
            });
        }
    }
    let secret = *fx.net.node(node).secret();
    let respond_ns = ledger.probe("core.respond", || {
        ParpResponse::build(
            &secret,
            &request,
            response.block_number,
            response.result.clone(),
            response.proof.clone(),
        )
    });
    ledger.probe("contracts.decode", || ParpResponse::decode(&response_bytes));
    if matches!(op, Op::Write(_)) {
        // A write's serve is verify, block production, inclusion proof
        // and respond; the chain's share is what the probes leave.
        ledger.record(
            "chain.mine",
            serve_ns.saturating_sub(verify_ns + respond_ns),
        );
    }
    crypto_probes(
        ledger,
        fx,
        &request.request_hash,
        &request.request_sig,
        &response_bytes,
    );
    let wire = Wire {
        bytes: (request_bytes.len() + response_bytes.len()) as u64,
        proof_bytes: response.proof_bytes() as u64,
    };
    Ok((outcome, total, wire))
}

/// One batch exchange, driven as its public steps, then probed.
fn traced_batch(
    fx: &mut Fixture,
    addresses: &[Address],
    ledger: &mut Ledger,
    head: &mut Head,
) -> Result<(Record, u64, Wire), String> {
    let node = fx.providers[0];
    let provider = fx.net.node(node).address();
    let calls = balance_calls(addresses);
    let state = head.current(fx);
    let mut x = ledger.begin("exchange");
    let request = ledger
        .step(&mut x, "core.request", || {
            fx.client.request_batch_from(provider, calls)
        })
        .map_err(|e| format!("{e:?}"))?;
    ledger.step(&mut x, "runtime.snapshot", || {
        fx.net.runtime_mut().account_proof(state, &addresses[0])
    });
    let response = ledger
        .step(&mut x, "net.serve", || fx.net.serve_batch(node, &request))
        .map_err(|e| format!("{e:?}"))?;
    ledger.step(&mut x, "net.sync", || fx.net.sync_client(&mut fx.client));
    let (request_bytes, response_bytes) = ledger.step(&mut x, "net.encode", || {
        (request.encode(), response.encode())
    });
    let outcome = ledger
        .step(&mut x, "core.process", || {
            fx.client.process_batch_response_from(provider, &response)
        })
        .map_err(|e| format!("{e:?}"))?;
    let total = ledger.end(x);

    let executor = fx.net.executor();
    ledger.probe("core.verify_request", || {
        fx.net.node(node).verify_batch_request(&request, executor)
    });
    let trie = state.shared_trie();
    let shards = fx.net.runtime().shards();
    let mut buf = ProofBuf::default();
    ledger.probe("runtime.proof", || {
        parp_runtime::sharded_account_multiproof_into(&trie, addresses, shards, &mut buf)
    });
    let keys: Vec<H256> = addresses.iter().map(|a| keccak256(a.as_bytes())).collect();
    if let Some(header) = fx.net.chain().header_at(response.block_number) {
        ledger.probe("trie.verify", || {
            parp_trie::verify_many(header.state_root, &keys, &response.multiproof)
        });
    }
    let secret = *fx.net.node(node).secret();
    ledger.probe("core.respond", || {
        ParpBatchResponse::build(
            &secret,
            &request,
            BatchOutput {
                block_number: response.block_number,
                results: response.results.clone(),
                multiproof: response.multiproof.clone(),
                item_blocks: response.item_blocks.clone(),
                item_proofs: response.item_proofs.clone(),
                headers: response.headers.clone(),
            },
        )
    });
    ledger.probe("contracts.decode", || {
        ParpBatchResponse::decode(&response_bytes)
    });
    crypto_probes(
        ledger,
        fx,
        &request.request_hash,
        &request.request_sig,
        &response_bytes,
    );
    let wire = Wire {
        bytes: (request_bytes.len() + response_bytes.len()) as u64,
        proof_bytes: response.proof_bytes() as u64,
    };
    Ok((batch_record(addresses, outcome), total, wire))
}

/// One traced exchange of the workload. Returns its record, its total
/// (ns) and its wire bytes.
fn traced_exchange(
    fx: &mut Fixture,
    op: &Op,
    ledger: &mut Ledger,
    head: &mut Head,
    probe_tally: &mut Tally,
) -> Result<(Record, u64, Wire), String> {
    match op {
        Op::Batch(addresses) => traced_batch(fx, addresses, ledger, head),
        Op::Quorum(address) => traced_quorum(fx, *address, ledger, head, probe_tally),
        _ => {
            let node = fx.providers[0];
            if let Op::Receipt { block, index, .. } = op {
                // The store layer's own cold read of what this lookup
                // serves: receipt and header of an archived block.
                let chain = fx.net.chain();
                if *block < chain.resident_base() {
                    ledger.probe("store.cold_read", || {
                        (
                            chain.receipt_encoded(*block, *index),
                            chain.header_at(*block),
                        )
                    });
                }
            }
            let (outcome, total, wire) = traced_single(fx, node, op, ledger, head)?;
            Ok((single_record(fx, op, outcome), total, wire))
        }
    }
}

/// One traced quorum read: the gateway call itself is the exchange;
/// afterwards the gateway's refresh, a bare k = 3 fan-out on the plain
/// client, and each of the three legs decomposed into its public steps
/// are timed on the same call.
fn traced_quorum(
    fx: &mut Fixture,
    address: Address,
    ledger: &mut Ledger,
    head: &mut Head,
    probe_tally: &mut Tally,
) -> Result<(Record, u64, Wire), String> {
    let op = Op::Quorum(address);
    let mut x = ledger.begin("exchange");
    let gateway = fx
        .gateway
        .as_mut()
        .ok_or("quorum3 runs through a gateway")?;
    let outcome = ledger
        .step(&mut x, "gateway.quorum_call", || {
            gateway.quorum_call(&mut fx.net, op.rpc(), QUORUM)
        })
        .map_err(|e| format!("{e:?}"))?;
    let total = ledger.end(x);

    let net = &fx.net;
    if let Some(gateway) = fx.gateway.as_mut() {
        ledger.probe("gateway.refresh", || gateway.refresh(net));
    }
    let legs: Vec<(NodeId, RpcCall)> = fx.providers.iter().map(|&n| (n, op.rpc())).collect();
    let (fanout, fanout_ns) = ledger.probe_with("net.fanout", || {
        fx.net.parp_call_fanout(&mut fx.client, &legs)
    });
    let quorum_ns = total;
    ledger.record("gateway.overhead", quorum_ns.saturating_sub(fanout_ns));
    for leg in fanout {
        let record = match leg {
            Ok((outcome, _)) => single_record(fx, &op, outcome),
            Err(e) => unverified(e),
        };
        tally_record(fx, probe_tally, 0, &record);
    }
    let mut wire = Wire::default();
    for node in fx.providers.clone() {
        let (outcome, _, w) = traced_single(fx, node, &op, ledger, head)?;
        let record = single_record(fx, &op, outcome);
        tally_record(fx, probe_tally, 0, &record);
        wire.bytes += w.bytes;
        wire.proof_bytes += w.proof_bytes;
    }
    Ok((Record::Quorum { address, outcome }, total, wire))
}
