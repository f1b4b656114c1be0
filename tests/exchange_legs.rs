//! The network's one exchange pipeline, seen through its three entry
//! points (`parp_call`, `parp_batch_call`, `parp_call_fanout`):
//!
//! * a lost request or a late response never poisons the channel — the
//!   retry after either comes back `Valid` on every leg shape;
//! * every attempted leg counts one call for its provider and every
//!   end other than `Valid` one failure;
//! * k fan-out legs match k single calls on a twin network in outcome,
//!   bytes and stats, while the clock advances by the slowest leg.

use parp_suite::chain::Transaction;
use parp_suite::contracts::RpcCall;
use parp_suite::core::{LightClient, ProcessBatchOutcome, ProcessOutcome};
use parp_suite::crypto::SecretKey;
use parp_suite::net::{ExchangeStats, FaultConfig, Network, NodeId, ProviderFaultRates, SimError};
use parp_suite::primitives::{Address, U256};

const PRICE: u64 = 10;
const DEADLINE_US: u64 = 25_000;

/// Three providers at one price, a funded read target, a funded write
/// sender, and a client bonded to every provider. Deterministic: two
/// calls build byte-identical twins.
fn fixture() -> (Network, Vec<NodeId>, LightClient) {
    let mut net = Network::new();
    net.set_call_deadline_us(DEADLINE_US);
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| net.spawn_node(format!("legs-node-{i}").as_bytes(), U256::from(PRICE)))
        .collect();
    net.fund(target());
    net.fund(sender().address());
    let mut client = net.spawn_client(b"legs-client", U256::from(PRICE));
    for &node in &nodes {
        net.connect(&mut client, node, U256::from(100_000u64))
            .unwrap();
    }
    (net, nodes, client)
}

fn target() -> Address {
    Address::from_low_u64_be(0x1E65)
}

fn sender() -> SecretKey {
    SecretKey::from_seed(b"legs-sender")
}

fn read() -> RpcCall {
    RpcCall::GetBalance { address: target() }
}

fn write() -> RpcCall {
    let tx = Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(Address::from_low_u64_be(0xBEEF)),
        value: U256::from(5u64),
        data: Vec::new(),
    }
    .sign(&sender());
    RpcCall::SendRawTransaction { raw: tx.encode() }
}

/// A schedule that hits every exchange with node 0 with one fault:
/// a drop, or a delay past the deadline.
fn always_on_node_0(drop_ppm: u32, delay_ppm: u32) -> FaultConfig {
    FaultConfig {
        seed: 13,
        delay_base_us: 2 * DEADLINE_US,
        delay_spike_us: 2 * DEADLINE_US,
        overrides: vec![ProviderFaultRates {
            provider_index: 0,
            drop_ppm,
            corrupt_ppm: 0,
            delay_ppm,
        }],
        ..FaultConfig::default()
    }
}

fn single_is_valid(result: &Result<(ProcessOutcome, ExchangeStats), SimError>) -> bool {
    matches!(result, Ok((ProcessOutcome::Valid { .. }, _)))
}

/// Runs one faulted attempt on every leg shape against node 0, then
/// lifts the fault and retries: every retry must verify.
fn faulted_then_retried(fault: FaultConfig) {
    let (mut net, nodes, mut client) = fixture();
    let n0 = nodes[0];

    net.install_fault_plane(fault.clone());
    let first = net.parp_call(&mut client, n0, read());
    assert!(matches!(first, Err(SimError::Timeout { .. })), "{first:?}");
    net.install_fault_plane(FaultConfig::default());
    let retry = net.parp_call(&mut client, n0, read());
    assert!(single_is_valid(&retry), "single retry: {retry:?}");

    net.install_fault_plane(fault.clone());
    let first = net.parp_batch_call(&mut client, n0, vec![read(); 4]);
    assert!(matches!(first, Err(SimError::Timeout { .. })), "{first:?}");
    net.install_fault_plane(FaultConfig::default());
    let retry = net.parp_batch_call(&mut client, n0, vec![read(); 4]);
    assert!(
        matches!(retry, Ok((ProcessBatchOutcome::Valid { .. }, _))),
        "batch retry: {retry:?}"
    );

    let legs = [(n0, read()), (nodes[1], read())];
    net.install_fault_plane(fault);
    let first = net.parp_call_fanout(&mut client, &legs);
    assert!(
        matches!(first[0], Err(SimError::Timeout { .. })),
        "{first:?}"
    );
    assert!(single_is_valid(&first[1]), "untouched leg: {first:?}");
    net.install_fault_plane(FaultConfig::default());
    let retry = net.parp_call_fanout(&mut client, &legs);
    assert!(
        retry.iter().all(single_is_valid),
        "fan-out retry: {retry:?}"
    );
}

#[test]
fn dropped_request_then_retry_is_valid_on_every_leg_shape() {
    faulted_then_retried(always_on_node_0(1_000_000, 0));
}

#[test]
fn late_response_then_retry_is_valid_on_every_leg_shape() {
    faulted_then_retried(always_on_node_0(0, 1_000_000));
}

#[test]
fn lost_request_is_not_charged_and_late_response_is() {
    for (fault, charged) in [
        (always_on_node_0(1_000_000, 0), 0u64),
        (always_on_node_0(0, 1_000_000), PRICE),
    ] {
        let (mut net, nodes, mut client) = fixture();
        let provider = net.node(nodes[0]).address();
        net.install_fault_plane(fault);
        assert!(net.parp_call(&mut client, nodes[0], read()).is_err());
        // The client's ledger agrees with what the provider can redeem.
        let spent = client.channel_with(&provider).unwrap().spent;
        assert_eq!(spent, U256::from(charged));
        let channel = client.channel_with(&provider).unwrap().id;
        let redeemable = net
            .node(nodes[0])
            .served_channel(channel)
            .map_or(U256::ZERO, |c| c.latest_amount);
        assert_eq!(redeemable, spent);
    }
}

#[test]
fn every_attempted_leg_counts_one_call_and_each_non_valid_end_one_failure() {
    let (mut net, nodes, mut client) = fixture();
    let stranger = net.spawn_node(b"legs-unbonded", U256::from(PRICE));
    let calls_failures = |net: &Network, node: NodeId| {
        let stats = net.provider_stats(&net.node(node).address());
        (stats.calls(), stats.failures())
    };

    // Valid ends: calls only.
    assert!(single_is_valid(&net.parp_call(
        &mut client,
        nodes[0],
        read()
    )));
    assert_eq!(calls_failures(&net, nodes[0]), (1, 0));

    // Client-side refusals while building the request: no channel with
    // the provider (single, batch and fan-out leg alike), and an empty
    // batch on a bonded channel.
    assert!(matches!(
        net.parp_call(&mut client, stranger, read()),
        Err(SimError::Client(_))
    ));
    assert!(matches!(
        net.parp_batch_call(&mut client, stranger, vec![read()]),
        Err(SimError::Client(_))
    ));
    let fanout = net.parp_call_fanout(&mut client, &[(stranger, read()), (nodes[1], read())]);
    assert!(matches!(fanout[0], Err(SimError::Client(_))));
    assert!(single_is_valid(&fanout[1]));
    assert_eq!(calls_failures(&net, stranger), (3, 3));
    assert_eq!(calls_failures(&net, nodes[1]), (1, 0));
    assert!(matches!(
        net.parp_batch_call(&mut client, nodes[0], Vec::new()),
        Err(SimError::Client(_))
    ));
    assert_eq!(calls_failures(&net, nodes[0]), (2, 1));

    // Transport faults: one call and one failure per attempt.
    net.install_fault_plane(always_on_node_0(1_000_000, 0));
    assert!(net.parp_call(&mut client, nodes[0], read()).is_err());
    assert_eq!(calls_failures(&net, nodes[0]), (3, 2));

    // An unknown node has no provider to account to.
    let before = net.provider_stats_all();
    assert!(matches!(
        net.parp_call(&mut client, NodeId(99), read()),
        Err(SimError::UnknownNode(99))
    ));
    assert_eq!(net.provider_stats_all(), before);
}

/// Runs `legs` as one fan-out on a fresh network and as single calls in
/// the same order on its twin, and checks they agree leg by leg; the
/// fan-out's clock advances by the slowest leg and the singles' by the
/// sum of theirs.
fn assert_fanout_matches_singles(legs: impl Fn(&[NodeId]) -> Vec<(NodeId, RpcCall)>) {
    let (mut fan_net, nodes, mut fan_client) = fixture();
    let (mut one_net, twin_nodes, mut one_client) = fixture();
    assert_eq!(nodes, twin_nodes);
    let legs = legs(&nodes);

    let fan_start = fan_net.now_us();
    let fanned = fan_net.parp_call_fanout(&mut fan_client, &legs);
    let one_start = one_net.now_us();
    let singles: Vec<_> = legs
        .iter()
        .map(|(node, call)| one_net.parp_call(&mut one_client, *node, call.clone()))
        .collect();

    assert_eq!(fanned.len(), legs.len());
    let mut slowest = 0u64;
    let mut sum = 0u64;
    for (fan, one) in fanned.iter().zip(&singles) {
        match (fan, one) {
            (Ok((fan_outcome, fan_stats)), Ok((one_outcome, one_stats))) => {
                assert_eq!(fan_outcome, one_outcome);
                assert_eq!(fan_stats, one_stats);
                slowest = slowest.max(fan_stats.latency_us());
                sum += one_stats.latency_us();
            }
            (Err(fan_err), Err(one_err)) => {
                assert_eq!(format!("{fan_err:?}"), format!("{one_err:?}"));
            }
            _ => panic!("fan-out leg {fan:?} disagrees with single call {one:?}"),
        }
    }
    assert_eq!(fan_net.now_us() - fan_start, slowest, "max of the legs");
    assert_eq!(one_net.now_us() - one_start, sum, "sum of the singles");
    assert_eq!(
        fan_net.chain().head().header.hash(),
        one_net.chain().head().header.hash()
    );
}

#[test]
fn fanout_legs_match_single_calls_on_a_twin_network() {
    assert_fanout_matches_singles(|n| {
        vec![(n[0], read()), (n[1], RpcCall::BlockNumber), (n[2], read())]
    });
}

#[test]
fn fanout_with_a_repeated_node_matches_single_calls() {
    assert_fanout_matches_singles(|n| vec![(n[0], read()), (n[0], read()), (n[1], read())]);
}

#[test]
fn fanout_with_a_write_leg_matches_single_calls() {
    assert_fanout_matches_singles(|n| vec![(n[0], read()), (n[1], write()), (n[2], read())]);
}

#[test]
fn unknown_node_fails_only_its_own_fanout_slot() {
    assert_fanout_matches_singles(|n| vec![(n[0], read()), (NodeId(99), read()), (n[1], read())]);
    let (mut net, nodes, mut client) = fixture();
    let results = net.parp_call_fanout(
        &mut client,
        &[(nodes[0], read()), (NodeId(99), read()), (nodes[1], read())],
    );
    assert!(single_is_valid(&results[0]));
    assert!(matches!(results[1], Err(SimError::UnknownNode(99))));
    assert!(single_is_valid(&results[2]));
}
