//! Exchange-ledger benchmark: end-to-end and per-layer cost of PARP
//! exchanges on four workloads (see `perfbench/NOTES.md`).
//!
//! ```text
//! perfbench --workload <read_single|batch64|quorum3|write_mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` times the workload's exchanges untraced and prints the
//! end-to-end metrics; `--trace 1` runs the same seeded schedule with
//! every other exchange decomposed into its public steps and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, every verified
//! payload is checked against the chain, and a wrong payload makes the
//! exit code non-zero.

mod calibrate;
mod drive;
mod fixture;
mod ledger;
mod sys;

use calibrate::Calibration;
use fixture::{Class, Fixture, Workload, FULL};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Per-layer timing metrics of the traced pass: `(layer, what it times,
/// the end-to-end metric it should move)`. Every workload reports all
/// of them.
const LAYERS: [(&str, &str, &str); 15] = [
    (
        "core.request",
        "LightClient::request_from / request_batch_from",
        "exchange_p50_us",
    ),
    (
        "runtime.snapshot",
        "snapshot-cache lookup of the head state",
        "read_after_write_p50_us",
    ),
    (
        "net.serve",
        "Network::serve / serve_batch",
        "exchange_p50_us",
    ),
    ("net.sync", "Network::sync_client", "exchange_p50_us"),
    ("net.encode", "request + response encode", "exchange_p50_us"),
    (
        "core.process",
        "LightClient::process_response_from / process_batch_response_from",
        "exchange_p50_us",
    ),
    (
        "net.residual",
        "exchange total minus its steps",
        "must stay small",
    ),
    (
        "core.verify_request",
        "FullNode::verify_request / verify_batch_request",
        "exchange_p50_us, cpu_us_per_call",
    ),
    (
        "runtime.proof",
        "account prove / sharded_account_multiproof_into",
        "exchange_p50_us, cpu_us_per_call",
    ),
    (
        "core.respond",
        "ParpResponse::build / ParpBatchResponse::build",
        "exchange_p50_us",
    ),
    (
        "contracts.decode",
        "ParpResponse::decode / ParpBatchResponse::decode",
        "exchange_p50_us",
    ),
    (
        "trie.verify",
        "parp_trie::verify_proof / verify_many",
        "exchange_p50_us",
    ),
    (
        "crypto.sign",
        "parp_crypto::sign on the request digest",
        "exchange_p50_us",
    ),
    (
        "crypto.recover",
        "parp_crypto::recover_address on the request signature",
        "exchange_p50_us",
    ),
    (
        "crypto.keccak",
        "parp_crypto::keccak256 over the response envelope",
        "exchange_p50_us",
    ),
];

/// Layers only some workloads exercise: printed with the ledger and kept
/// in the trace, but not in the result object, which lists the same
/// metrics for every workload.
const SHAPE_LAYERS: [(&str, &str, &str); 6] = [
    (
        "gateway.quorum_call",
        "Gateway::quorum_call (the traced exchange)",
        "exchange_p50_us",
    ),
    ("gateway.refresh", "Gateway::refresh", "exchange_p50_us"),
    (
        "net.fanout",
        "Network::parp_call_fanout, k = 3, plain client",
        "exchange_p50_us, cpu_us_per_call",
    ),
    (
        "gateway.overhead",
        "quorum_call minus net.fanout",
        "exchange_p50_us",
    ),
    (
        "chain.mine",
        "write serve minus its verify and respond probes",
        "write_p50_us",
    ),
    (
        "store.cold_read",
        "Blockchain::receipt_encoded + header_at on a pruned block",
        "cold_read_p50_us",
    ),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = ".bench_build/perfbench".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

/// What a pass hands back for the result line and the stored record.
struct Pass {
    metrics: Vec<Metric>,
    tally: drive::Tally,
    digest: String,
    /// Extra JSON members for the stored record (raw figures).
    record: String,
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1_000.0
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn header_json(args: &Args) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"time_source\": \"wall\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        sys::available_parallelism(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        sys::git_rev(),
    )
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Untraced pass: the end-to-end metrics.
fn end_to_end(args: &Args) -> Result<Pass, String> {
    // Each set-up's time (calibration bursts excluded) and the same time
    // at the nominal host speed of its bursts.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        // The previous fixture is dropped first, so peak memory is one
        // fixture's, whatever the repetition count.
        drop(fixture.take());
        let mut cal = Calibration::default();
        let start = Instant::now();
        fixture = Some(Fixture::build(args.workload, FULL, &mut cal)?);
        let raw = start.elapsed().as_secs_f64() - cal.total_s();
        raw_setups.push(raw);
        setups.push(raw * calibrate::burst_factor(cal.samples()));
    }
    let mut fx = fixture.ok_or("no set-up ran")?;
    let window = args.workload.window();
    let schedule = fx.schedule(args.seed, args.workload.exchanges(args.seconds));
    let run = drive::run_untraced(&mut fx, &schedule, window);

    let tally = &run.tally;
    let attempted = tally.attempted.max(1) as f64;
    let cal = run.calibration.samples();
    // Each figure is computed per one-second window, at the nominal host
    // speed of that window's calibration samples, and the run reports the
    // median over its windows (see NOTES.md, "Host noise").
    let mut windows: Vec<[f64; 4]> = Vec::new();
    let mut raw_windows: Vec<[f64; 4]> = Vec::new();
    for (w, range) in (0..run.samples.len())
        .step_by(window)
        .map(|a| a..(a + window).min(run.samples.len()))
        .enumerate()
    {
        let cal_w = &cal[range.clone()];
        let cal_s = cal_w.iter().sum::<u64>() as f64 / 1e9;
        let mut ns: Vec<u64> = run.samples[range.clone()]
            .iter()
            .map(|(ns, _)| *ns)
            .collect();
        let (wall0, cpu0) = run.marks[w];
        let (wall1, cpu1) = run.marks[w + 1];
        let wall = (wall1 - wall0 - cal_s).max(1e-9);
        let cpu_us = (cpu1.saturating_sub(cpu0)) as f64 - cal_s * 1e6;
        let verified: u64 = run.verified[range.clone()].iter().sum();
        let calls: u64 = run.calls[range].iter().sum();
        let raw_w = [
            quantile_us(&mut ns, 0.5),
            quantile_us(&mut ns, 0.9),
            verified as f64 / wall,
            cpu_us.max(0.0) / calls.max(1) as f64,
        ];
        let f = calibrate::factor(cal_w);
        windows.push([raw_w[0] * f, raw_w[1] * f, raw_w[2] / f, raw_w[3] * f]);
        raw_windows.push(raw_w);
    }
    let column =
        |rows: &[[f64; 4]], i: usize| median(&mut rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let factor = calibrate::factor(cal);
    let gated = |rows: &[[f64; 4]], setup: f64| {
        vec![
            metric("exchange_p50_us", column(rows, 0), "us"),
            metric("exchange_p90_us", column(rows, 1), "us"),
            metric("calls_per_s", column(rows, 2), "1/s"),
            metric("cpu_us_per_call", column(rows, 3), "us"),
            metric("verified_ratio", tally.verified as f64 / attempted, "ratio"),
            metric("setup_s", setup, "s"),
            metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        ]
    };
    let metrics = gated(&windows, median(&mut setups.clone()));
    let raw_metrics = gated(&raw_windows, median(&mut raw_setups.clone()));
    println!(
        "samples {} exchanges in {} windows, {} calls, timed wall {:.3} s",
        run.samples.len(),
        windows.len(),
        tally.attempted,
        run.marks.last().map_or(0.0, |m| m.0)
    );
    println!(
        "calibration median {:.1} ns over {} samples (nominal {:.0} ns): factor {:.4}",
        run.calibration.median_ns(),
        cal.len(),
        calibrate::NOMINAL_NS,
        factor
    );
    println!(
        "setup_s runs {:?} raw {:?}",
        setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        raw_setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    );
    for (m, r) in metrics.iter().zip(&raw_metrics) {
        println!(
            "metric {:<22} {:>14.3} {:<5} raw {:>14.3}",
            m.name, m.value, m.unit, r.value
        );
    }
    // Shape metrics: printed here, not in the result object (they exist
    // on some workloads only). Whole-run quantiles.
    if let Some(wire) = run.wire {
        println!(
            "metric {:<22} {:>14.3} B",
            "wire_bytes_per_call",
            wire.bytes as f64 / attempted
        );
    }
    if args.workload == Workload::WriteMix {
        for (name, c) in [
            ("write_p50_us", Class::Write),
            ("read_after_write_p50_us", Class::ReadAfterWrite),
            ("cold_read_p50_us", Class::ColdRead),
            ("warm_read_p50_us", Class::WarmRead),
        ] {
            let mut s: Vec<u64> = run
                .samples
                .iter()
                .filter(|(_, k)| *k == c)
                .map(|(ns, _)| *ns)
                .collect();
            let p50 = quantile_us(&mut s, 0.5);
            println!(
                "metric {:<22} {:>14.3} us    raw {:>14.3} (n={})",
                name,
                p50 * factor,
                p50,
                s.len()
            );
        }
    }
    println!("digest {}", run.digest);
    let record = format!(
        "\"calibration_ns\": {}, \"raw\": {}",
        run.calibration.median_ns(),
        result_json(tally.wrong == 0, tally.attempted, 0, &raw_metrics)
    );
    Ok(Pass {
        metrics,
        tally: run.tally,
        digest: run.digest,
        record,
    })
}

/// Traced pass: the per-layer metrics.
fn per_layer(args: &Args) -> Result<Pass, String> {
    let mut fx = Fixture::build(args.workload, FULL, &mut Calibration::default())?;
    let schedule = fx.schedule(args.seed, args.workload.exchanges(args.seconds));
    let run = drive::run_traced(&mut fx, &schedule);
    let ledger = &run.ledger;
    let mut metrics = Vec::new();
    // The result object carries mean self times: exact (the histograms
    // keep exact sums, while their quantiles are bucket bounds) and
    // additive, so the step means plus the residual mean make up the
    // mean exchange. Medians are printed beside them.
    for (layer, _, _) in LAYERS {
        let value = ledger.mean_us(layer).unwrap_or(0.0);
        metrics.push(metric(&format!("{layer}_us"), value, "us"));
    }
    let traced_p50 = quantile_us(&mut run.traced_ns.clone(), 0.5);
    let untraced_p50 = quantile_us(&mut run.untraced_ns.clone(), 0.5);
    let calls = run.traced_calls.max(1) as f64;
    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    let c = run.counters;
    let quorum = run.quorum_calls.max(1) as f64;
    metrics.extend([
        metric(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        metric(
            "net.wire_bytes_per_call",
            run.wire.bytes as f64 / calls,
            "B",
        ),
        metric(
            "trie.proof_bytes_per_call",
            run.wire.proof_bytes as f64 / calls,
            "B",
        ),
        metric(
            "runtime.cache_hit_ratio",
            ratio(c.cache.0, c.cache.1),
            "ratio",
        ),
        metric("store.tier_hit_ratio", ratio(c.tier.0, c.tier.1), "ratio"),
        metric("store.spills", c.tier.2 as f64, "count"),
        metric("store.rehydrates", c.tier.3 as f64, "count"),
        metric(
            "gateway.hedges_per_call",
            c.gateway.1 as f64 / quorum,
            "count",
        ),
        metric(
            "gateway.retries_per_call",
            c.gateway.0 as f64 / quorum,
            "count",
        ),
        metric("process.cpu_util", run.cpu_util, "ratio"),
        metric("host.calibration_ns", run.calibration.median_ns(), "ns"),
    ]);

    println!(
        "traced {} exchanges (p50 {:.3} us) interleaved with {} untraced (p50 {:.3} us)",
        run.traced_ns.len(),
        traced_p50,
        run.untraced_ns.len(),
        untraced_p50
    );
    println!(
        "{:<22} {:>11} {:>11} {:>8}  {:<34} times",
        "layer", "p50_us", "mean_us", "n", "moves"
    );
    for (layer, what, moves) in LAYERS.iter().chain(SHAPE_LAYERS.iter()) {
        if let (Some((p50, n)), Some(mean)) = (ledger.median_us(layer), ledger.mean_us(layer)) {
            println!("{layer:<22} {p50:>11.3} {mean:>11.3} {n:>8}  {moves:<34} {what}");
        }
    }
    for m in &metrics[LAYERS.len()..] {
        println!("metric {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("digest {}", run.digest);
    let trace_path = format!(
        "{}/trace_{}_seed{}.json",
        args.out_dir,
        args.workload.name(),
        args.seed
    );
    std::fs::write(&trace_path, ledger.export_chrome_json())
        .map_err(|e| format!("write {trace_path}: {e}"))?;
    println!("trace written to {trace_path}");
    Ok(Pass {
        metrics,
        tally: run.tally,
        digest: run.digest,
        record: format!("\"trace\": \"{trace_path}\""),
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create {}: {e}", args.out_dir))?;
    let header = header_json(&args);
    println!("header {header}");
    let pass = if args.trace {
        per_layer(&args)?
    } else {
        end_to_end(&args)?
    };
    let tally = &pass.tally;
    for error in &tally.errors {
        println!("wrong {error}");
    }
    let correct = tally.wrong == 0 && tally.attempted > 0;
    let failed = tally.attempted - tally.verified.min(tally.attempted);
    let result = result_json(correct, tally.attempted, failed, &pass.metrics);
    let stored = format!(
        "{}/result_{}_seed{}_trace{}.json",
        args.out_dir,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"header\": {header}, \"digest\": \"{}\", \"result\": {result}, {}}}\n",
        pass.digest, pass.record
    );
    std::fs::write(&stored, record).map_err(|e| format!("write {stored}: {e}"))?;
    println!("{result}");
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixture::Scale;

    /// Small enough to build in seconds, deep enough that the write mix
    /// still reads receipts behind the 257-block resident window.
    const SMALL: Scale = Scale {
        accounts: 256,
        history_blocks: 300,
    };

    fn digest(workload: Workload, seed: u64) -> String {
        let mut fx = Fixture::build(workload, SMALL, &mut Calibration::default()).expect("set-up");
        let schedule = fx.schedule(seed, 4 * fixture::CYCLE);
        let run = drive::run_untraced(&mut fx, &schedule, fixture::CYCLE);
        assert_eq!(
            run.tally.wrong,
            0,
            "{}: {:?}",
            workload.name(),
            run.tally.errors
        );
        assert_eq!(run.tally.verified, run.tally.attempted);
        run.digest
    }

    #[test]
    fn replay_digest_repeats_per_seed_and_differs_across_seeds() {
        for workload in Workload::ALL {
            let first = digest(workload, 7);
            assert_eq!(first, digest(workload, 7), "{}: same seed", workload.name());
            assert_ne!(
                first,
                digest(workload, 8),
                "{}: other seed",
                workload.name()
            );
        }
    }

    #[test]
    fn wrong_payloads_fail_the_gate() {
        let fx = Fixture::build(Workload::ReadSingle, SMALL, &mut Calibration::default())
            .expect("set-up");
        let address = fx.accounts[0];
        let wrong = drive::Record::Balance {
            address,
            result: vec![0xc0],
            proven: true,
        };
        assert_eq!(drive::check(&fx, &wrong), (0, 1));
        let truth = fx
            .net
            .chain()
            .state()
            .account(&address)
            .expect("funded")
            .encode();
        let unproven = drive::Record::Balance {
            address,
            result: truth.clone(),
            proven: false,
        };
        assert_eq!(drive::check(&fx, &unproven), (0, 1));
        let right = drive::Record::Balance {
            address,
            result: truth,
            proven: true,
        };
        assert_eq!(drive::check(&fx, &right), (1, 0));
    }
}
