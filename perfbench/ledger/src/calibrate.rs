//! Host-speed calibration interleaved with the workload.
//!
//! On a shared 2-vCPU VM the host's speed for multiply-heavy code drifts
//! by up to 2× over seconds to minutes (co-tenant contention; steal time
//! stays near zero), and the drift moves exchange latency with it. A
//! calibration loop run once before or after the workload does not
//! track that drift; a small fixed kernel timed after *every* exchange
//! does, because it samples the same moments the exchanges ran in.
//!
//! The kernel is secp256k1-style field arithmetic (4×64-bit schoolbook
//! multiply, fold of the high half by 2²⁵⁶ mod p): the instruction mix
//! that dominates an exchange's ECDSA work. It is this benchmark's own
//! code, not the program's, so no change to the program moves it. Its
//! median time over a window of exchanges gives the factor that
//! expresses that window's timings at the nominal host speed
//! ([`NOMINAL_NS`]).

use std::hint::black_box;
use std::time::Instant;

/// Median kernel time (ns) of the host speed results are expressed at:
/// the kernel's median, one call after each exchange, on the reference
/// 2-vCPU host in its common state.
pub const NOMINAL_NS: f64 = 5_500.0;

/// [`NOMINAL_NS`] for set-up bursts, whose back-to-back calls run warm
/// and faster than one call after an exchange.
pub const NOMINAL_BURST_NS: f64 = 4_000.0;

/// Field multiplications per kernel call (about 5 µs).
const ROUNDS: u64 = 100;

/// Kernel calls per set-up burst (about 0.3 ms).
const BURST: usize = 64;

/// `a · b` folded to 256 bits with 2²⁵⁶ ≡ 0x1000003D1 (not fully
/// reduced: the kernel only needs the work, not canonical values).
fn field_mul(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    const FOLD: u128 = 0x1_0000_03D1;
    let mut wide = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let p = u128::from(a[i]) * u128::from(b[j]) + u128::from(wide[i + j]) + carry;
            wide[i + j] = p as u64;
            carry = p >> 64;
        }
        wide[i + 4] = carry as u64;
    }
    let mut folded = [0u64; 4];
    let mut carry = 0u128;
    for i in 0..4 {
        let p = u128::from(wide[i]) + u128::from(wide[i + 4]) * FOLD + carry;
        folded[i] = p as u64;
        carry = p >> 64;
    }
    let mut carry = carry * FOLD;
    for limb in &mut folded {
        let p = u128::from(*limb) + carry;
        *limb = p as u64;
        carry = p >> 64;
    }
    folded
}

/// The calibration kernel: a dependent chain of squarings and
/// multiplications by a constant.
fn kernel(mut x: [u64; 4]) -> [u64; 4] {
    let c = [3, 5, 7, 11];
    for _ in 0..ROUNDS {
        x = field_mul(field_mul(x, x), c);
    }
    x
}

/// Kernel timings of one run.
#[derive(Default)]
pub struct Calibration {
    samples: Vec<u64>,
}

impl Calibration {
    /// Times one kernel call.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(kernel(black_box([
            0x1234_5678_9abc_def0,
            0x0fed_cba9_8765_4321,
            0x1357_9bdf_2468_ace0,
            0x0246_8ace_1357_9bdf,
        ])));
        self.samples
            .push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Times a burst of kernel calls: how set-up, whose steps are long
    /// library calls, samples the host between them.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.sample();
        }
    }

    /// Time spent in the kernel (s): taken out of the loop's wall and
    /// CPU time so the workload's own figures exclude it.
    pub fn total_s(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64 / 1e9
    }

    /// Kernel timings (ns), one per sample, in order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Median kernel time (ns).
    pub fn median_ns(&self) -> f64 {
        median_ns(&self.samples)
    }
}

/// Median of kernel timings (ns); [`NOMINAL_NS`] when there are none.
pub fn median_ns(samples: &[u64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted
        .get(sorted.len() / 2)
        .map_or(NOMINAL_NS, |&ns| ns as f64)
}

/// Factor that converts a time measured alongside `samples` (one kernel
/// call after each exchange) to the nominal host speed: below 1 when the
/// host ran slow.
pub fn factor(samples: &[u64]) -> f64 {
    NOMINAL_NS / median_ns(samples)
}

/// [`factor`] for samples taken in set-up bursts.
pub fn burst_factor(samples: &[u64]) -> f64 {
    NOMINAL_BURST_NS / median_ns(samples)
}
