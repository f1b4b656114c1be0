//! Scoped-thread fan-out for many independent signature recoveries.
//!
//! [`recover_addresses_parallel`] spreads a large set of independent
//! ECDSA recoveries across `std::thread::scope` workers — the same
//! per-call worker idiom as `parp-runtime`'s sharded multiproof
//! executor: workers live exactly as long as the call, nothing
//! persists, and on a single-core host (or for tiny inputs) everything
//! runs inline. The exchange path does not use it: a PARP exchange
//! recovers two or three signatures, too few to pay for a spawn, so
//! those recoveries run inline.

use crate::ecdsa::{recover_address, Signature, SignatureError};
use parp_primitives::{Address, H256};

/// Worker-thread budget: available parallelism, capped so a wide quorum
/// cannot oversubscribe the host.
fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Maps `f` over `items`, fanning out across scoped workers when the
/// host has spare cores and the input is big enough to amortize the
/// spawns. Results come back in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_budget().min(items.len());
    if workers < 2 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    // Interleaved assignment (worker w takes items w, w+workers, …):
    // balanced without measuring per-item cost.
    let mut chunks: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect();
    });
    for chunk in chunks {
        for (i, r) in chunk {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index assigned to exactly one worker"))
        .collect()
}

/// Recovers the signing addresses of many independent `(digest,
/// signature)` pairs, in input order, across scoped workers — the batch
/// analogue of [`recover_address`].
pub fn recover_addresses_parallel(
    items: &[(H256, Signature)],
) -> Vec<Result<Address, SignatureError>> {
    par_map(items, |(digest, signature)| {
        recover_address(digest, signature)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;
    use crate::{sign, SecretKey};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            par_map(&items, |x| x * 3),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
        assert!(par_map(&items[..0], |x| x * 3).is_empty());
    }

    #[test]
    fn batch_recovery_matches_sequential() {
        let pairs: Vec<(H256, Signature)> = (0..24u8)
            .map(|i| {
                let key = SecretKey::from_seed(&[i]);
                let digest = keccak256(&[i, i]);
                (digest, sign(&key, &digest))
            })
            .collect();
        let parallel = recover_addresses_parallel(&pairs);
        for (i, result) in parallel.iter().enumerate() {
            let key = SecretKey::from_seed(&[i as u8]);
            assert_eq!(result.as_ref().ok(), Some(&key.address()));
        }
    }
}
