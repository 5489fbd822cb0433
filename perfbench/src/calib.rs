//! Host-speed calibration. The shared hosts this benchmark runs on change
//! speed by up to 1.7x over tens of seconds, so host times of identical
//! repetitions minutes apart differ more than any bound worth setting. A
//! fixed reference loop, timed right before and right after each
//! repetition on as many threads as the repetition runs, measures the
//! host's speed at that moment; the end-to-end host times are scaled by
//! it to a host where the loop takes [`REFERENCE_S`]. The loop belongs
//! to the benchmark, not the program, so a change to the program moves
//! the scaled times as it moves the raw ones.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Barrier;
use std::time::Instant;

/// The reference loop's time on the host the scaled times refer to.
pub const REFERENCE_S: f64 = 0.25;

/// Working set of the random-access pass, in 8-byte words (32 MB, well
/// past the last-level cache, as the simulator's state is).
const WORDS: usize = 1 << 22;

/// Barrier rounds of the lockstep pass.
const ROUNDS: u32 = 8_000;

/// Times one pass of the reference loop. On several threads every thread
/// makes the pass at once and then a lockstep pass, and the slowest
/// thread's time counts: the partitioned executor's workers meet at a
/// barrier every window, so a run on several threads moves at its slowest
/// thread's pace and pays for each wake-up at the barrier, which on a
/// shared host costs more the busier the host is.
pub fn reference_s(threads: usize) -> f64 {
    if threads <= 1 {
        return one_pass_s();
    }
    let barrier = Barrier::new(threads);
    // lint:allow(D004): times the host's cores; no simulation runs on these threads
    std::thread::scope(|s| {
        let passes: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| one_pass_s() + lockstep_s(&barrier)))
            .collect();
        passes
            .into_iter()
            .map(|p| p.join().expect("reference pass"))
            .fold(0.0, f64::max)
    })
}

/// Times [`ROUNDS`] rounds of a little arithmetic, each ended at a
/// barrier all threads meet at.
fn lockstep_s(barrier: &Barrier) -> f64 {
    // lint:allow(D002): host-side benchmark timing, never feeds simulated time
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..ROUNDS {
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        barrier.wait();
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Times one pass of the reference loop: the kinds of work the simulator
/// does — random reads and writes over a large working set, an ordered
/// map with inserts and removals, and a priority queue of timed events.
fn one_pass_s() -> f64 {
    let mut words: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    // lint:allow(D002): host-side benchmark timing, never feeds simulated time
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..6_000_000 {
        let i = next() as usize & (WORDS - 1);
        acc = acc.wrapping_add(words[i]);
        words[i] = acc;
    }
    let mut map = BTreeMap::new();
    for i in 0..400_000u64 {
        let k = next() >> 44;
        *map.entry(k).or_insert(0u64) += i;
        if i % 3 == 0 {
            map.remove(&(k ^ 5));
        }
    }
    let mut heap = BinaryHeap::new();
    for i in 0..1_000_000u64 {
        heap.push(std::cmp::Reverse(next() >> 20));
        if i % 2 == 1 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Keep the work observable so that none of it is optimised away.
    std::hint::black_box((acc, map.len(), heap.len()));
    elapsed
}
