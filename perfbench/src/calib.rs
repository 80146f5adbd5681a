//! Host-speed reference for the CPU-bound codesign workloads.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by up to 1.7x over minutes, as other tenants load the host's cores,
//! caches and clock. A codesign repetition is pure CPU work, so its
//! wall time moves with the host. To report the program's cost rather
//! than the host's load, every timed section of a codesign run is
//! bracketed by a fixed piece of reference work that belongs to the
//! benchmark and never changes with the program, and the section's time
//! is scaled by how fast the reference ran around it:
//!
//! ```text
//! normalized = raw * REFERENCE_S / mean(reference before, reference after)
//! ```
//!
//! A normalized time reads in seconds of a host on which the reference
//! takes [`REFERENCE_S`]. A program change that saves work lowers it as
//! it lowers the raw wall, while a slower or faster host mostly cancels.
//! The cancellation is partial, because no fixed reference slows exactly
//! like the program does; runs print the raw times beside the
//! normalized ones.

use std::hint::black_box;
use std::time::Instant;

/// The median time of one [`reference_work`] over the baseline runs in
/// `baseline.json` on a 2-vCPU Xeon VM (0.107 to 0.110 s), rounded, s.
/// Normalized times read in seconds of that host.
pub const REFERENCE_S: f64 = 0.11;

/// Loop-nest walks of [`walk`].
const WALKS: u64 = 60;
/// Surrogate fits of [`fit`].
const FITS: u64 = 1_500;
/// Small vectors sorted and hashed by [`sort_and_hash`].
const SORTS: u64 = 7_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn unit(v: u64) -> f64 {
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A fixed mix of the three kinds of work the codesign path spends its
/// time on, each taking about a third: walking a loop nest the way the
/// cycle-level simulator does, fitting a Gaussian-process surrogate the
/// way daBO does, and sorting and hashing small vectors the way the
/// samplers and the memo cache do. A busy host slows these by different
/// amounts, so the reference holds all three. The code is the
/// benchmark's own and never changes with the program.
pub fn reference_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let a = walk(&mut x);
    let b = fit(&mut x);
    let c = sort_and_hash(&mut x);
    black_box(a.to_bits() ^ b.to_bits() ^ c)
}

/// An odometer over a six-deep loop nest with a hashed set of the
/// output tiles seen and a two-stage pipeline in floating point.
fn walk(x: &mut u64) -> f64 {
    const TRIPS: [u64; 6] = [4, 6, 5, 7, 3, 8];
    let total: u64 = TRIPS.iter().product();
    let mut free = 0.0f64;
    for _ in 0..WALKS {
        let mut counters = [0u64; 6];
        let mut seen = std::collections::HashSet::new();
        let (mut dram, mut array) = (0.0f64, 0.0f64);
        let offset = xorshift(x) % 97;
        for _ in 0..total {
            let mut changed = [false; 6];
            for i in (0..6).rev() {
                counters[i] += 1;
                changed[i] = true;
                if counters[i] < TRIPS[i] {
                    break;
                }
                counters[i] = 0;
            }
            let id = (counters[0] * 8 + counters[3]) * 8 + counters[5];
            let mut load = if changed[1] || changed[4] { 3.0 } else { 1.0 };
            if changed[0] || changed[3] || changed[5] {
                load += if seen.insert(id + offset) { 2.0 } else { 4.0 };
            }
            dram += load / 16.0;
            let start = dram.max(array);
            array = start + 0.2;
        }
        free += array;
    }
    free
}

/// Cholesky factorisation of an RBF kernel matrix over random points,
/// then a solve against random targets.
fn fit(x: &mut u64) -> f64 {
    const N: usize = 36;
    const D: usize = 8;
    let mut total = 0.0;
    for _ in 0..FITS {
        let pts: Vec<[f64; D]> = (0..N)
            .map(|_| std::array::from_fn(|_| unit(xorshift(x))))
            .collect();
        let mut k = vec![0.0f64; N * N];
        for i in 0..N {
            for j in 0..=i {
                let d2: f64 = (0..D).map(|d| (pts[i][d] - pts[j][d]).powi(2)).sum();
                let v = (-0.5 * d2).exp() + if i == j { 1e-3 } else { 0.0 };
                k[i * N + j] = v;
                k[j * N + i] = v;
            }
        }
        for j in 0..N {
            let diag = k[j * N + j] - (0..j).map(|p| k[j * N + p].powi(2)).sum::<f64>();
            let l = diag.max(1e-12).sqrt();
            k[j * N + j] = l;
            for i in j + 1..N {
                let s: f64 = (0..j).map(|p| k[i * N + p] * k[j * N + p]).sum();
                k[i * N + j] = (k[i * N + j] - s) / l;
            }
        }
        let mut y: Vec<f64> = (0..N).map(|_| unit(xorshift(x))).collect();
        for i in 0..N {
            let s: f64 = (0..i).map(|p| k[i * N + p] * y[p]).sum();
            y[i] = (y[i] - s) / k[i * N + i];
        }
        total += y.iter().sum::<f64>();
    }
    total
}

/// Sorts small random vectors and counts their minima in a hash map.
fn sort_and_hash(x: &mut u64) -> u64 {
    let mut buckets = std::collections::HashMap::new();
    let mut mid = 0u64;
    for k in 0..SORTS {
        let mut v: Vec<u32> = (0..256).map(|_| xorshift(x) as u32).collect();
        v.sort_unstable();
        mid = mid.wrapping_add(u64::from(v[128]));
        *buckets.entry(v[0] % 4096).or_insert(0u64) += k;
    }
    mid ^ buckets.len() as u64
}

/// Runs [`reference_work`] on `threads` threads at once and returns the
/// wall time until all have finished, s. The codesign workloads use as
/// many threads as their spec, so a host that slows one of two cores
/// slows the reference the way it slows the run.
pub fn reference_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|k| s.spawn(move || reference_work(k)))
            .collect();
        for h in handles {
            black_box(h.join().expect("reference thread panicked"));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Scales each of `raw[i]`, timed between `refs[i]` and `refs[i + 1]`,
/// to the baseline host (see the module docs).
///
/// # Panics
/// If `refs` does not hold one more reference than `raw` has times.
pub fn normalize(raw: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(refs.len(), raw.len() + 1, "one reference around each time");
    raw.iter()
        .zip(refs.windows(2))
        .map(|(t, r)| t * REFERENCE_S * 2.0 / (r[0] + r[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_by_the_bracketing_references() {
        let refs = [REFERENCE_S, REFERENCE_S * 3.0, REFERENCE_S * 2.0];
        let got = normalize(&[4.0, 5.0], &refs);
        // Host at half speed, then at 0.4x speed.
        assert!((got[0] - 2.0).abs() < 1e-12, "{got:?}");
        assert!((got[1] - 2.0).abs() < 1e-12, "{got:?}");
    }

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(3), reference_work(3));
        assert_ne!(reference_work(3), reference_work(4));
    }
}
