//! The repository benchmark: four seeded workloads over the predictor,
//! the simulator, the advisor and the prediction service, each reporting
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! Every workload input is a pure function of `(seed, index)`; the
//! program under test only ever sees the generated inputs. See
//! `README.md` in this directory for why each workload exists and which
//! layer it is meant to load.

pub mod driver;
pub mod spans;
pub mod stats;
pub mod workloads;

/// The benchmark's own mixing function (SplitMix64).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic draw for op `index` of a run seeded with `seed`.
/// `stream` separates independent choices made for the same op.
pub fn draw(seed: u64, index: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ 0xA076_1D64_78BD_642F) ^ index) ^ stream)
}

/// Position of op `index` in a space of `size` input combinations. Ops
/// are dealt in blocks of `size`, each block a seeded shuffle of the
/// whole space, so every run covers the space evenly and the mix of cheap
/// and expensive ops barely varies from seed to seed.
pub fn dealt(seed: u64, index: u64, size: u64) -> u64 {
    let (block, offset) = (index / size, index % size);
    let mut perm: Vec<u64> = (0..size).collect();
    for k in (1..size as usize).rev() {
        let j = (draw(seed, block, 64 + k as u64) % (k as u64 + 1)) as usize;
        perm.swap(k, j);
    }
    perm[offset as usize]
}

/// Pick one element of `items` for `(seed, index, stream)`.
pub fn pick<T: Copy>(items: &[T], seed: u64, index: u64, stream: u64) -> T {
    items[(draw(seed, index, stream) % items.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_deals_the_whole_space_once() {
        for size in [1u64, 7, 90, 144, 480] {
            for block in 0..3 {
                let mut seen: Vec<u64> = (0..size)
                    .map(|o| dealt(5, block * size + o, size))
                    .collect();
                seen.sort();
                assert_eq!(seen, (0..size).collect::<Vec<_>>());
            }
        }
    }
}
