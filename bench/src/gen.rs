//! Seeded inputs. The seed drives the packet-length table, the flow
//! visiting order and the stall rotation; the program under test sees
//! only what is generated here. Phases are time-boxed, so a run consumes
//! a prefix (cyclically) of these tables whose length depends on the
//! host — the tables themselves depend on the seed alone.

/// Entries in the length and flow-order tables (a power of two so the
/// cursor wraps with a mask).
pub const TABLE: usize = 1 << 16;
/// Largest packet, in flits; lengths are uniform in `1..=MAX_LEN`, so the
/// 1-flit packet (where per-packet cost dominates) is always present.
pub const MAX_LEN: u32 = 16;

/// SplitMix64: tiny, seedable, and good enough to shuffle tables.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is far
    /// below anything a throughput figure can see).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub seed: u64,
    /// Packet lengths, uniform `1..=MAX_LEN`.
    pub lens: Vec<u32>,
    /// Flow visiting order: back-to-back seeded permutations of
    /// `0..n_flows`, so every flow is offered the same packet count
    /// (fairness checks need that) in an order the seed decides.
    pub flows: Vec<u32>,
    /// Which link to freeze next (`0..stall_links`), never the one just
    /// thawed, so every rotation really moves the stall.
    pub stall_order: Vec<u8>,
}

impl Inputs {
    pub fn new(seed: u64, n_flows: usize, stall_links: u8) -> Self {
        assert!(
            (1..=TABLE).contains(&n_flows),
            "flow order table holds whole permutations"
        );
        let mut rng = SplitMix64::new(seed);
        let lens = (0..TABLE)
            .map(|_| 1 + rng.below(u64::from(MAX_LEN)) as u32)
            .collect();
        let mut flows = Vec::with_capacity(TABLE + n_flows);
        let mut perm: Vec<u32> = (0..n_flows as u32).collect();
        while flows.len() < TABLE {
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            flows.extend_from_slice(&perm);
        }
        flows.truncate(TABLE);
        let mut stall_order = Vec::with_capacity(256);
        let mut last = u8::MAX;
        while stall_order.len() < 256 && stall_links > 0 {
            let l = rng.below(u64::from(stall_links)) as u8;
            if l != last || stall_links == 1 {
                stall_order.push(l);
                last = l;
            }
        }
        Self {
            seed,
            lens,
            flows,
            stall_order,
        }
    }

    /// Mean packet length of the table, flits.
    pub fn mean_len(&self) -> f64 {
        self.lens.iter().map(|&l| f64::from(l)).sum::<f64>() / self.lens.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(Inputs::new(42, 64, 3), Inputs::new(42, 64, 3));
        assert_eq!(Inputs::new(0, 12, 0), Inputs::new(0, 12, 0));
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (Inputs::new(1, 64, 3), Inputs::new(2, 64, 3));
        assert_ne!(a.lens, b.lens);
        assert_ne!(a.flows, b.flows);
        assert_ne!(a.stall_order, b.stall_order);
    }

    #[test]
    fn tables_have_the_promised_shape() {
        let inp = Inputs::new(9, 64, 3);
        assert_eq!(inp.lens.len(), TABLE);
        assert_eq!(inp.flows.len(), TABLE);
        assert!(inp.lens.iter().all(|&l| (1..=MAX_LEN).contains(&l)));
        assert!(inp.lens.contains(&1) && inp.lens.contains(&MAX_LEN));
        // Every aligned block of 64 is a permutation: equal offered load.
        for block in inp.flows.chunks(64) {
            let mut seen = [false; 64];
            for &f in block {
                assert!(!std::mem::replace(&mut seen[f as usize], true));
            }
        }
        assert!(inp.stall_order.iter().all(|&l| l < 3));
        assert!(inp.stall_order.windows(2).all(|w| w[0] != w[1]));
        assert!((inp.mean_len() - 8.5).abs() < 0.2);
    }
}
