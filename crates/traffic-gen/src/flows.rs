//! Flow specifications and the paper's workload presets.

use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::dist::LenDist;

/// The traffic description of one flow.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// When packets arrive.
    pub arrivals: ArrivalProcess,
    /// How long they are.
    pub lengths: LenDist,
}

impl FlowSpec {
    /// Offered load in flits per cycle (rate × mean length).
    pub fn offered_load(&self) -> f64 {
        self.arrivals.mean_rate() * self.lengths.mean()
    }
}

/// The largest packet any of `specs` can produce — the paper's `Max`.
pub fn max_packet_len(specs: &[FlowSpec]) -> u32 {
    specs.iter().map(|s| s.lengths.max_len()).max().unwrap_or(0)
}

/// The Figure 4 workload: 8 flows, flow 3 at twice the packet rate of
/// the others, flow 2 with lengths uniform on `[1, 128]`, everyone else
/// uniform on `[1, 64]`.
///
/// `base_rate` is the per-flow packet rate of the ordinary flows in
/// packets per cycle; the default used by the experiments (0.006) gives
/// every flow more than its 1/8 fair share of the link, keeping all
/// flows continuously backlogged for the 4-million-cycle run as the
/// paper requires ("we ensure that all the flows are active").
pub fn fig4_flows(base_rate: f64) -> Vec<FlowSpec> {
    let u64len = LenDist::Uniform { lo: 1, hi: 64 };
    let u128len = LenDist::Uniform { lo: 1, hi: 128 };
    (0..8)
        .map(|i| FlowSpec {
            arrivals: ArrivalProcess::Bernoulli {
                rate: if i == 3 { 2.0 * base_rate } else { base_rate },
            },
            lengths: if i == 2 { u128len } else { u64len },
        })
        .collect()
}

/// The Figure 5 workload: 4 flows with the Figure 4 rate/length mix
/// (flow 3 at 2× rate, flow 2 with `[1, 128]` lengths), scaled so the
/// total offered load is `intensity` × the link capacity.
///
/// The experiment injects with these specs for the 10 000-cycle transient
/// and then halts injection.
pub fn fig5_flows(intensity: f64) -> Vec<FlowSpec> {
    let u64len = LenDist::Uniform { lo: 1, hi: 64 };
    let u128len = LenDist::Uniform { lo: 1, hi: 128 };
    // Offered flits/cycle = r*32.5 + r*32.5 + r*64.5 + 2r*32.5 = 194.5 r.
    let r = intensity / 194.5;
    vec![
        FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate: r },
            lengths: u64len,
        },
        FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate: r },
            lengths: u64len,
        },
        FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate: r },
            lengths: u128len,
        },
        FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate: 2.0 * r },
            lengths: u64len,
        },
    ]
}

/// The Figure 6 workload: `n` statistically identical flows whose packet
/// lengths are truncated-exponential with λ = 0.2 on `[1, 64]`, each
/// offered twice its fair share so all stay continuously backlogged.
pub fn fig6_flows(n: usize) -> Vec<FlowSpec> {
    let lengths = LenDist::TruncExp {
        lambda: 0.2,
        lo: 1,
        hi: 64,
    };
    let per_flow_flits = 2.0 / n as f64; // 2x the fair share
    let rate = (per_flow_flits / lengths.mean()).min(1.0);
    (0..n)
        .map(|_| FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate },
            lengths,
        })
        .collect()
}

/// Normalized Zipf weights: flow `i` gets weight `(i+1)^-s`, scaled so
/// the weights sum to 1. With `s = 1.2` and 32 flows the heaviest flow
/// carries ~41% of the total — the skew regime where a static per-flow
/// partition strands capacity on the shard that draws the heavy flows
/// (DESIGN.md §8 records why the runtime keeps one anyway).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n >= 1, "need at least one flow");
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// A Zipf(s)-skewed workload: `n` flows sharing `total_load` flits per
/// cycle in [`zipf_weights`] proportions, all drawing packet lengths
/// from `lengths`.
pub fn zipf_flows(n: usize, s: f64, total_load: f64, lengths: LenDist) -> Vec<FlowSpec> {
    zipf_weights(n, s)
        .into_iter()
        .map(|w| FlowSpec {
            arrivals: ArrivalProcess::Bernoulli {
                rate: (w * total_load / lengths.mean()).min(1.0),
            },
            lengths,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_matches_paper_description() {
        let specs = fig4_flows(0.006);
        assert_eq!(specs.len(), 8);
        // Flow 3 at twice the rate.
        assert!(
            (specs[3].arrivals.mean_rate() - 2.0 * specs[0].arrivals.mean_rate()).abs() < 1e-12
        );
        // Flow 2 lengths up to 128, others 64.
        assert_eq!(specs[2].lengths.max_len(), 128);
        for (i, s) in specs.iter().enumerate() {
            if i != 2 {
                assert_eq!(s.lengths.max_len(), 64);
            }
            // Every flow is overloaded past its 1/8 fair share.
            assert!(
                s.offered_load() > 1.0 / 8.0,
                "flow {i} load {} not backlogging",
                s.offered_load()
            );
        }
        assert_eq!(max_packet_len(&specs), 128);
    }

    #[test]
    fn fig5_total_load_matches_intensity() {
        for intensity in [1.0, 1.1, 1.3] {
            let specs = fig5_flows(intensity);
            assert_eq!(specs.len(), 4);
            let total: f64 = specs.iter().map(|s| s.offered_load()).sum();
            assert!(
                (total - intensity).abs() < 1e-9,
                "intensity {intensity}: load {total}"
            );
        }
    }

    #[test]
    fn zipf_weights_are_normalized_and_skewed() {
        let w = zipf_weights(32, 1.2);
        assert_eq!(w.len(), 32);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "normalized, got {total}");
        assert!(w.windows(2).all(|p| p[0] > p[1]), "strictly decreasing");
        // Zipf(1.2) at n=32: the head flow carries ~32% of the load
        // (1 / Σ_{k=1..32} k^-1.2 ≈ 0.323).
        assert!(
            (0.31..0.34).contains(&w[0]),
            "head share {} off the Zipf(1.2) value",
            w[0]
        );
        // s = 0 degenerates to uniform.
        let flat = zipf_weights(4, 0.0);
        assert!(flat.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn zipf_flows_split_total_load_by_weight() {
        let lengths = LenDist::Constant(16);
        let specs = zipf_flows(8, 1.2, 0.9, lengths);
        let total: f64 = specs.iter().map(|s| s.offered_load()).sum();
        assert!((total - 0.9).abs() < 1e-9, "total load {total}");
        let w = zipf_weights(8, 1.2);
        for (spec, wi) in specs.iter().zip(&w) {
            assert!((spec.offered_load() - wi * 0.9).abs() < 1e-9);
        }
    }

    #[test]
    fn fig6_flows_identical_and_overloaded() {
        for n in [2usize, 5, 10] {
            let specs = fig6_flows(n);
            assert_eq!(specs.len(), n);
            assert!(specs.windows(2).all(|w| w[0] == w[1]));
            let total: f64 = specs.iter().map(|s| s.offered_load()).sum();
            assert!((total - 2.0).abs() < 0.05, "n={n}: total load {total}");
        }
    }
}
