//! Topology sampling (paper Algorithm 1: `SAMPLETOPOLOGIES`).
//!
//! Given a protected subgraph `G` and a pool `D` of GraphRNN-generated
//! topologies, draw sentinel topologies whose graph statistics are
//! *uniformly* distributed over a band around `G`'s statistics. Sampling
//! from `D` naively would follow `D`'s density and leave `G` at a
//! distinguishable mode; importance weights `1/p(x)` flatten the density so
//! that, observing the statistics alone, every bucket member is equally
//! likely to be the protected subgraph.

use crate::density::StatsDensity;
use crate::ugraph::UGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// One pool topology with what Algorithm 1 reads of it: its statistics
/// and the fitted pool density at them.
#[derive(Debug, Clone)]
struct PoolMember {
    topology: UGraph,
    features: [f64; 4],
    density: f64,
}

/// A pool of candidate topologies with precomputed statistics and
/// densities. The density `p(x)` is fitted once (Algorithm 1, line 3) and
/// each member's importance weight `1/p(x)` is fixed from then on, so a
/// draw only reads the table.
#[derive(Debug, Clone)]
pub struct TopologySampler {
    pool: Vec<PoolMember>,
    /// Per-dimension pool standard deviations, the band's unit.
    dim_stds: [f64; 4],
}

impl TopologySampler {
    /// Builds a sampler over a pool of generated topologies.
    pub fn new(pool: Vec<UGraph>) -> TopologySampler {
        let features: Vec<[f64; 4]> = pool.iter().map(|g| g.stats().to_vec()).collect();
        let density = StatsDensity::fit(&features);
        let pool = pool
            .into_iter()
            .zip(features)
            .map(|(topology, features)| PoolMember {
                density: density.density(&features),
                topology,
                features,
            })
            .collect();
        TopologySampler {
            pool,
            dim_stds: density.dim_stds(),
        }
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// The pool topologies in sampling order. Rebuilding a sampler from
    /// this exact sequence ([`TopologySampler::new`] recomputes statistics
    /// and densities deterministically) reproduces its draws bit for bit —
    /// the property the trained-state artifact relies on.
    pub fn topologies(&self) -> impl ExactSizeIterator<Item = &UGraph> {
        self.pool.iter().map(|m| &m.topology)
    }

    /// The topology at pool position `index` (sampling order), if any.
    /// Pool positions are the stable identity the warm sentinel inventory
    /// keys on: [`TopologySampler::sample_similar_indices`] draws
    /// positions, and a position resolves to the same topology for the
    /// lifetime of the trained state (and across artifact round trips —
    /// the pool is persisted order-exact).
    pub fn topology(&self, index: usize) -> Option<&UGraph> {
        self.pool.get(index).map(|m| &m.topology)
    }

    /// Algorithm 1: samples `count` topologies statistically similar to
    /// `protected`, with band width `beta` (in units of per-dimension pool
    /// standard deviations).
    ///
    /// The protected statistics sit at a *random position* inside the band
    /// (lines 4–8 of the paper's pseudocode), so the band's center leaks
    /// nothing. If too few pool members fall inside the band, the nearest
    /// candidates by normalized distance pad the result — obfuscation must
    /// always produce `count` sentinels.
    pub fn sample_similar(
        &self,
        protected: &UGraph,
        beta: f64,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<UGraph> {
        self.sample_inner(protected, beta, count, rng, true)
            .into_iter()
            .map(|i| self.pool[i].topology.clone())
            .collect()
    }

    /// [`TopologySampler::sample_similar`], but returning pool *positions*
    /// instead of cloned topologies. Consumes the randomness stream
    /// identically to `sample_similar`, so the two are interchangeable
    /// draw-for-draw; resolve a position with [`TopologySampler::topology`].
    pub fn sample_similar_indices(
        &self,
        protected: &UGraph,
        beta: f64,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        self.sample_inner(protected, beta, count, rng, true)
    }

    /// Ablation: identical band, but *without* the importance correction —
    /// accepted samples follow the pool density instead of a uniform band.
    pub fn sample_naive(
        &self,
        protected: &UGraph,
        beta: f64,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<UGraph> {
        self.sample_inner(protected, beta, count, rng, false)
            .into_iter()
            .map(|i| self.pool[i].topology.clone())
            .collect()
    }

    fn sample_inner(
        &self,
        protected: &UGraph,
        beta: f64,
        count: usize,
        rng: &mut StdRng,
        importance: bool,
    ) -> Vec<usize> {
        if self.pool.is_empty() || count == 0 {
            return Vec::new();
        }
        let x_g = protected.stats().to_vec();
        // band widths; degenerate dimensions get a small floor
        let width = self.dim_stds.map(|s| (beta * s).max(1e-3));
        // random position of G inside the band (paper lines 4-8)
        let mut lo = [0.0f64; 4];
        let mut hi = [0.0f64; 4];
        for d in 0..4 {
            let alpha = rng.gen_range(0.0..=width[d]);
            lo[d] = x_g[d] - alpha;
            hi[d] = lo[d] + width[d];
        }
        let in_band = |f: &[f64; 4]| (0..4).all(|d| f[d] >= lo[d] && f[d] <= hi[d]);

        // importance normalization: the minimum density inside the band
        let p_min = self
            .pool
            .iter()
            .filter(|m| in_band(&m.features))
            .map(|m| m.density)
            .fold(f64::INFINITY, f64::min);

        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        let mut accepted = Vec::with_capacity(count);
        let mut passes = 0;
        while accepted.len() < count && passes < 64 {
            passes += 1;
            order.shuffle(rng);
            for &i in &order {
                if accepted.len() >= count {
                    break;
                }
                let member = &self.pool[i];
                if !in_band(&member.features) {
                    continue;
                }
                let accept_prob = if importance {
                    let p = member.density;
                    if p_min.is_finite() && p > 0.0 {
                        (p_min / p).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                } else {
                    1.0
                };
                if rng.gen::<f64>() < accept_prob {
                    accepted.push(i);
                }
            }
        }
        // pad with nearest candidates in normalized feature space
        if accepted.len() < count {
            let mut by_dist: Vec<(f64, usize)> = self
                .pool
                .iter()
                .enumerate()
                .map(|(i, PoolMember { features: f, .. })| {
                    let d: f64 = (0..4)
                        .map(|k| {
                            let s = width[k].max(1e-9);
                            let dv = (f[k] - x_g[k]) / s;
                            dv * dv
                        })
                        .sum();
                    (d, i)
                })
                .collect();
            by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            let mut cursor = 0;
            while accepted.len() < count {
                accepted.push(by_dist[cursor % by_dist.len()].1);
                cursor += 1;
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pool_of_chains() -> Vec<UGraph> {
        // chains of many sizes with some extra edges: a diverse pool
        let mut pool = Vec::new();
        for n in 4..28usize {
            let mut g = UGraph::new(n);
            for i in 1..n {
                g.add_edge(i - 1, i);
            }
            pool.push(g.clone());
            if n >= 6 {
                g.add_edge(0, n / 2);
                pool.push(g);
            }
        }
        pool
    }

    fn chain(n: usize) -> UGraph {
        let mut g = UGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    #[test]
    fn sampled_topologies_resemble_protected() {
        let sampler = TopologySampler::new(pool_of_chains());
        let protected = chain(12);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = sampler.sample_similar(&protected, 2.0, 10, &mut rng);
        assert_eq!(samples.len(), 10);
        let target = protected.stats().num_nodes;
        for s in &samples {
            let n = s.stats().num_nodes;
            assert!(
                (n - target).abs() <= 14.0,
                "sampled size {n} too far from protected {target}"
            );
        }
    }

    #[test]
    fn always_returns_requested_count() {
        let sampler = TopologySampler::new(pool_of_chains());
        // absurdly tight band: padding must kick in
        let protected = chain(100);
        let mut rng = StdRng::seed_from_u64(2);
        let samples = sampler.sample_similar(&protected, 0.01, 7, &mut rng);
        assert_eq!(samples.len(), 7);
    }

    #[test]
    fn empty_pool_returns_empty() {
        let sampler = TopologySampler::new(Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sampler
            .sample_similar(&chain(5), 1.0, 4, &mut rng)
            .is_empty());
    }

    #[test]
    fn importance_sampling_flattens_sizes() {
        // pool heavily skewed toward size 8; uniform-band sampling should
        // return a flatter size distribution than naive sampling
        let mut pool = Vec::new();
        for _ in 0..60 {
            pool.push(chain(8));
        }
        for n in [6usize, 7, 9, 10] {
            for _ in 0..6 {
                pool.push(chain(n));
            }
        }
        let sampler = TopologySampler::new(pool);
        let protected = chain(8);
        let mode_frac = |xs: &[UGraph]| {
            let m = xs.iter().filter(|g| g.len() == 8).count();
            m as f64 / xs.len() as f64
        };
        // The claim is statistical: a single draw can land a band that only
        // contains the mode size (both samplers then return identical
        // all-mode sets), so average over seeds. Seeding both samplers
        // identically makes them draw the same band per round.
        let rounds = 12;
        let (mut imp_sum, mut naive_sum) = (0.0, 0.0);
        for seed in 0..rounds {
            let mut rng = StdRng::seed_from_u64(seed);
            let imp = sampler.sample_similar(&protected, 3.0, 120, &mut rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let naive = sampler.sample_naive(&protected, 3.0, 120, &mut rng);
            imp_sum += mode_frac(&imp);
            naive_sum += mode_frac(&naive);
        }
        assert!(
            imp_sum < naive_sum,
            "importance sampling should be flatter on average: \
             importance {:.3} vs naive {:.3}",
            imp_sum / rounds as f64,
            naive_sum / rounds as f64
        );
    }
}
