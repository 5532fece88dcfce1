//! Per-family structural-leakage metrics.
//!
//! How much does a bucket's *structure* give away about which member is
//! real? Following the residual-leakage channels identified in the
//! provenance-sanitization literature (aggregate statistics survive node
//! renaming and local rewrites), we report, per architecture family:
//!
//! - **degree divergence** — Kolmogorov–Smirnov distance between the
//!   undirected degree distributions of real pieces and their sentinels;
//! - **opcode divergence** — total-variation distance between the coarse
//!   opcode-class histograms of reals and sentinels;
//! - **classifier advantage** — a trained classifier's mean sentinel
//!   confidence on sentinels minus its mean on reals (0 = blind,
//!   1 = perfect separation);
//! - **specificity at α=1** — the fraction of sentinels the classifier
//!   eliminates at the threshold that keeps every real subgraph.

use crate::attack::{attack_buckets, BucketClassifier, LabelledBucket};
use crate::features::structural_summary;
use proteus_graph::stats::ks_distance;
use proteus_graph::Graph;

/// Structural-leakage metrics for one group of buckets (typically one
/// architecture family).
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Buckets measured.
    pub n_buckets: usize,
    /// KS distance between real and sentinel degree distributions.
    pub degree_divergence: f64,
    /// Total-variation distance between real and sentinel opcode-class
    /// histograms.
    pub opcode_divergence: f64,
    /// Mean classifier confidence gap (sentinels minus reals), clamped at
    /// zero — negative gaps mean the classifier is anti-correlated, which
    /// leaks nothing the adversary can use under α=1.
    pub classifier_advantage: f64,
    /// Specificity of the α=1 bucket attack.
    pub specificity_alpha1: f64,
}

fn degree_samples(g: &Graph) -> Vec<f64> {
    g.undirected_adjacency()
        .iter()
        .map(|nbrs| nbrs.len() as f64)
        .collect()
}

/// Mean opcode-class histogram over graphs (the last
/// [`crate::features::SUMMARY_FEATURES`] − 8 entries of the summary).
fn mean_class_histogram(graphs: &[&Graph]) -> Vec<f64> {
    let mut acc: Vec<f64> = Vec::new();
    for g in graphs {
        let s = structural_summary(g);
        let hist = &s[8..];
        if acc.is_empty() {
            acc = vec![0.0; hist.len()];
        }
        for (a, &h) in acc.iter_mut().zip(hist) {
            *a += h as f64;
        }
    }
    let n = graphs.len().max(1) as f64;
    acc.iter_mut().for_each(|a| *a /= n);
    acc
}

/// Measures structural leakage of a set of buckets under a trained
/// classifier.
///
/// # Panics
/// Panics if `buckets` is empty (no leakage is measurable).
pub fn measure_leakage<C: BucketClassifier + ?Sized>(
    clf: &C,
    buckets: &[LabelledBucket],
) -> LeakageReport {
    assert!(!buckets.is_empty(), "leakage needs at least one bucket");
    let mut real_degrees = Vec::new();
    let mut fake_degrees = Vec::new();
    let mut real_conf = Vec::new();
    let mut fake_conf = Vec::new();
    let reals: Vec<&Graph> = buckets.iter().map(|b| &b.real).collect();
    let fakes: Vec<&Graph> = buckets.iter().flat_map(|b| b.sentinels.iter()).collect();
    for b in buckets {
        real_degrees.extend(degree_samples(&b.real));
        real_conf.push(clf.confidence(&b.real));
        for s in &b.sentinels {
            fake_degrees.extend(degree_samples(s));
            fake_conf.push(clf.confidence(s));
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let real_hist = mean_class_histogram(&reals);
    let fake_hist = mean_class_histogram(&fakes);
    let opcode_divergence = real_hist
        .iter()
        .zip(&fake_hist)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / 2.0;
    let report = attack_buckets(clf, buckets);
    LeakageReport {
        n_buckets: buckets.len(),
        degree_divergence: ks_distance(&real_degrees, &fake_degrees),
        opcode_divergence,
        classifier_advantage: (mean(&fake_conf) - mean(&real_conf)).max(0.0),
        specificity_alpha1: report.specificity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, Op};

    struct ConstClassifier(f64);
    impl BucketClassifier for ConstClassifier {
        fn confidence(&self, _: &Graph) -> f64 {
            self.0
        }
    }

    fn chain(len: usize, act: Activation) -> Graph {
        let mut g = Graph::new("c");
        let mut prev = g.input([1, 4]);
        for _ in 0..len {
            prev = g.add(Op::Activation(act), [prev]);
        }
        g.set_outputs([prev]);
        g
    }

    fn buckets() -> Vec<LabelledBucket> {
        (0..4)
            .map(|i| LabelledBucket {
                real: chain(3 + i, Activation::Relu),
                sentinels: (0..3).map(|j| chain(3 + j, Activation::Tanh)).collect(),
            })
            .collect()
    }

    #[test]
    fn blind_classifier_has_no_advantage() {
        let r = measure_leakage(&ConstClassifier(0.5), &buckets());
        assert_eq!(r.classifier_advantage, 0.0);
        assert_eq!(r.specificity_alpha1, 0.0);
        assert_eq!(r.n_buckets, 4);
    }

    #[test]
    fn identical_structures_have_zero_divergence() {
        let bs: Vec<LabelledBucket> = (0..3)
            .map(|_| LabelledBucket {
                real: chain(4, Activation::Relu),
                sentinels: vec![chain(4, Activation::Relu)],
            })
            .collect();
        let r = measure_leakage(&ConstClassifier(0.5), &bs);
        assert!(r.degree_divergence < 1e-9);
        assert!(r.opcode_divergence < 1e-9);
    }

    #[test]
    fn size_mismatch_shows_in_degree_divergence() {
        let bs: Vec<LabelledBucket> = (0..3)
            .map(|_| LabelledBucket {
                real: chain(2, Activation::Relu),
                sentinels: vec![chain(20, Activation::Relu)],
            })
            .collect();
        let r = measure_leakage(&ConstClassifier(0.5), &bs);
        assert!(
            r.degree_divergence > 0.1,
            "degree divergence {}",
            r.degree_divergence
        );
    }

    #[test]
    fn metrics_are_bounded() {
        let r = measure_leakage(&ConstClassifier(0.9), &buckets());
        assert!((0.0..=1.0).contains(&r.degree_divergence));
        assert!((0.0..=1.0).contains(&r.opcode_divergence));
        assert!((0.0..=1.0).contains(&r.classifier_advantage));
        assert!((0.0..=1.0).contains(&r.specificity_alpha1));
    }
}
