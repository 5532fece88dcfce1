//! Cross-checks of analytic quantities against numbers printed in the
//! paper itself. These don't run the full pipeline — they pin our formulas
//! to the paper's published tables, so the harness math is known-correct
//! before any measurement is interpreted.
//!
//! The Figure 4a slowdown band is the one measured claim promoted into
//! tier 1: the cost model is deterministic, so the geomean is a fixed
//! number and the band check is as stable as the analytic rows above.

use proteus_adversary::analytic_log10_candidates;
use proteus_bench::latency_triple;
use proteus_models::{build, zoo, ModelKind};
use proteus_opt::Profile;

/// Figure 6 rows: (n, k, specificity, paper's candidate count).
/// The paper computes candidates = [1 + (1-β)k]^n; our helper must agree
/// with every published row to within rounding of the printed mantissa.
#[test]
fn figure6_candidate_counts_match_paper_rows() {
    let rows = [
        // model, n, k, specificity, paper candidates (log10)
        ("densenet-proteus", 19usize, 20usize, 0.338, 8.33e21_f64),
        ("googlenet-proteus", 11, 20, 0.346, 4.30e12),
        ("inception-proteus", 19, 20, 0.229, 1.23e23),
        ("mnasnet-proteus", 11, 20, 0.117, 9.59e13),
        ("resnet-proteus", 10, 20, 0.451, 6.12e10),
        ("mobilenet-proteus", 11, 20, 0.135, 7.72e13),
        ("bert-proteus", 16, 20, 0.910, 1.37e7),
        ("roberta-proteus", 16, 20, 0.862, 1.54e9),
        ("xlm-proteus", 25, 20, 0.906, 2.99e11),
        ("densenet-random", 19, 20, 0.000, 1.32e25),
        ("mobilenet-random", 11, 20, 0.607, 2.66e10),
    ];
    for (name, n, k, spec, paper) in rows {
        let ours = analytic_log10_candidates(n, k, spec);
        let paper_log10 = paper.log10();
        assert!(
            (ours - paper_log10).abs() < 0.15,
            "{name}: ours 10^{ours:.2} vs paper 10^{paper_log10:.2}"
        );
    }
}

/// §6.1: n = 24, k = 50, sensitivity 84.9% -> [50(1-0.849)]^24 ≈ 1.18e21.
/// (The case study counts only surviving sentinels, not the +1 term, so we
/// check the paper's own arithmetic directly.)
#[test]
fn nas_case_study_arithmetic() {
    let survivors_per_bucket: f64 = 50.0 * (1.0 - 0.849);
    let log10 = 24.0 * survivors_per_bucket.log10();
    assert!((log10 - 1.18e21_f64.log10()).abs() < 0.1, "log10 = {log10}");
}

/// §6.2: n = 83, k = 20, sensitivity 44% -> [20(1-0.44)]^83 ≈ 1.22e87.
#[test]
fn seresnet_case_study_arithmetic() {
    let survivors_per_bucket: f64 = 20.0 * (1.0 - 0.44);
    let log10 = 83.0 * survivors_per_bucket.log10();
    assert!((log10 - 1.22e87_f64.log10()).abs() < 0.2, "log10 = {log10}");
}

/// §4.1: hiding among O((k+1)^n) architectures; the paper's abstract quotes
/// up to 10^32 possible models. With Figure 6's largest configuration
/// (n = 25, k = 20) the full space is (k+1)^25 ≈ 10^33 — same order.
#[test]
fn abstract_search_space_order_of_magnitude() {
    let full = analytic_log10_candidates(25, 20, 0.0);
    assert!((31.0..=35.0).contains(&full), "log10 = {full}");
}

/// Figure 4a: Proteus within 1.07–1.14x of the best attainable latency
/// (geomean over the figure's model set, OrtLike profile). Partition
/// search, blind per-piece optimization, and the cost model are all
/// seeded, so this measures the same fixed number on every run; the band
/// is quoted at two decimals (the seed measured 1.1434x).
#[test]
fn figure4a_geomean_slowdown_stays_in_the_paper_band() {
    let fig4a = [
        ModelKind::MobileNet,
        ModelKind::ResNet,
        ModelKind::DenseNet,
        ModelKind::GoogleNet,
        ModelKind::ResNeXt,
        ModelKind::Bert,
        ModelKind::Roberta,
        ModelKind::DistilBert,
    ];
    let log_sum: f64 = fig4a
        .iter()
        .map(|&kind| {
            let (_, best, proteus) = latency_triple(&build(kind), Profile::OrtLike, 8, 42);
            let slowdown = proteus / best;
            assert!(
                slowdown >= 1.0,
                "{kind}: blind partition optimization beat the unpartitioned optimum"
            );
            slowdown.ln()
        })
        .sum();
    let geomean = (log_sum / fig4a.len() as f64).exp();
    let rounded = (geomean * 100.0).round() / 100.0;
    assert!(
        (1.07..=1.14).contains(&rounded),
        "fig4a geomean slowdown {geomean:.4}x left the 1.07-1.14x band"
    );
}

/// Figure 4, extended: the partition-blindness slowdown band re-measured
/// over the *full* registry (modern families included) under every
/// optimizer profile. Like the fig4a check, everything here is seeded and
/// the cost model is deterministic, so each (profile, zoo) geomean is a
/// fixed number; the bands are quoted at two decimals around the seed
/// measurements (ort 1.1061x, hidet 1.0710x, tvm 1.0965x).
#[test]
fn extended_zoo_slowdown_bands_hold_under_every_profile() {
    // registry-count pin: the extended band covers the whole registry
    assert_eq!(zoo::all().len(), zoo::COUNT);
    let bands = [
        (Profile::OrtLike, 1.07..=1.15),
        (Profile::HidetLike, 1.03..=1.11),
        (Profile::TvmLike, 1.06..=1.14),
    ];
    for (profile, band) in bands {
        let log_sum: f64 = zoo::all()
            .iter()
            .map(|entry| {
                let (_, best, proteus) = latency_triple(&(entry.build)(), profile, 8, 42);
                let slowdown = proteus / best;
                // >= up to float-association noise: on graphs the
                // partitioner splits losslessly (e.g. graphsage under the
                // ort profile) the two paths land on the same estimate
                assert!(
                    slowdown >= 0.999,
                    "{}/{profile:?}: blind partition optimization beat the optimum: {slowdown:.4}",
                    entry.name
                );
                slowdown.ln()
            })
            .sum();
        let geomean = (log_sum / zoo::COUNT as f64).exp();
        let rounded = (geomean * 100.0).round() / 100.0;
        eprintln!("extended-zoo slowdown {profile:?}: {geomean:.4}x");
        assert!(
            band.contains(&rounded),
            "{profile:?}: extended-zoo geomean slowdown {geomean:.4}x left {band:?}"
        );
    }
}

/// Figure 5, extended: sentinel statistics stay close to the real pieces'
/// on the modern families too. One representative model per family is
/// partitioned, its Proteus sentinels generated, and the KS distance
/// between real and sentinel average-degree samples must stay below the
/// pinned ceiling — the property that makes statistics-based
/// identification fail (§5.3.1).
#[test]
fn figure5_sentinel_statistics_band_extends_to_modern_families() {
    use proteus::{PartitionSpec, Proteus, ProteusConfig, SentinelMode};
    use proteus_graph::stats::ks_distance;
    use proteus_graph::{GraphStats, TensorMap};
    use proteus_graphgen::GraphRnnConfig;
    use proteus_partition::{partition_balanced, PartitionPlan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let representatives = [
        ModelKind::ResNet,
        ModelKind::Bert,
        ModelKind::GptDecoder,
        ModelKind::GraphSage,
        ModelKind::UNet,
    ];
    let corpus: Vec<_> = representatives.iter().map(|&k| build(k)).collect();
    let config = ProteusConfig {
        k: 2,
        partitions: PartitionSpec::Count(4),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 24,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let mut rng = StdRng::seed_from_u64(33);
    let mut real_degrees = Vec::new();
    let mut fake_degrees = Vec::new();
    for g in &corpus {
        let assignment = partition_balanced(g, 4, 8, 11);
        let plan =
            PartitionPlan::extract(g, &TensorMap::new(), &assignment).expect("extract succeeds");
        for piece in &plan.pieces {
            real_degrees.push(GraphStats::of(&piece.graph).avg_degree);
            for s in proteus
                .factory()
                .generate(&piece.graph, 2, SentinelMode::Generative, &mut rng)
            {
                fake_degrees.push(GraphStats::of(&s).avg_degree);
            }
        }
    }
    let ks = ks_distance(&real_degrees, &fake_degrees);
    eprintln!("fig5 extended: avg-degree KS distance {ks:.4}");
    assert!(
        ks <= 0.45,
        "sentinel avg-degree distribution drifted from the reals: KS {ks:.4} > 0.45"
    );
}
