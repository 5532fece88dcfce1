//! Quickstart: protect a small CNN, have an "optimizer party" optimize every
//! obfuscated bucket, de-obfuscate, and verify the optimized model computes
//! exactly the same function.
//!
//! Run with: `cargo run --release --example quickstart`

use proteus::{PartitionSpec, Proteus, ProteusConfig, SealedBucket};
use proteus_graph::{Activation, ConvAttrs, Executor, Graph, Op, Tensor, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The model developer's secret architecture (with trained weights).
    let mut secret = Graph::new("secret-model");
    let x = secret.input([1, 3, 32, 32]);
    // stride-2 stem (Winograd-ineligible), then a residual 3x3 block
    let c1 = secret.add(Op::Conv(ConvAttrs::new(3, 64, 3).stride(2).padding(1)), [x]);
    let r1 = secret.add(Op::Activation(Activation::Relu), [c1]);
    let c2 = secret.add(Op::Conv(ConvAttrs::new(64, 64, 3).padding(1)), [r1]);
    let skip = secret.add(Op::Add, [c2, r1]);
    let r2 = secret.add(Op::Activation(Activation::Relu), [skip]);
    let gap = secret.add(Op::GlobalAveragePool, [r2]);
    secret.set_outputs([gap]);
    let weights = TensorMap::init_random(&secret, 42);
    println!(
        "protected model: {} nodes, {} edges",
        secret.len(),
        secret.edge_count()
    );

    // 2. Train Proteus' sentinel generator on PUBLIC models only.
    let config = ProteusConfig {
        k: 5,
        partitions: PartitionSpec::Count(2),
        graphrnn: GraphRnnConfig {
            epochs: 4,
            ..Default::default()
        },
        topology_pool: 60,
        ..Default::default()
    };
    let corpus = vec![build(ModelKind::ResNet), build(ModelKind::MobileNet)];
    let proteus = Proteus::train(config, &corpus)?;

    // 3. Obfuscate: the optimizer party sees n buckets of k+1 candidates,
    //    one sealed frame per bucket.
    let request_id = 1;
    let mut session = proteus.obfuscate_session(&secret, &weights, request_id)?;
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    let secrets = session.finish()?;
    let wire_bytes: usize = frames
        .iter()
        .map(|f| f.to_mux_bytes(request_id).len())
        .sum();
    println!(
        "obfuscated: {} buckets x {} members = {} subgraphs ({wire_bytes} bytes on the wire)",
        frames.len(),
        frames[0].bucket.members.len(),
        frames.iter().map(|f| f.bucket.members.len()).sum::<usize>(),
    );

    // 4. The optimizer party optimizes every member (it cannot tell which
    //    is real) and returns each frame; the owner keeps the real ones.
    let optimizer = Optimizer::new(Profile::OrtLike);
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    for frame in &frames {
        reassembly.accept(frame.optimize(&optimizer, None))?;
    }

    // 5. De-obfuscate and verify: identical function, faster graph.
    let (model, params) = reassembly.finish()?;
    let mut rng = StdRng::seed_from_u64(7);
    let probe = Tensor::random([1, 3, 32, 32], 1.0, &mut rng);
    let before = Executor::new(&secret, &weights).run(std::slice::from_ref(&probe))?;
    let after = Executor::new(&model, &params).run(&[probe])?;
    let diff = before[0].max_abs_diff(&after[0]);
    println!(
        "optimized model: {} nodes (was {})",
        model.len(),
        secret.len()
    );
    println!("max |output difference| = {diff:.2e}");
    assert!(diff < 1e-3, "optimization must preserve semantics");

    let t_before = optimizer.estimate_us(&secret)?;
    let t_after = optimizer.estimate_us(&model)?;
    println!(
        "estimated latency: {t_before:.1} us -> {t_after:.1} us ({:.2}x)",
        t_before / t_after
    );
    Ok(())
}
