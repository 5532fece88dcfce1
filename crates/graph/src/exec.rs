//! Reference interpreter.
//!
//! The interpreter gives the IR executable semantics so that the workspace
//! can *verify* — not assume — the paper's premise that optimizer rewrites
//! and Proteus' partition/reassemble cycle are functionally correct
//! (paper §4.3). It is deliberately naive (no blocking, no vectorization):
//! it is an oracle, not a runtime. Performance claims come from the cost
//! model in `proteus-opt`, never from this module.

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::shape::Shape;
use crate::{GraphError, Result};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dense row-major `f32` tensor.
///
/// A tensor built in memory owns its floats. A tensor decoded from the
/// wire ([`crate::wire::decode_params`]) keeps the little-endian words of
/// the buffer it arrived in, and turns them into floats only when
/// something reads its values ([`Tensor::data`]). A member that crosses
/// the optimizer without a rule reading its weights is therefore never
/// converted, and [`crate::wire::MemberEncoder`] writes its words back
/// with one copy. Every method behaves the same on both forms, and
/// cloning either one bumps a reference count.
#[derive(Clone, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    storage: Storage,
}

/// Where a tensor's elements live.
#[derive(Clone)]
enum Storage {
    /// Floats in memory, shared by clones until one of them writes.
    Owned(Arc<Vec<f32>>),
    /// Little-endian words of a received buffer.
    Words(Arc<Words>),
}

/// Received little-endian words and their floats, decoded on first read.
struct Words {
    bytes: Bytes,
    floats: OnceLock<Vec<f32>>,
}

impl Words {
    /// The words as floats, without filling the shared cache.
    fn to_floats(&self) -> Vec<f32> {
        match self.floats.get() {
            Some(floats) => floats.clone(),
            None => decode_words(&self.bytes),
        }
    }
}

/// Little-endian words as floats.
fn decode_words(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .collect()
}

impl Tensor {
    /// Creates a tensor from a shape and data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "tensor data does not match shape {shape}"
        );
        Tensor::owned(shape, data)
    }

    fn owned(shape: Shape, data: Vec<f32>) -> Tensor {
        Tensor {
            shape,
            storage: Storage::Owned(Arc::new(data)),
        }
    }

    /// A tensor over `words`, `4 * shape.numel()` little-endian bytes
    /// (the wire decoder checks the length before it calls this).
    pub(crate) fn from_words(shape: Shape, words: Bytes) -> Tensor {
        debug_assert_eq!(Some(words.len()), shape.numel().checked_mul(4));
        Tensor {
            shape,
            storage: Storage::Words(Arc::new(Words {
                bytes: words,
                floats: OnceLock::new(),
            })),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::owned(shape, vec![value; n])
    }

    /// Tensor with i.i.d. uniform values in `[-scale, scale]`.
    pub fn random(shape: impl Into<Shape>, scale: f32, rng: &mut StdRng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor::owned(shape, data)
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Immutable view of the elements (row-major). A tensor decoded from
    /// the wire converts its words on the first call.
    pub fn data(&self) -> &[f32] {
        match &self.storage {
            Storage::Owned(floats) => floats,
            Storage::Words(words) => words.floats.get_or_init(|| decode_words(&words.bytes)),
        }
    }

    /// Mutable view of the elements (row-major). The tensor holds its own
    /// floats from then on ([`Tensor::detach`]).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.detach();
        match &mut self.storage {
            Storage::Owned(floats) => Arc::make_mut(floats).as_mut_slice(),
            Storage::Words(_) => unreachable!("detach leaves owned floats"),
        }
    }

    /// The little-endian words this tensor reads its elements from, while
    /// it is backed by a received buffer (decoded from the wire and not
    /// written or detached since).
    pub fn words(&self) -> Option<&Bytes> {
        match &self.storage {
            Storage::Owned(_) => None,
            Storage::Words(words) => Some(&words.bytes),
        }
    }

    /// Makes the tensor hold its own floats, so that it no longer keeps
    /// the buffer it was decoded from alive. Copies only a word-backed
    /// tensor's words.
    pub fn detach(&mut self) {
        if let Storage::Words(words) = &self.storage {
            self.storage = Storage::Owned(Arc::new(words.to_floats()));
        }
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.shape.numel());
        self.shape = shape;
        self
    }

    /// Maximum absolute difference to another tensor (∞ if shapes differ).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        if self.shape != other.shape {
            return f32::INFINITY;
        }
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("data", &self.data())
            .finish()
    }
}

/// `f32` equality of shapes and elements, whichever form holds them.
impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

/// Parameter store: maps a node id to its parameter tensors (ONNX
/// "initializers"). See [`param_signature`] for per-operator layouts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TensorMap {
    params: HashMap<NodeId, Vec<Tensor>>,
}

impl TensorMap {
    /// An empty store.
    pub fn new() -> TensorMap {
        TensorMap::default()
    }

    /// Parameters for `id`, if any.
    pub fn get(&self, id: NodeId) -> Option<&[Tensor]> {
        self.params.get(&id).map(|v| v.as_slice())
    }

    /// Inserts (replacing) the parameters of `id`.
    pub fn insert(&mut self, id: NodeId, tensors: Vec<Tensor>) {
        self.params.insert(id, tensors);
    }

    /// Removes and returns the parameters of `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<Vec<Tensor>> {
        self.params.remove(&id)
    }

    /// Makes every tensor hold its own floats ([`Tensor::detach`]).
    pub fn detach(&mut self) {
        for tensor in self.params.values_mut().flatten() {
            tensor.detach();
        }
    }

    /// Number of nodes with parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no node has parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Populates random parameters (scale chosen for numeric stability) for
    /// every node of `graph` that requires them. Existing entries are
    /// replaced. Deterministic in `seed`.
    pub fn init_random(graph: &Graph, seed: u64) -> TensorMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut map = TensorMap::new();
        for (id, node) in graph.iter() {
            let sig = param_signature(&node.op);
            if sig.is_empty() {
                continue;
            }
            let tensors: Vec<Tensor> = sig
                .iter()
                .enumerate()
                .map(|(i, s)| match &node.op {
                    // BN variance (index 3) must be positive.
                    Op::BatchNorm(_) if i == 3 => {
                        let mut t = Tensor::random(s.clone(), 0.4, &mut rng);
                        for v in t.data_mut() {
                            *v = v.abs() + 0.5;
                        }
                        t
                    }
                    _ => {
                        let fan_in = s.numel().max(1) as f32;
                        Tensor::random(s.clone(), (1.0 / fan_in.sqrt()).min(0.5), &mut rng)
                    }
                })
                .collect();
            map.insert(id, tensors);
        }
        map
    }
}

/// Parameter tensor shapes required by an operator, in storage order.
///
/// | Op | Parameters |
/// |---|---|
/// | `Conv` | `W [out, in/groups, k, k]`, then `B [out]` if `has_bias` |
/// | `Gemm` | `W [out, in]`, then `B [out]` if `has_bias` |
/// | `BatchNorm` | `scale [c]`, `bias [c]`, `mean [c]`, `var [c]` |
/// | `LayerNorm` | `scale [d]`, `bias [d]` |
/// | `Gather` | `table [vocab, dim]` |
/// | `Constant` | the value tensor |
pub fn param_signature(op: &Op) -> Vec<Shape> {
    match op {
        Op::Conv(c) => {
            let mut v = vec![Shape::from([
                c.out_channels,
                c.in_channels / c.groups.max(1),
                c.kernel,
                c.kernel,
            ])];
            if c.has_bias {
                v.push(Shape::from([c.out_channels]));
            }
            v
        }
        Op::Gemm(g) => {
            let mut v = vec![Shape::from([g.out_features, g.in_features])];
            if g.has_bias {
                v.push(Shape::from([g.out_features]));
            }
            v
        }
        Op::BatchNorm(b) => vec![
            Shape::from([b.channels]),
            Shape::from([b.channels]),
            Shape::from([b.channels]),
            Shape::from([b.channels]),
        ],
        Op::LayerNorm(l) | Op::SkipLayerNorm(l) => {
            vec![Shape::from([l.dim]), Shape::from([l.dim])]
        }
        Op::Gather { vocab, dim } => vec![Shape::from([*vocab, *dim])],
        Op::Constant { shape } => vec![shape.clone()],
        _ => Vec::new(),
    }
}

/// Executes graphs against a parameter store.
#[derive(Debug)]
pub struct Executor<'a> {
    graph: &'a Graph,
    params: &'a TensorMap,
}

impl<'a> Executor<'a> {
    /// Binds an executor to a graph and its parameters.
    pub fn new(graph: &'a Graph, params: &'a TensorMap) -> Executor<'a> {
        Executor { graph, params }
    }

    /// Runs the graph on `inputs` (bound to `Op::Input` nodes in arena
    /// order) and returns the declared outputs.
    ///
    /// # Errors
    /// Returns [`GraphError::Exec`] on missing parameters or input-count
    /// mismatch, and propagates topology/shape errors.
    pub fn run(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let order = self.graph.topo_order()?;
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        let mut next_input = 0usize;
        // Bind inputs in arena order for determinism.
        let mut input_ids: Vec<NodeId> = self
            .graph
            .iter()
            .filter(|(_, n)| matches!(n.op, Op::Input { .. }))
            .map(|(id, _)| id)
            .collect();
        input_ids.sort();
        for id in order {
            let node = self.graph.node(id).expect("live");
            let result = match &node.op {
                Op::Input { shape } => {
                    let pos = input_ids.iter().position(|&i| i == id).expect("input id");
                    let t = inputs.get(pos).ok_or_else(|| GraphError::Exec {
                        node: node.name.clone(),
                        detail: format!("missing input #{pos}"),
                    })?;
                    if t.shape() != shape {
                        return Err(GraphError::Exec {
                            node: node.name.clone(),
                            detail: format!("input shape {} != declared {shape}", t.shape()),
                        });
                    }
                    next_input += 1;
                    let _ = next_input;
                    t.clone()
                }
                Op::Constant { .. } => self.param(id, node, 0)?.clone(),
                _ => {
                    let ins: Vec<&Tensor> = node.inputs.iter().map(|i| &values[i]).collect();
                    self.eval(id, node, &ins)?
                }
            };
            values.insert(id, result);
        }
        Ok(self
            .graph
            .outputs()
            .iter()
            .map(|o| values[o].clone())
            .collect())
    }

    fn param(&self, id: NodeId, node: &crate::graph::Node, idx: usize) -> Result<&Tensor> {
        self.params
            .get(id)
            .and_then(|p| p.get(idx))
            .ok_or_else(|| GraphError::Exec {
                node: node.name.clone(),
                detail: format!("missing parameter tensor #{idx}"),
            })
    }

    fn eval(&self, id: NodeId, node: &crate::graph::Node, ins: &[&Tensor]) -> Result<Tensor> {
        let name = &node.name;
        let fail = |detail: String| GraphError::Exec {
            node: name.clone(),
            detail,
        };
        Ok(match &node.op {
            Op::Input { .. } | Op::Constant { .. } => unreachable!("handled in run()"),
            Op::Conv(c) => {
                let w = self.param(id, node, 0)?;
                let b = if c.has_bias {
                    Some(self.param(id, node, 1)?)
                } else {
                    None
                };
                let mut out = conv2d(ins[0], w, b, c.stride, c.padding, c.groups).map_err(fail)?;
                if c.fused_add {
                    out = broadcast_binop(&out, ins[1], |x, y| x + y).map_err(fail)?;
                }
                if let Some(act) = c.fused_act {
                    for v in out.data_mut() {
                        *v = act.apply(*v);
                    }
                }
                out
            }
            Op::Gemm(g) => {
                let w = self.param(id, node, 0)?;
                let b = if g.has_bias {
                    Some(self.param(id, node, 1)?)
                } else {
                    None
                };
                let mut out = gemm(ins[0], w, b).map_err(fail)?;
                if let Some(act) = g.fused_act {
                    for v in out.data_mut() {
                        *v = act.apply(*v);
                    }
                }
                out
            }
            Op::MatMul => matmul(ins[0], ins[1]).map_err(fail)?,
            Op::MatMulT => {
                let b = transpose_last_two(ins[1]).map_err(fail)?;
                matmul(ins[0], &b).map_err(fail)?
            }
            Op::BatchNorm(_) => {
                let scale = self.param(id, node, 0)?.data().to_vec();
                let bias = self.param(id, node, 1)?.data().to_vec();
                let mean = self.param(id, node, 2)?.data().to_vec();
                let var = self.param(id, node, 3)?.data().to_vec();
                batch_norm(ins[0], &scale, &bias, &mean, &var).map_err(fail)?
            }
            Op::LayerNorm(_) => {
                let scale = self.param(id, node, 0)?.data().to_vec();
                let bias = self.param(id, node, 1)?.data().to_vec();
                layer_norm(ins[0], &scale, &bias).map_err(fail)?
            }
            Op::SkipLayerNorm(_) => {
                let scale = self.param(id, node, 0)?.data().to_vec();
                let bias = self.param(id, node, 1)?.data().to_vec();
                let sum = broadcast_binop(ins[0], ins[1], |a, b| a + b).map_err(&fail)?;
                layer_norm(&sum, &scale, &bias).map_err(fail)?
            }
            Op::Activation(a) => {
                let mut out = ins[0].clone();
                for v in out.data_mut() {
                    *v = a.apply(*v);
                }
                out
            }
            Op::Softmax { axis } => softmax(ins[0], *axis).map_err(fail)?,
            Op::Add => broadcast_binop(ins[0], ins[1], |a, b| a + b).map_err(fail)?,
            Op::Sub => broadcast_binop(ins[0], ins[1], |a, b| a - b).map_err(fail)?,
            Op::Mul => broadcast_binop(ins[0], ins[1], |a, b| a * b).map_err(fail)?,
            Op::Div => broadcast_binop(ins[0], ins[1], |a, b| a / b).map_err(fail)?,
            Op::AddAct(act) => {
                let mut out = broadcast_binop(ins[0], ins[1], |a, b| a + b).map_err(fail)?;
                for v in out.data_mut() {
                    *v = act.apply(*v);
                }
                out
            }
            Op::MaxPool(p) => {
                pool(ins[0], p.kernel, p.stride, p.padding, PoolMode::Max).map_err(fail)?
            }
            Op::AveragePool(p) => {
                pool(ins[0], p.kernel, p.stride, p.padding, PoolMode::Avg).map_err(fail)?
            }
            Op::GlobalAveragePool => global_average_pool(ins[0]).map_err(fail)?,
            Op::Concat { axis } => concat(ins, *axis).map_err(fail)?,
            Op::Flatten => {
                let d = ins[0].shape().dims();
                let rest: usize = d[1..].iter().product();
                ins[0].clone().reshaped([d[0], rest])
            }
            Op::Reshape { shape } => ins[0].clone().reshaped(shape.clone()),
            Op::Transpose { perm } => transpose(ins[0], perm).map_err(fail)?,
            Op::Identity => ins[0].clone(),
            // Inference-mode dropout is the identity function.
            Op::Dropout { .. } => ins[0].clone(),
            Op::ReduceMean { axes, keepdims } => {
                reduce_mean(ins[0], axes, *keepdims).map_err(fail)?
            }
            Op::Gather { dim, .. } => {
                let table = self.param(id, node, 0)?;
                gather(ins[0], table, *dim).map_err(fail)?
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Kernels (naive reference implementations)
// ---------------------------------------------------------------------------

type KResult = std::result::Result<Tensor, String>;

fn strides_of(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

/// Elementwise binary op with full numpy-style broadcasting.
pub fn broadcast_binop(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> KResult {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .ok_or_else(|| format!("cannot broadcast {} with {}", a.shape(), b.shape()))?;
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let pad = |dims: &[usize]| -> Vec<usize> {
        let mut v = vec![1; rank - dims.len()];
        v.extend_from_slice(dims);
        v
    };
    let (da, db) = (pad(a.shape().dims()), pad(b.shape().dims()));
    let (sa, sb) = (strides_of(&da), strides_of(&db));
    let numel = out_shape.numel();
    let mut out = vec![0.0f32; numel];
    let out_strides = strides_of(&out_dims);
    for (i, slot) in out.iter_mut().enumerate() {
        let mut ia = 0usize;
        let mut ib = 0usize;
        for d in 0..rank {
            let idx = (i / out_strides[d]) % out_dims[d];
            ia += if da[d] == 1 { 0 } else { idx * sa[d] };
            ib += if db[d] == 1 { 0 } else { idx * sb[d] };
        }
        *slot = f(a.data()[ia], b.data()[ib]);
    }
    Ok(Tensor::new(out_shape, out))
}

/// Grouped 2-D convolution (NCHW), direct algorithm.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
    groups: usize,
) -> KResult {
    let (n, cin, h, win) = x.shape().nchw().ok_or("conv input must be NCHW")?;
    let wd = w.shape().dims();
    if wd.len() != 4 {
        return Err("conv weight must be rank 4".into());
    }
    let (cout, cpg, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if kh != kw {
        return Err("only square kernels supported".into());
    }
    if cin % groups != 0 || cout % groups != 0 || cpg != cin / groups {
        return Err(format!(
            "bad conv grouping: cin={cin} cout={cout} groups={groups}"
        ));
    }
    let oh = crate::shape::conv_out_dim(h, kh, stride, padding).ok_or("kernel too large")?;
    let ow = crate::shape::conv_out_dim(win, kw, stride, padding).ok_or("kernel too large")?;
    let mut out = vec![0.0f32; n * cout * oh * ow];
    let cout_pg = cout / groups;
    let xs = x.data();
    let ws = w.data();
    for b in 0..n {
        for oc in 0..cout {
            let g = oc / cout_pg;
            let bias_v = bias.map(|t| t.data()[oc]).unwrap_or(0.0);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    for ic in 0..cpg {
                        let gic = g * cpg + ic;
                        for ky in 0..kh {
                            let iy = oy * stride + ky;
                            if iy < padding || iy - padding >= h {
                                continue;
                            }
                            let iy = iy - padding;
                            for kx in 0..kw {
                                let ix = ox * stride + kx;
                                if ix < padding || ix - padding >= win {
                                    continue;
                                }
                                let ix = ix - padding;
                                let xv = xs[((b * cin + gic) * h + iy) * win + ix];
                                let wv = ws[((oc * cpg + ic) * kh + ky) * kw + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[((b * cout + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Ok(Tensor::new([n, cout, oh, ow], out))
}

/// Fully-connected layer `y = x W^T + b` over the last dimension.
pub fn gemm(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> KResult {
    let xd = x.shape().dims();
    let wd = w.shape().dims();
    if wd.len() != 2 {
        return Err("gemm weight must be rank 2".into());
    }
    let (out_f, in_f) = (wd[0], wd[1]);
    let last = *xd.last().ok_or("gemm input is scalar")?;
    if last != in_f {
        return Err(format!("gemm features mismatch: {last} vs {in_f}"));
    }
    let rows: usize = xd[..xd.len() - 1].iter().product();
    let mut out = vec![0.0f32; rows * out_f];
    for r in 0..rows {
        for o in 0..out_f {
            let mut acc = bias.map(|t| t.data()[o]).unwrap_or(0.0);
            for i in 0..in_f {
                acc += x.data()[r * in_f + i] * w.data()[o * in_f + i];
            }
            out[r * out_f + o] = acc;
        }
    }
    let mut shape = xd.to_vec();
    *shape.last_mut().expect("nonempty") = out_f;
    Ok(Tensor::new(shape, out))
}

/// Batched matrix multiplication with broadcasting on leading dims.
pub fn matmul(a: &Tensor, b: &Tensor) -> KResult {
    let ad = a.shape().dims();
    let bd = b.shape().dims();
    if ad.len() < 2 || bd.len() < 2 {
        return Err("matmul operands must have rank >= 2".into());
    }
    let (m, k1) = (ad[ad.len() - 2], ad[ad.len() - 1]);
    let (k2, n) = (bd[bd.len() - 2], bd[bd.len() - 1]);
    if k1 != k2 {
        return Err(format!("matmul inner dims {k1} vs {k2}"));
    }
    let batch_a = Shape::new(ad[..ad.len() - 2].to_vec());
    let batch_b = Shape::new(bd[..bd.len() - 2].to_vec());
    let batch = batch_a
        .broadcast(&batch_b)
        .ok_or("matmul batch dims not broadcastable")?;
    let batch_dims = batch.dims().to_vec();
    let batch_n: usize = batch_dims.iter().product::<usize>().max(1);
    let rank = batch_dims.len();
    let pad = |dims: &[usize]| -> Vec<usize> {
        let mut v = vec![1; rank - dims.len()];
        v.extend_from_slice(dims);
        v
    };
    let (pa, pb) = (pad(batch_a.dims()), pad(batch_b.dims()));
    let (sa, sb) = (strides_of(&pa), strides_of(&pb));
    let sbatch = strides_of(&batch_dims);
    let mut out = vec![0.0f32; batch_n * m * n];
    for bi in 0..batch_n {
        let mut off_a = 0usize;
        let mut off_b = 0usize;
        for d in 0..rank {
            let idx = (bi / sbatch[d]) % batch_dims[d];
            off_a += if pa[d] == 1 { 0 } else { idx * sa[d] };
            off_b += if pb[d] == 1 { 0 } else { idx * sb[d] };
        }
        let base_a = off_a * m * k1;
        let base_b = off_b * k1 * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..k1 {
                    acc += a.data()[base_a + i * k1 + k] * b.data()[base_b + k * n + j];
                }
                out[bi * m * n + i * n + j] = acc;
            }
        }
    }
    let mut shape = batch_dims;
    shape.push(m);
    shape.push(n);
    Ok(Tensor::new(shape, out))
}

/// Inference-mode batch normalization, per channel over NCHW.
pub fn batch_norm(x: &Tensor, scale: &[f32], bias: &[f32], mean: &[f32], var: &[f32]) -> KResult {
    let (n, c, h, w) = x.shape().nchw().ok_or("batchnorm input must be NCHW")?;
    if [scale.len(), bias.len(), mean.len(), var.len()] != [c; 4] {
        return Err("batchnorm parameter length mismatch".into());
    }
    const EPS: f32 = 1e-5;
    let mut out = x.data().to_vec();
    for b in 0..n {
        for ch in 0..c {
            let inv = scale[ch] / (var[ch] + EPS).sqrt();
            let base = (b * c + ch) * h * w;
            for i in 0..h * w {
                out[base + i] = (out[base + i] - mean[ch]) * inv + bias[ch];
            }
        }
    }
    Ok(Tensor::new(x.shape().clone(), out))
}

/// Layer normalization over the last dimension.
pub fn layer_norm(x: &Tensor, scale: &[f32], bias: &[f32]) -> KResult {
    let dims = x.shape().dims();
    let d = *dims.last().ok_or("layernorm on scalar")?;
    if scale.len() != d || bias.len() != d {
        return Err("layernorm parameter length mismatch".into());
    }
    const EPS: f32 = 1e-5;
    let rows = x.shape().numel() / d;
    let mut out = x.data().to_vec();
    for r in 0..rows {
        let row = &mut out[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + EPS).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * scale[i] + bias[i];
        }
    }
    Ok(Tensor::new(x.shape().clone(), out))
}

/// Softmax along `axis` (negative axes count from the end).
pub fn softmax(x: &Tensor, axis: isize) -> KResult {
    let dims = x.shape().dims().to_vec();
    let rank = dims.len() as isize;
    let ax = if axis < 0 { axis + rank } else { axis };
    if ax < 0 || ax >= rank {
        return Err(format!("softmax axis {axis} out of range"));
    }
    let ax = ax as usize;
    let strides = strides_of(&dims);
    let axis_len = dims[ax];
    let axis_stride = strides[ax];
    let numel = x.shape().numel();
    let mut out = x.data().to_vec();
    let outer = numel / axis_len;
    for o in 0..outer {
        // Decompose o into indices excluding `ax`, then find base offset.
        let mut rem = o;
        let mut base = 0usize;
        for d in 0..dims.len() {
            if d == ax {
                continue;
            }
            let extent = dims[d];
            // number of positions in remaining non-axis dims after d
            let later: usize = dims
                .iter()
                .enumerate()
                .filter(|&(dd, _)| dd != ax && dd > d)
                .map(|(_, &e)| e)
                .product();
            let idx = rem / later.max(1) % extent;
            rem %= later.max(1);
            base += idx * strides[d];
        }
        let mut maxv = f32::NEG_INFINITY;
        for i in 0..axis_len {
            maxv = maxv.max(out[base + i * axis_stride]);
        }
        let mut sum = 0.0;
        for i in 0..axis_len {
            let e = (out[base + i * axis_stride] - maxv).exp();
            out[base + i * axis_stride] = e;
            sum += e;
        }
        for i in 0..axis_len {
            out[base + i * axis_stride] /= sum;
        }
    }
    Ok(Tensor::new(x.shape().clone(), out))
}

#[derive(Clone, Copy)]
enum PoolMode {
    Max,
    Avg,
}

fn pool(x: &Tensor, kernel: usize, stride: usize, padding: usize, mode: PoolMode) -> KResult {
    let (n, c, h, w) = x.shape().nchw().ok_or("pool input must be NCHW")?;
    let oh = crate::shape::conv_out_dim(h, kernel, stride, padding).ok_or("kernel too large")?;
    let ow = crate::shape::conv_out_dim(w, kernel, stride, padding).ok_or("kernel too large")?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = match mode {
                        PoolMode::Max => f32::NEG_INFINITY,
                        PoolMode::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..kernel {
                        let iy = oy * stride + ky;
                        if iy < padding || iy - padding >= h {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = ox * stride + kx;
                            if ix < padding || ix - padding >= w {
                                continue;
                            }
                            let v =
                                x.data()[((b * c + ch) * h + (iy - padding)) * w + (ix - padding)];
                            match mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] = match mode {
                        PoolMode::Max => acc,
                        // count_include_pad = false (torch default)
                        PoolMode::Avg => acc / count.max(1) as f32,
                    };
                }
            }
        }
    }
    Ok(Tensor::new([n, c, oh, ow], out))
}

fn global_average_pool(x: &Tensor) -> KResult {
    let (n, c, h, w) = x.shape().nchw().ok_or("GAP input must be NCHW")?;
    let mut out = vec![0.0f32; n * c];
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            out[b * c + ch] = x.data()[base..base + h * w].iter().sum::<f32>() / (h * w) as f32;
        }
    }
    Ok(Tensor::new([n, c, 1, 1], out))
}

fn concat(ins: &[&Tensor], axis: usize) -> KResult {
    let first = ins.first().ok_or("concat of nothing")?;
    let dims = first.shape().dims();
    if axis >= dims.len() {
        return Err("concat axis out of range".into());
    }
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let total_axis: usize = ins.iter().map(|t| t.shape().dims()[axis]).sum();
    let mut out = Vec::with_capacity(outer * total_axis * inner);
    for o in 0..outer {
        for t in ins {
            let ta = t.shape().dims()[axis];
            let base = o * ta * inner;
            out.extend_from_slice(&t.data()[base..base + ta * inner]);
        }
    }
    let mut shape = dims.to_vec();
    shape[axis] = total_axis;
    Ok(Tensor::new(shape, out))
}

/// Transposes the last two dimensions (helper for [`Op::MatMulT`]).
fn transpose_last_two(x: &Tensor) -> KResult {
    let rank = x.shape().rank();
    if rank < 2 {
        return Err("matmul_t operand must have rank >= 2".into());
    }
    let mut perm: Vec<usize> = (0..rank).collect();
    perm.swap(rank - 2, rank - 1);
    transpose(x, &perm)
}

fn transpose(x: &Tensor, perm: &[usize]) -> KResult {
    let dims = x.shape().dims();
    if perm.len() != dims.len() {
        return Err("transpose perm rank mismatch".into());
    }
    let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
    let in_strides = strides_of(dims);
    let out_strides = strides_of(&out_dims);
    let mut out = vec![0.0f32; x.shape().numel()];
    for (i, slot) in out.iter_mut().enumerate() {
        let mut src = 0usize;
        for d in 0..out_dims.len() {
            let idx = (i / out_strides[d]) % out_dims[d];
            src += idx * in_strides[perm[d]];
        }
        *slot = x.data()[src];
    }
    Ok(Tensor::new(out_dims, out))
}

fn reduce_mean(x: &Tensor, axes: &[usize], keepdims: bool) -> KResult {
    let dims = x.shape().dims().to_vec();
    for &a in axes {
        if a >= dims.len() {
            return Err("reduce axis out of range".into());
        }
    }
    let out_dims: Vec<usize> = dims
        .iter()
        .enumerate()
        .filter_map(|(i, &d)| {
            if axes.contains(&i) {
                if keepdims {
                    Some(1)
                } else {
                    None
                }
            } else {
                Some(d)
            }
        })
        .collect();
    let reduced: usize = axes.iter().map(|&a| dims[a]).product();
    let strides = strides_of(&dims);
    // full-dim view of output (kept dims, reduced dims = 1)
    let full_out: Vec<usize> = dims
        .iter()
        .enumerate()
        .map(|(i, &d)| if axes.contains(&i) { 1 } else { d })
        .collect();
    let full_strides = strides_of(&full_out);
    let out_numel: usize = full_out.iter().product();
    let mut out = vec![0.0f32; out_numel];
    for (i, &v) in x.data().iter().enumerate() {
        let mut oi = 0usize;
        for d in 0..dims.len() {
            let idx = (i / strides[d]) % dims[d];
            if !axes.contains(&d) {
                oi += idx * full_strides[d];
            }
        }
        out[oi] += v;
    }
    for v in &mut out {
        *v /= reduced as f32;
    }
    Ok(Tensor::new(out_dims, out))
}

fn gather(ids: &Tensor, table: &Tensor, dim: usize) -> KResult {
    let td = table.shape().dims();
    if td.len() != 2 || td[1] != dim {
        return Err("gather table must be [vocab, dim]".into());
    }
    let vocab = td[0];
    let mut out = Vec::with_capacity(ids.shape().numel() * dim);
    for &idf in ids.data() {
        let idx = idf.round().max(0.0) as usize;
        let idx = idx.min(vocab - 1);
        out.extend_from_slice(&table.data()[idx * dim..(idx + 1) * dim]);
    }
    let mut shape = ids.shape().dims().to_vec();
    shape.push(dim);
    Ok(Tensor::new(shape, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, LayerNormAttrs, PoolAttrs};

    fn t(shape: impl Into<Shape>, data: Vec<f32>) -> Tensor {
        Tensor::new(shape, data)
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 conv with weight=1 is identity for single channel.
        let x = t([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, None, 1, 0, 1).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 2x2 kernel of ones, no padding: single output = sum.
        let x = t([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t([1, 1, 2, 2], vec![1.0; 4]);
        let y = conv2d(&x, &w, None, 1, 0, 1).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[10.0]);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let x = t([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = t(
            [1, 1, 3, 3],
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        );
        // center-tap kernel with pad 1 reproduces the input
        let y = conv2d(&x, &w, None, 1, 1, 1).unwrap();
        assert_eq!(y.data(), x.data());
        // stride 2 subsamples
        let y2 = conv2d(&x, &w, None, 2, 1, 1).unwrap();
        assert_eq!(y2.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y2.data(), &[1.0, 3.0, 7.0, 9.0]);
    }

    #[test]
    fn depthwise_conv_groups() {
        // 2 channels, depthwise 1x1 with weights [2, 3]: scales per channel.
        let x = t([1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t([2, 1, 1, 1], vec![2.0, 3.0]);
        let y = conv2d(&x, &w, None, 1, 0, 2).unwrap();
        assert_eq!(y.data(), &[2.0, 4.0, 9.0, 12.0]);
    }

    #[test]
    fn gemm_known() {
        let x = t([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = t([2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]); // rows select features
        let b = t([2], vec![10.0, 20.0]);
        let y = gemm(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.data(), &[11.0, 22.0, 14.0, 25.0]);
    }

    #[test]
    fn matmul_2d_and_batched() {
        let a = t([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = t([2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let y = matmul(&a, &b).unwrap();
        assert_eq!(y.data(), &[19.0, 22.0, 43.0, 50.0]);

        // batched lhs with shared rhs
        let ab = t([2, 1, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let y2 = matmul(&ab, &b).unwrap();
        assert_eq!(y2.shape().dims(), &[2, 1, 2]);
        assert_eq!(y2.data(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn broadcasting_add_bias_row() {
        let x = t([2, 3], vec![0.0; 6]);
        let b = t([3], vec![1.0, 2.0, 3.0]);
        let y = broadcast_binop(&x, &b, |a, b| a + b).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t([2, 4], vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]);
        let y = softmax(&x, -1).unwrap();
        for r in 0..2 {
            let s: f32 = y.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // monotone within a row
        assert!(y.data()[0] < y.data()[1]);
    }

    #[test]
    fn softmax_on_middle_axis() {
        let x = t([2, 3, 2], (0..12).map(|v| v as f32).collect());
        let y = softmax(&x, 1).unwrap();
        // sum over axis 1 is 1 for every (b, last) pair
        for b in 0..2 {
            for l in 0..2 {
                let s: f32 = (0..3).map(|m| y.data()[b * 6 + m * 2 + l]).sum();
                assert!((s - 1.0).abs() < 1e-5, "sum was {s}");
            }
        }
    }

    #[test]
    fn pooling_values() {
        let x = t([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mx = pool(&x, 2, 2, 0, PoolMode::Max).unwrap();
        assert_eq!(mx.data(), &[4.0]);
        let avg = pool(&x, 2, 2, 0, PoolMode::Avg).unwrap();
        assert_eq!(avg.data(), &[2.5]);
        let gap = global_average_pool(&x).unwrap();
        assert_eq!(gap.data(), &[2.5]);
    }

    #[test]
    fn batch_norm_normalizes() {
        let x = t([1, 1, 1, 2], vec![2.0, 4.0]);
        let y = batch_norm(&x, &[1.0], &[0.0], &[3.0], &[1.0]).unwrap();
        assert!((y.data()[0] + 1.0).abs() < 1e-3);
        assert!((y.data()[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = t([1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = layer_norm(&x, &[1.0; 4], &[0.0; 4]).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn transpose_2d() {
        let x = t([2, 3], (0..6).map(|v| v as f32).collect());
        let y = transpose(&x, &[1, 0]).unwrap();
        assert_eq!(y.shape().dims(), &[3, 2]);
        assert_eq!(y.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn concat_axis1() {
        let a = t([1, 2], vec![1.0, 2.0]);
        let b = t([1, 3], vec![3.0, 4.0, 5.0]);
        let y = concat(&[&a, &b], 1).unwrap();
        assert_eq!(y.shape().dims(), &[1, 5]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn reduce_mean_spatial() {
        let x = t(
            [1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        );
        let y = reduce_mean(&x, &[2, 3], true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn gather_rows() {
        let ids = t([1, 3], vec![0.0, 2.0, 1.0]);
        let table = t([3, 2], vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let y = gather(&ids, &table, 2).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 2]);
        assert_eq!(y.data(), &[0.0, 1.0, 20.0, 21.0, 10.0, 11.0]);
    }

    #[test]
    fn end_to_end_small_cnn() {
        let mut g = Graph::new("cnn");
        let x = g.input([1, 3, 8, 8]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 4 }), [c1]);
        let r = g.add(Op::Activation(Activation::Relu), [bn]);
        let p = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [r]);
        let f = g.add(Op::Flatten, [p]);
        let fc = g.add(Op::Gemm(GemmAttrs::new(4 * 4 * 4, 10)), [f]);
        g.set_outputs([fc]);
        g.validate().unwrap();

        let params = TensorMap::init_random(&g, 42);
        let exec = Executor::new(&g, &params);
        let mut rng = StdRng::seed_from_u64(7);
        let input = Tensor::random([1, 3, 8, 8], 1.0, &mut rng);
        let out = exec.run(&[input]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].shape().dims(), &[1, 10]);
        assert!(out[0].data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn end_to_end_transformer_fragment() {
        let mut g = Graph::new("attn");
        let ids = g.input([1, 6]);
        let emb = g.add(Op::Gather { vocab: 50, dim: 8 }, [ids]);
        let ln = g.add(Op::LayerNorm(LayerNormAttrs { dim: 8 }), [emb]);
        let q = g.add(Op::Gemm(GemmAttrs::new(8, 8)), [ln]);
        let k = g.add(Op::Gemm(GemmAttrs::new(8, 8)), [ln]);
        let kt = g.add(
            Op::Transpose {
                perm: vec![0, 2, 1],
            },
            [k],
        );
        let att = g.add(Op::MatMul, [q, kt]);
        let sm = g.add(Op::Softmax { axis: -1 }, [att]);
        g.set_outputs([sm]);
        g.validate().unwrap();
        let params = TensorMap::init_random(&g, 1);
        let exec = Executor::new(&g, &params);
        let ids_t = Tensor::new([1, 6], vec![1.0, 4.0, 9.0, 0.0, 3.0, 2.0]);
        let out = exec.run(&[ids_t]).unwrap();
        assert_eq!(out[0].shape().dims(), &[1, 6, 6]);
        for r in 0..6 {
            let s: f32 = out[0].data()[r * 6..(r + 1) * 6].iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn executor_reports_missing_params() {
        let mut g = Graph::new("missing");
        let x = g.input([1, 3, 4, 4]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        g.set_outputs([c]);
        let empty = TensorMap::new();
        let exec = Executor::new(&g, &empty);
        let err = exec.run(&[Tensor::zeros([1, 3, 4, 4])]).unwrap_err();
        assert!(matches!(err, GraphError::Exec { .. }));
    }

    #[test]
    fn dropout_and_identity_are_noops() {
        let mut g = Graph::new("noop");
        let x = g.input([2, 2]);
        let d = g.add(Op::Dropout { p: 50 }, [x]);
        let i = g.add(Op::Identity, [d]);
        g.set_outputs([i]);
        let params = TensorMap::new();
        let exec = Executor::new(&g, &params);
        let input = Tensor::new([2, 2], vec![1.0, -2.0, 3.0, -4.0]);
        let out = exec.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(out[0], input);
    }
}
