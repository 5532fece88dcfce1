//! Tensor shapes and static shape inference.
//!
//! Shape inference walks the graph in topological order and computes the
//! output shape of every node, enforcing the same consistency rules the
//! paper's SMT operator-population step encodes as constraints (channel
//! agreement, broadcastability, pooling divisibility, …).

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A tensor shape (row-major dimensions). Rank-0 denotes a scalar.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimensions.
    pub fn new(dims: Vec<usize>) -> Shape {
        Shape(dims)
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// [`Shape::numel`], or `None` when the product overflows `usize` —
    /// the form for dimensions read from untrusted bytes.
    pub(crate) fn checked_numel(&self) -> Option<usize> {
        self.0.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }

    /// NCHW accessors; return `None` when the rank is not 4.
    pub fn nchw(&self) -> Option<(usize, usize, usize, usize)> {
        match self.0.as_slice() {
            &[n, c, h, w] => Some((n, c, h, w)),
            _ => None,
        }
    }

    /// Numpy-style broadcast of two shapes.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let (a, b) = (&self.0, &other.0);
        let rank = a.len().max(b.len());
        let mut out = vec![0; rank];
        for i in 0..rank {
            let da = if i < rank - a.len() {
                1
            } else {
                a[i - (rank - a.len())]
            };
            let db = if i < rank - b.len() {
                1
            } else {
                b[i - (rank - b.len())]
            };
            out[i] = if da == db {
                da
            } else if da == 1 {
                db
            } else if db == 1 {
                da
            } else {
                return None;
            };
        }
        Some(Shape(out))
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Shape {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Output spatial size of a conv/pool window.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

fn err(node: &str, detail: impl Into<String>) -> GraphError {
    GraphError::ShapeMismatch {
        node: node.to_string(),
        detail: detail.into(),
    }
}

/// Infers the output shape of a single operator given its input shapes.
///
/// # Errors
/// Returns [`GraphError::ShapeMismatch`] when the inputs are inconsistent
/// with the operator's attributes.
pub fn infer_op(op: &Op, name: &str, ins: &[&Shape]) -> Result<Shape> {
    let one = |idx: usize| -> &Shape { ins[idx] };
    match op {
        Op::Input { shape } | Op::Constant { shape } => Ok(shape.clone()),
        Op::Conv(c) => {
            let (n, ch, h, w) = one(0)
                .nchw()
                .ok_or_else(|| err(name, format!("conv input must be NCHW, got {}", one(0))))?;
            if ch != c.in_channels {
                return Err(err(
                    name,
                    format!("conv expects {} input channels, got {ch}", c.in_channels),
                ));
            }
            if c.groups == 0 || c.in_channels % c.groups != 0 || c.out_channels % c.groups != 0 {
                return Err(err(name, format!("bad group count {}", c.groups)));
            }
            let oh = conv_out_dim(h, c.kernel, c.stride, c.padding)
                .ok_or_else(|| err(name, format!("kernel {} too large for h={h}", c.kernel)))?;
            let ow = conv_out_dim(w, c.kernel, c.stride, c.padding)
                .ok_or_else(|| err(name, format!("kernel {} too large for w={w}", c.kernel)))?;
            let out = Shape::from([n, c.out_channels, oh, ow]);
            if c.fused_add {
                let other = one(1);
                if other != &out {
                    return Err(err(
                        name,
                        format!("fused add operand {other} does not match conv output {out}"),
                    ));
                }
            }
            Ok(out)
        }
        Op::Gemm(g) => {
            let dims = one(0).dims();
            let last = *dims
                .last()
                .ok_or_else(|| err(name, "gemm input is scalar"))?;
            if last != g.in_features {
                return Err(err(
                    name,
                    format!("gemm expects {} input features, got {last}", g.in_features),
                ));
            }
            let mut out = dims.to_vec();
            *out.last_mut().expect("nonempty") = g.out_features;
            Ok(Shape(out))
        }
        Op::MatMul | Op::MatMulT => {
            let (a, b) = (one(0).dims(), one(1).dims());
            if a.len() < 2 || b.len() < 2 {
                return Err(err(name, "matmul operands must have rank >= 2"));
            }
            let (m, k1) = (a[a.len() - 2], a[a.len() - 1]);
            let (k2, n) = match op {
                Op::MatMul => (b[b.len() - 2], b[b.len() - 1]),
                _ => (b[b.len() - 1], b[b.len() - 2]),
            };
            if k1 != k2 {
                return Err(err(name, format!("matmul inner dims {k1} vs {k2}")));
            }
            let batch_a = Shape(a[..a.len() - 2].to_vec());
            let batch_b = Shape(b[..b.len() - 2].to_vec());
            let batch = batch_a
                .broadcast(&batch_b)
                .ok_or_else(|| err(name, "matmul batch dims not broadcastable"))?;
            let mut out = batch.0;
            out.push(m);
            out.push(n);
            Ok(Shape(out))
        }
        Op::BatchNorm(b) => {
            let s = one(0);
            let (_, ch, _, _) = s
                .nchw()
                .ok_or_else(|| err(name, format!("batchnorm input must be NCHW, got {s}")))?;
            if ch != b.channels {
                return Err(err(
                    name,
                    format!("batchnorm over {} channels, input has {ch}", b.channels),
                ));
            }
            Ok(s.clone())
        }
        Op::LayerNorm(l) => {
            let s = one(0);
            let last = *s
                .dims()
                .last()
                .ok_or_else(|| err(name, "layernorm on scalar"))?;
            if last != l.dim {
                return Err(err(
                    name,
                    format!("layernorm dim {} vs input {last}", l.dim),
                ));
            }
            Ok(s.clone())
        }
        Op::SkipLayerNorm(l) => {
            let s = one(0)
                .broadcast(one(1))
                .ok_or_else(|| err(name, "skip-layernorm operands not broadcastable"))?;
            let last = *s
                .dims()
                .last()
                .ok_or_else(|| err(name, "layernorm on scalar"))?;
            if last != l.dim {
                return Err(err(
                    name,
                    format!("layernorm dim {} vs input {last}", l.dim),
                ));
            }
            Ok(s)
        }
        Op::Activation(_) | Op::Identity | Op::Dropout { .. } => Ok(one(0).clone()),
        Op::Softmax { axis } => {
            let s = one(0);
            let rank = s.rank() as isize;
            let ax = if *axis < 0 { axis + rank } else { *axis };
            if ax < 0 || ax >= rank {
                return Err(err(
                    name,
                    format!("softmax axis {axis} out of range for {s}"),
                ));
            }
            Ok(s.clone())
        }
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::AddAct(_) => one(0)
            .broadcast(one(1))
            .ok_or_else(|| err(name, format!("cannot broadcast {} with {}", one(0), one(1)))),
        Op::MaxPool(p) | Op::AveragePool(p) => {
            let (n, c, h, w) = one(0)
                .nchw()
                .ok_or_else(|| err(name, format!("pool input must be NCHW, got {}", one(0))))?;
            let oh = conv_out_dim(h, p.kernel, p.stride, p.padding).ok_or_else(|| {
                err(
                    name,
                    format!("pool kernel {} too large for h={h}", p.kernel),
                )
            })?;
            let ow = conv_out_dim(w, p.kernel, p.stride, p.padding).ok_or_else(|| {
                err(
                    name,
                    format!("pool kernel {} too large for w={w}", p.kernel),
                )
            })?;
            Ok(Shape::from([n, c, oh, ow]))
        }
        Op::GlobalAveragePool => {
            let (n, c, _, _) = one(0)
                .nchw()
                .ok_or_else(|| err(name, format!("GAP input must be NCHW, got {}", one(0))))?;
            Ok(Shape::from([n, c, 1, 1]))
        }
        Op::Concat { axis } => {
            let first = one(0);
            if *axis >= first.rank() {
                return Err(err(name, format!("concat axis {axis} out of range")));
            }
            let mut total = 0;
            for s in ins {
                if s.rank() != first.rank() {
                    return Err(err(name, "concat rank mismatch"));
                }
                for (d, (&a, &b)) in s.dims().iter().zip(first.dims()).enumerate() {
                    if d != *axis && a != b {
                        return Err(err(name, format!("concat dim {d} mismatch: {a} vs {b}")));
                    }
                }
                total += s.dims()[*axis];
            }
            let mut out = first.dims().to_vec();
            out[*axis] = total;
            Ok(Shape(out))
        }
        Op::Flatten => {
            let d = one(0).dims();
            if d.is_empty() {
                return Err(err(name, "flatten on scalar"));
            }
            Ok(Shape::from([d[0], d[1..].iter().product::<usize>()]))
        }
        Op::Reshape { shape } => {
            if shape.numel() != one(0).numel() {
                return Err(err(
                    name,
                    format!("reshape {} -> {} changes element count", one(0), shape),
                ));
            }
            Ok(shape.clone())
        }
        Op::Transpose { perm } => {
            let d = one(0).dims();
            if perm.len() != d.len() {
                return Err(err(name, "transpose perm rank mismatch"));
            }
            let mut seen = vec![false; d.len()];
            for &p in perm {
                if p >= d.len() || seen[p] {
                    return Err(err(name, "transpose perm is not a permutation"));
                }
                seen[p] = true;
            }
            Ok(Shape(perm.iter().map(|&p| d[p]).collect()))
        }
        Op::ReduceMean { axes, keepdims } => {
            let d = one(0).dims();
            for &a in axes {
                if a >= d.len() {
                    return Err(err(name, format!("reduce axis {a} out of range")));
                }
            }
            let mut out = Vec::new();
            for (i, &dim) in d.iter().enumerate() {
                if axes.contains(&i) {
                    if *keepdims {
                        out.push(1);
                    }
                } else {
                    out.push(dim);
                }
            }
            Ok(Shape(out))
        }
        Op::Gather { dim, .. } => {
            let mut out = one(0).dims().to_vec();
            out.push(*dim);
            Ok(Shape(out))
        }
    }
}

/// Infers shapes for every live node of `graph`.
///
/// # Errors
/// Propagates topology errors from [`Graph::topo_order`] and per-node
/// [`GraphError::ShapeMismatch`] failures.
pub fn infer_shapes(graph: &Graph) -> Result<HashMap<NodeId, Shape>> {
    let order = graph.topo_order()?;
    let mut shapes: HashMap<NodeId, Shape> = HashMap::with_capacity(order.len());
    for id in order {
        let node = graph.node(id).expect("topo order yields live nodes");
        let ins: Vec<&Shape> = node.inputs.iter().map(|i| &shapes[i]).collect();
        let shape = infer_op(&node.op, &node.name, &ins)?;
        shapes.insert(id, shape);
    }
    Ok(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, PoolAttrs};

    #[test]
    fn broadcast_rules() {
        let a = Shape::from([4, 1, 3]);
        let b = Shape::from([2, 3]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[4, 2, 3]);
        assert_eq!(
            Shape::from([5])
                .broadcast(&Shape::from([5]))
                .unwrap()
                .dims(),
            &[5]
        );
        assert!(Shape::from([4]).broadcast(&Shape::from([3])).is_none());
        // scalar broadcasts with anything
        assert_eq!(
            Shape::new(vec![])
                .broadcast(&Shape::from([2, 2]))
                .unwrap()
                .dims(),
            &[2, 2]
        );
    }

    #[test]
    fn conv_output_shape() {
        let mut g = Graph::new("t");
        let x = g.input([1, 3, 224, 224]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 64, 7).stride(2).padding(3)), [x]);
        g.set_outputs([c]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&c].dims(), &[1, 64, 112, 112]);
    }

    #[test]
    fn conv_channel_mismatch_rejected() {
        let mut g = Graph::new("t");
        let x = g.input([1, 3, 8, 8]);
        let c = g.add(Op::Conv(ConvAttrs::new(16, 8, 3)), [x]);
        g.set_outputs([c]);
        assert!(matches!(
            infer_shapes(&g),
            Err(GraphError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn grouped_conv_shapes() {
        let mut g = Graph::new("t");
        let x = g.input([2, 32, 16, 16]);
        let c = g.add(Op::Conv(ConvAttrs::depthwise(32, 3).padding(1)), [x]);
        g.set_outputs([c]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&c].dims(), &[2, 32, 16, 16]);
    }

    #[test]
    fn pooling_and_gap() {
        let mut g = Graph::new("t");
        let x = g.input([1, 8, 32, 32]);
        let mp = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [x]);
        let gap = g.add(Op::GlobalAveragePool, [mp]);
        g.set_outputs([gap]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&mp].dims(), &[1, 8, 16, 16]);
        assert_eq!(shapes[&gap].dims(), &[1, 8, 1, 1]);
    }

    #[test]
    fn gemm_and_flatten() {
        let mut g = Graph::new("t");
        let x = g.input([4, 16, 2, 2]);
        let f = g.add(Op::Flatten, [x]);
        let fc = g.add(Op::Gemm(GemmAttrs::new(64, 10)), [f]);
        g.set_outputs([fc]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&f].dims(), &[4, 64]);
        assert_eq!(shapes[&fc].dims(), &[4, 10]);
    }

    #[test]
    fn matmul_batched_broadcast() {
        let mut g = Graph::new("t");
        let a = g.input([2, 8, 16, 32]);
        let b = g.input([2, 8, 32, 16]);
        let m = g.add(Op::MatMul, [a, b]);
        g.set_outputs([m]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&m].dims(), &[2, 8, 16, 16]);
    }

    #[test]
    fn concat_shapes() {
        let mut g = Graph::new("t");
        let a = g.input([1, 16, 8, 8]);
        let b = g.input([1, 32, 8, 8]);
        let c = g.add(Op::Concat { axis: 1 }, [a, b]);
        g.set_outputs([c]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&c].dims(), &[1, 48, 8, 8]);
    }

    #[test]
    fn transformer_block_shapes() {
        // Gather -> LayerNorm -> MatMul(QK^T via transpose) -> Softmax
        let mut g = Graph::new("t");
        let ids = g.input([1, 128]);
        let emb = g.add(
            Op::Gather {
                vocab: 1000,
                dim: 64,
            },
            [ids],
        );
        let ln = g.add(Op::LayerNorm(crate::op::LayerNormAttrs { dim: 64 }), [emb]);
        let q = g.add(Op::Gemm(GemmAttrs::new(64, 64)), [ln]);
        let k = g.add(Op::Gemm(GemmAttrs::new(64, 64)), [ln]);
        let kt = g.add(
            Op::Transpose {
                perm: vec![0, 2, 1],
            },
            [k],
        );
        let scores = g.add(Op::MatMul, [q, kt]);
        let probs = g.add(Op::Softmax { axis: -1 }, [scores]);
        g.set_outputs([probs]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&emb].dims(), &[1, 128, 64]);
        assert_eq!(shapes[&scores].dims(), &[1, 128, 128]);
        assert_eq!(shapes[&probs].dims(), &[1, 128, 128]);
    }

    #[test]
    fn reshape_must_preserve_numel() {
        let mut g = Graph::new("t");
        let x = g.input([2, 6]);
        let r = g.add(
            Op::Reshape {
                shape: Shape::from([3, 4]),
            },
            [x],
        );
        g.set_outputs([r]);
        assert!(infer_shapes(&g).is_ok());

        let mut g2 = Graph::new("t2");
        let x2 = g2.input([2, 6]);
        let r2 = g2.add(
            Op::Reshape {
                shape: Shape::from([5, 2]),
            },
            [x2],
        );
        g2.set_outputs([r2]);
        assert!(infer_shapes(&g2).is_err());
    }

    #[test]
    fn reduce_mean_shapes() {
        let mut g = Graph::new("t");
        let x = g.input([2, 16, 4, 4]);
        let r = g.add(
            Op::ReduceMean {
                axes: vec![2, 3],
                keepdims: true,
            },
            [x],
        );
        let r2 = g.add(
            Op::ReduceMean {
                axes: vec![2, 3],
                keepdims: false,
            },
            [x],
        );
        g.set_outputs([r, r2]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&r].dims(), &[2, 16, 1, 1]);
        assert_eq!(shapes[&r2].dims(), &[2, 16]);
    }

    #[test]
    fn batchnorm_channel_check() {
        let mut g = Graph::new("t");
        let x = g.input([1, 8, 4, 4]);
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [x]);
        g.set_outputs([bn]);
        assert!(infer_shapes(&g).is_ok());

        let mut g2 = Graph::new("t");
        let x2 = g2.input([1, 8, 4, 4]);
        let bn2 = g2.add(Op::BatchNorm(BatchNormAttrs { channels: 16 }), [x2]);
        g2.set_outputs([bn2]);
        assert!(infer_shapes(&g2).is_err());
    }

    #[test]
    fn fused_conv_add_shape_check() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4, 8, 8]);
        let skip = g.input([1, 8, 8, 8]);
        let mut attrs = ConvAttrs::new(4, 8, 3).padding(1);
        attrs.fused_add = true;
        attrs.fused_act = Some(Activation::Relu);
        let c = g.add(Op::Conv(attrs), [x, skip]);
        g.set_outputs([c]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[&c].dims(), &[1, 8, 8, 8]);
    }
}
