//! Tape-based reverse-mode automatic differentiation over matrices.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes;
//! [`Tape::backward`] walks it in reverse accumulating gradients. Trainable
//! parameters enter the tape through [`Tape::param`], which binds them to a
//! string key in a [`ParamStore`]; backward returns a [`Gradients`] map over
//! those keys that an optimizer applies to the store.

use crate::matrix::Matrix;
use std::collections::HashMap;

/// Named trainable parameters.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: HashMap<String, Matrix>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Registers a parameter (replacing any previous value).
    pub fn insert(&mut self, key: impl Into<String>, value: Matrix) {
        self.params.insert(key.into(), value);
    }

    /// Looks up a parameter.
    pub fn get(&self, key: &str) -> Option<&Matrix> {
        self.params.get(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Matrix> {
        self.params.get_mut(key)
    }

    /// Iterates over `(key, matrix)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Matrix)> {
        self.params.iter()
    }

    /// Number of parameters (matrices, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }
}

/// Gradients keyed like the [`ParamStore`] that produced them.
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    grads: HashMap<String, Matrix>,
}

impl Gradients {
    /// Gradient for a parameter key, if it participated in the loss.
    pub fn get(&self, key: &str) -> Option<&Matrix> {
        self.grads.get(key)
    }

    /// Iterates over `(key, grad)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Matrix)> {
        self.grads.iter()
    }

    /// Number of gradient entries.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum TapeOp {
    Leaf { key: Option<String> },
    MatMul { a: Var, b: Var },
    Add { a: Var, b: Var },
    Sub { a: Var, b: Var },
    Mul { a: Var, b: Var },
    AddBias { a: Var, bias: Var },
    Scale { a: Var, c: f32 },
    AddScalar { a: Var },
    Sigmoid { a: Var },
    Tanh { a: Var },
    Relu { a: Var },
    MeanRows { a: Var },
    MaxRows { a: Var },
    ConcatCols { a: Var, b: Var },
    BceLogits { logits: Var, targets: Var },
}

/// The recording tape. Create one per forward/backward pass.
#[derive(Debug, Default)]
pub struct Tape {
    ops: Vec<TapeOp>,
    vals: Vec<Matrix>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    fn push(&mut self, op: TapeOp, val: Matrix) -> Var {
        self.ops.push(op);
        self.vals.push(val);
        Var(self.vals.len() - 1)
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.vals[v.0]
    }

    /// Records a non-trainable constant.
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(TapeOp::Leaf { key: None }, m)
    }

    /// Records a trainable parameter bound to `key` in `store`.
    ///
    /// # Panics
    /// Panics if `key` is missing from the store.
    pub fn param(&mut self, store: &ParamStore, key: &str) -> Var {
        let m = store
            .get(key)
            .unwrap_or_else(|| panic!("parameter `{key}` not found"))
            .clone();
        self.push(
            TapeOp::Leaf {
                key: Some(key.to_string()),
            },
            m,
        )
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let val = self.vals[a.0].matmul(&self.vals[b.0]);
        self.push(TapeOp::MatMul { a, b }, val)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let val = self.vals[a.0].zip(&self.vals[b.0], |x, y| x + y);
        self.push(TapeOp::Add { a, b }, val)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let val = self.vals[a.0].zip(&self.vals[b.0], |x, y| x - y);
        self.push(TapeOp::Sub { a, b }, val)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let val = self.vals[a.0].zip(&self.vals[b.0], |x, y| x * y);
        self.push(TapeOp::Mul { a, b }, val)
    }

    /// Adds a `1 x d` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let m = &self.vals[a.0];
        let b = &self.vals[bias.0];
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(b.cols(), m.cols(), "bias width mismatch");
        let mut out = m.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = out.get(r, c) + b.get(0, c);
                out.set(r, c, v);
            }
        }
        self.push(TapeOp::AddBias { a, bias }, out)
    }

    /// Scalar multiplication.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let val = self.vals[a.0].map(|x| x * c);
        self.push(TapeOp::Scale { a, c }, val)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let val = self.vals[a.0].map(|x| x + c);
        let v = self.push(TapeOp::AddScalar { a }, val);
        let _ = c;
        v
    }

    /// `1 - a`, a convenience for gating units.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let val = self.vals[a.0].map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(TapeOp::Sigmoid { a }, val)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let val = self.vals[a.0].map(f32::tanh);
        self.push(TapeOp::Tanh { a }, val)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let val = self.vals[a.0].map(|x| x.max(0.0));
        self.push(TapeOp::Relu { a }, val)
    }

    /// Mean over rows: `n x d -> 1 x d` (graph readout pooling).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let m = &self.vals[a.0];
        let mut out = Matrix::zeros(1, m.cols());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = out.get(0, c) + m.get(r, c);
                out.set(0, c, v);
            }
        }
        let inv = 1.0 / m.rows().max(1) as f32;
        for c in 0..m.cols() {
            let v = out.get(0, c) * inv;
            out.set(0, c, v);
        }
        self.push(TapeOp::MeanRows { a }, out)
    }

    /// Max over rows: `n x d -> 1 x d` (max-pooling graph readout). The
    /// gradient flows to the first maximal row of each column.
    pub fn max_rows(&mut self, a: Var) -> Var {
        let m = &self.vals[a.0];
        let mut out = Matrix::zeros(1, m.cols());
        for c in 0..m.cols() {
            let mut best = f32::NEG_INFINITY;
            for r in 0..m.rows() {
                best = best.max(m.get(r, c));
            }
            out.set(0, c, if best.is_finite() { best } else { 0.0 });
        }
        self.push(TapeOp::MaxRows { a }, out)
    }

    /// Column-wise concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.vals[a.0], &self.vals[b.0]);
        assert_eq!(ma.rows(), mb.rows(), "concat_cols rows");
        let mut out = Matrix::zeros(ma.rows(), ma.cols() + mb.cols());
        for r in 0..ma.rows() {
            for c in 0..ma.cols() {
                out.set(r, c, ma.get(r, c));
            }
            for c in 0..mb.cols() {
                out.set(r, ma.cols() + c, mb.get(r, c));
            }
        }
        self.push(TapeOp::ConcatCols { a, b }, out)
    }

    /// Mean binary cross-entropy with logits; `targets` must be a constant
    /// of the same shape with values in `[0, 1]`. Returns a `1 x 1` loss.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Var) -> Var {
        let l = &self.vals[logits.0];
        let t = &self.vals[targets.0];
        let n = (l.rows() * l.cols()).max(1) as f32;
        let mut loss = 0.0;
        for (&x, &y) in l.data().iter().zip(t.data()) {
            // numerically stable: max(x,0) - x*y + ln(1 + e^{-|x|})
            loss += x.max(0.0) - x * y + (1.0 + (-x.abs()).exp()).ln();
        }
        let val = Matrix::new(1, 1, vec![loss / n]);
        self.push(TapeOp::BceLogits { logits, targets }, val)
    }

    /// Runs reverse-mode differentiation from `loss` (which must be `1x1`)
    /// and returns gradients for every parameter leaf.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` value.
    pub fn backward(&self, loss: Var) -> Gradients {
        let lv = &self.vals[loss.0];
        assert_eq!((lv.rows(), lv.cols()), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.vals.len()];
        grads[loss.0] = Some(Matrix::full(1, 1, 1.0));

        let acc = |grads: &mut Vec<Option<Matrix>>, v: Var, g: Matrix| match &mut grads[v.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        };

        for idx in (0..self.ops.len()).rev() {
            let g = match grads[idx].clone() {
                Some(g) => g,
                None => continue,
            };
            match &self.ops[idx] {
                TapeOp::Leaf { .. } => {}
                TapeOp::MatMul { a, b } => {
                    let ga = g.matmul_nt(&self.vals[b.0]);
                    let gb = self.vals[a.0].matmul_tn(&g);
                    acc(&mut grads, *a, ga);
                    acc(&mut grads, *b, gb);
                }
                TapeOp::Add { a, b } => {
                    acc(&mut grads, *a, g.clone());
                    acc(&mut grads, *b, g);
                }
                TapeOp::Sub { a, b } => {
                    acc(&mut grads, *a, g.clone());
                    acc(&mut grads, *b, g.map(|x| -x));
                }
                TapeOp::Mul { a, b } => {
                    let ga = g.zip(&self.vals[b.0], |x, y| x * y);
                    let gb = g.zip(&self.vals[a.0], |x, y| x * y);
                    acc(&mut grads, *a, ga);
                    acc(&mut grads, *b, gb);
                }
                TapeOp::AddBias { a, bias } => {
                    acc(&mut grads, *a, g.clone());
                    let mut gb = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            let v = gb.get(0, c) + g.get(r, c);
                            gb.set(0, c, v);
                        }
                    }
                    acc(&mut grads, *bias, gb);
                }
                TapeOp::Scale { a, c } => acc(&mut grads, *a, g.map(|x| x * c)),
                TapeOp::AddScalar { a } => acc(&mut grads, *a, g),
                TapeOp::Sigmoid { a } => {
                    let y = &self.vals[idx];
                    let ga = g.zip(y, |gv, yv| gv * yv * (1.0 - yv));
                    acc(&mut grads, *a, ga);
                }
                TapeOp::Tanh { a } => {
                    let y = &self.vals[idx];
                    let ga = g.zip(y, |gv, yv| gv * (1.0 - yv * yv));
                    acc(&mut grads, *a, ga);
                }
                TapeOp::Relu { a } => {
                    let x = &self.vals[a.0];
                    let ga = g.zip(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    acc(&mut grads, *a, ga);
                }
                TapeOp::MeanRows { a } => {
                    let m = &self.vals[a.0];
                    let inv = 1.0 / m.rows().max(1) as f32;
                    let mut ga = Matrix::zeros(m.rows(), m.cols());
                    for r in 0..m.rows() {
                        for c in 0..m.cols() {
                            ga.set(r, c, g.get(0, c) * inv);
                        }
                    }
                    acc(&mut grads, *a, ga);
                }
                TapeOp::MaxRows { a } => {
                    let m = &self.vals[a.0];
                    let mut ga = Matrix::zeros(m.rows(), m.cols());
                    for c in 0..m.cols() {
                        let mut best_r = 0;
                        for r in 1..m.rows() {
                            if m.get(r, c) > m.get(best_r, c) {
                                best_r = r;
                            }
                        }
                        if m.rows() > 0 {
                            ga.set(best_r, c, g.get(0, c));
                        }
                    }
                    acc(&mut grads, *a, ga);
                }
                TapeOp::ConcatCols { a, b } => {
                    let (ma, mb) = (&self.vals[a.0], &self.vals[b.0]);
                    let mut ga = Matrix::zeros(ma.rows(), ma.cols());
                    let mut gb = Matrix::zeros(mb.rows(), mb.cols());
                    for r in 0..ma.rows() {
                        for c in 0..ma.cols() {
                            ga.set(r, c, g.get(r, c));
                        }
                        for c in 0..mb.cols() {
                            gb.set(r, c, g.get(r, ma.cols() + c));
                        }
                    }
                    acc(&mut grads, *a, ga);
                    acc(&mut grads, *b, gb);
                }
                TapeOp::BceLogits { logits, targets } => {
                    let l = &self.vals[logits.0];
                    let t = &self.vals[targets.0];
                    let n = (l.rows() * l.cols()).max(1) as f32;
                    let scale = g.get(0, 0) / n;
                    let gl = l.zip(t, |x, y| (1.0 / (1.0 + (-x).exp()) - y) * scale);
                    acc(&mut grads, *logits, gl);
                }
            }
        }

        let mut out = Gradients::default();
        for (idx, op) in self.ops.iter().enumerate() {
            if let TapeOp::Leaf { key: Some(k) } = op {
                if let Some(g) = grads[idx].clone() {
                    match out.grads.get_mut(k) {
                        Some(existing) => existing.add_assign(&g),
                        None => {
                            out.grads.insert(k.clone(), g);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a scalar loss function of a
    /// single named parameter.
    fn grad_check(
        store: &mut ParamStore,
        key: &str,
        f: &dyn Fn(&ParamStore) -> f32,
        analytic: &Matrix,
        tol: f32,
    ) {
        let eps = 1e-3;
        let base = store.get(key).unwrap().clone();
        for i in 0..base.data().len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            store.insert(key, plus);
            let fp = f(store);
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            store.insert(key, minus);
            let fm = f(store);
            let numeric = (fp - fm) / (2.0 * eps);
            let got = analytic.data()[i];
            assert!(
                (numeric - got).abs() < tol,
                "param {key}[{i}]: numeric {numeric} vs analytic {got}"
            );
        }
        store.insert(key, base);
    }

    fn mlp_loss(store: &ParamStore, x: &Matrix, t: &Matrix) -> (f32, Gradients) {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let w1 = tape.param(store, "w1");
        let b1 = tape.param(store, "b1");
        let w2 = tape.param(store, "w2");
        let h = tape.matmul(xv, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.tanh(h);
        let logits = tape.matmul(h, w2);
        let tv = tape.constant(t.clone());
        let loss = tape.bce_with_logits(logits, tv);
        let val = tape.value(loss).get(0, 0);
        let grads = tape.backward(loss);
        (val, grads)
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        store.insert("w1", Matrix::xavier(4, 5, &mut rng));
        store.insert("b1", Matrix::zeros(1, 5));
        store.insert("w2", Matrix::xavier(5, 1, &mut rng));
        let x = Matrix::xavier(3, 4, &mut rng);
        let t = Matrix::new(3, 1, vec![1.0, 0.0, 1.0]);

        let (_, grads) = mlp_loss(&store, &x, &t);
        for key in ["w1", "b1", "w2"] {
            let analytic = grads.get(key).unwrap().clone();
            grad_check(&mut store, key, &|s| mlp_loss(s, &x, &t).0, &analytic, 2e-2);
        }
    }

    #[test]
    fn shared_parameter_accumulates() {
        // loss = sum over two uses of w: y = (x w) + (x w)
        let mut store = ParamStore::new();
        store.insert("w", Matrix::new(1, 1, vec![2.0]));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::new(1, 1, vec![3.0]));
        let w1 = tape.param(&store, "w");
        let w2 = tape.param(&store, "w");
        let a = tape.mul(x, w1);
        let b = tape.mul(x, w2);
        let s = tape.add(a, b);
        let t = tape.constant(Matrix::new(1, 1, vec![1.0]));
        let loss = tape.bce_with_logits(s, t);
        let grads = tape.backward(loss);
        // dL/dw = (sigmoid(2xw) - 1) * x * 2 (two uses)
        let sig = 1.0 / (1.0 + (-12.0f32).exp());
        let expected = (sig - 1.0) * 3.0 * 2.0;
        let got = grads.get("w").unwrap().get(0, 0);
        assert!((got - expected).abs() < 1e-4, "{got} vs {expected}");
    }

    #[test]
    fn gating_ops_differentiate() {
        // z = sigmoid(w); y = (1-z)*a + z*b; check dL/dw numerically
        let mut store = ParamStore::new();
        store.insert("w", Matrix::new(1, 1, vec![0.3]));
        let f = |s: &ParamStore| -> (f32, Gradients) {
            let mut tape = Tape::new();
            let w = tape.param(s, "w");
            let z = tape.sigmoid(w);
            let nz = tape.one_minus(z);
            let a = tape.constant(Matrix::new(1, 1, vec![2.0]));
            let b = tape.constant(Matrix::new(1, 1, vec![-1.0]));
            let ya = tape.mul(nz, a);
            let yb = tape.mul(z, b);
            let y = tape.add(ya, yb);
            let t = tape.constant(Matrix::new(1, 1, vec![0.0]));
            let loss = tape.bce_with_logits(y, t);
            (tape.value(loss).get(0, 0), tape.backward(loss))
        };
        let (_, grads) = f(&store);
        let analytic = grads.get("w").unwrap().clone();
        grad_check(&mut store, "w", &|s| f(s).0, &analytic, 1e-3);
    }

    #[test]
    fn mean_rows_and_concat_backward() {
        let mut store = ParamStore::new();
        store.insert("w", Matrix::new(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let f = |s: &ParamStore| -> (f32, Gradients) {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
            let w = tape.param(s, "w");
            let h = tape.matmul(x, w);
            let hc = tape.concat_cols(h, x);
            let pooled = tape.mean_rows(hc);
            let w2 = tape.constant(Matrix::new(4, 1, vec![0.5, -0.5, 0.25, 0.125]));
            let logit = tape.matmul(pooled, w2);
            let t = tape.constant(Matrix::new(1, 1, vec![1.0]));
            let loss = tape.bce_with_logits(logit, t);
            (tape.value(loss).get(0, 0), tape.backward(loss))
        };
        let (_, grads) = f(&store);
        let analytic = grads.get("w").unwrap().clone();
        grad_check(&mut store, "w", &|s| f(s).0, &analytic, 1e-3);
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let mut store = ParamStore::new();
        store.insert("w", Matrix::new(2, 2, vec![0.2, -0.1, 0.4, 0.3]));
        let f = |s: &ParamStore| -> (f32, Gradients) {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::new(3, 2, vec![1.0, 2.0, 3.0, -4.0, 0.5, 6.0]));
            let w = tape.param(s, "w");
            let h = tape.matmul(x, w);
            let pooled = tape.max_rows(h);
            let w2 = tape.constant(Matrix::new(2, 1, vec![0.5, -0.25]));
            let logit = tape.matmul(pooled, w2);
            let t = tape.constant(Matrix::new(1, 1, vec![1.0]));
            let loss = tape.bce_with_logits(logit, t);
            (tape.value(loss).get(0, 0), tape.backward(loss))
        };
        let (_, grads) = f(&store);
        let analytic = grads.get("w").unwrap().clone();
        grad_check(&mut store, "w", &|s| f(s).0, &analytic, 1e-3);
    }

    #[test]
    fn max_rows_forward_takes_column_maxima() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::new(3, 2, vec![1.0, -2.0, 5.0, 0.0, 3.0, -7.0]));
        let m = tape.max_rows(x);
        let v = tape.value(m);
        assert_eq!((v.rows(), v.cols()), (1, 2));
        assert_eq!(v.get(0, 0), 5.0);
        assert_eq!(v.get(0, 1), 0.0);
    }

    #[test]
    fn relu_backward_masks() {
        let mut store = ParamStore::new();
        store.insert("w", Matrix::new(1, 2, vec![1.0, -1.0]));
        let mut tape = Tape::new();
        let w = tape.param(&store, "w");
        let r = tape.relu(w);
        let ones = tape.constant(Matrix::new(1, 2, vec![5.0, 5.0]));
        let y = tape.mul(r, ones);
        let pooled = tape.mean_rows(y);
        // reduce to scalar via mean over the 2 cols: use matmul with ones
        let col = tape.constant(Matrix::new(2, 1, vec![1.0, 1.0]));
        let s = tape.matmul(pooled, col);
        let t = tape.constant(Matrix::new(1, 1, vec![0.0]));
        let loss = tape.bce_with_logits(s, t);
        let grads = tape.backward(loss);
        let g = grads.get("w").unwrap();
        assert!(g.get(0, 0) > 0.0, "active unit gets gradient");
        assert_eq!(g.get(0, 1), 0.0, "inactive unit masked");
    }
}
