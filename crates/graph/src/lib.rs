//! Computational-graph intermediate representation for the Proteus
//! reproduction.
//!
//! A deep-learning model is represented as a directed acyclic graph
//! ([`Graph`]) whose nodes carry ONNX-style operators ([`Op`]) and whose
//! edges carry tensors. The crate provides everything the rest of the
//! workspace needs from an IR:
//!
//! - graph construction and surgery ([`Graph`]),
//! - cached, generation-stamped analyses for the rewrite engine
//!   ([`analysis::GraphAnalysis`], [`analysis::NodeMap`]),
//! - static shape inference ([`shape::infer_shapes`]),
//! - the graph statistics used by Proteus' sentinel sampler and by the
//!   heuristic adversary ([`stats::GraphStats`]),
//! - a reference interpreter used to verify that optimizer rewrites preserve
//!   functional semantics ([`exec::Executor`]),
//! - Graphviz DOT export ([`dot::to_dot`]) and serde serialization (the
//!   obfuscated bucket exchanged between model owner and optimizer is
//!   serialized from these types).
//!
//! # Example
//!
//! ```
//! use proteus_graph::{Graph, Op, ConvAttrs, Activation};
//!
//! let mut g = Graph::new("tiny");
//! let x = g.input([1, 3, 32, 32]);
//! let conv = g.add(Op::Conv(ConvAttrs::new(3, 8, 3).stride(1).padding(1)), [x]);
//! let relu = g.add(Op::Activation(Activation::Relu), [conv]);
//! g.set_outputs([relu]);
//!
//! let shapes = proteus_graph::shape::infer_shapes(&g).unwrap();
//! assert_eq!(shapes[&relu].dims(), &[1, 8, 32, 32]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod exec;
pub mod graph;
pub mod op;
pub mod shape;
pub mod stats;
pub mod wire;

pub use analysis::{GraphAnalysis, NodeMap};
pub use exec::{Executor, Tensor, TensorMap};
pub use graph::{Graph, Node, NodeId};
pub use op::{
    Activation, BatchNormAttrs, ConvAlgo, ConvAttrs, GemmAttrs, LayerNormAttrs, Op, OpCode,
    PoolAttrs,
};
pub use shape::{infer_shapes, Shape};
pub use stats::GraphStats;
pub use wire::{
    decode_error_frame, decode_frame, encode_error_frame, encode_frame_v3, open_record,
    peek_frame_request_id, seal_record, ErrorCode, ErrorFrame, Frame, WireError, ERROR_FRAME_MAGIC,
    FRAME_MAGIC, MAX_ERROR_DETAIL, WIRE_VERSION, WIRE_VERSION_V1, WIRE_VERSION_V3,
};

use std::fmt;

/// Errors produced by graph construction, validation, shape inference, and
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node references an input id that does not exist (or was removed).
    DanglingInput {
        /// Name of the referencing node.
        node: String,
        /// The missing input id.
        input: NodeId,
    },
    /// A node has the wrong number of inputs for its operator.
    BadArity {
        /// Name of the offending node.
        node: String,
        /// Human-readable description of the expected arity.
        expected: String,
        /// Number of inputs actually present.
        got: usize,
    },
    /// The graph contains a cycle.
    Cyclic,
    /// Shape inference failed at a node.
    ShapeMismatch {
        /// Name of the node where inference failed.
        node: String,
        /// What went wrong.
        detail: String,
    },
    /// Execution failed (e.g. a missing parameter tensor).
    Exec {
        /// Name of the node where execution failed.
        node: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { node, input } => {
                write!(f, "node `{node}` references missing input {input:?}")
            }
            GraphError::BadArity {
                node,
                expected,
                got,
            } => {
                write!(f, "node `{node}` expects {expected} inputs, got {got}")
            }
            GraphError::Cyclic => write!(f, "graph contains a cycle"),
            GraphError::ShapeMismatch { node, detail } => {
                write!(f, "shape inference failed at `{node}`: {detail}")
            }
            GraphError::Exec { node, detail } => {
                write!(f, "execution failed at `{node}`: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
