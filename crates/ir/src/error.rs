use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced while constructing, validating, or analysing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A referenced node id does not exist in the graph.
    UnknownNode(NodeId),
    /// An operation received the wrong number of inputs.
    BadArity {
        /// Mnemonic of the offending operation.
        op: &'static str,
        /// Number of inputs supplied.
        got: usize,
        /// Minimum permitted number of inputs.
        min: usize,
        /// Maximum permitted number of inputs.
        max: usize,
    },
    /// The same predecessor was listed more than once for a node.
    DuplicateInput(NodeId),
    /// Input shapes are incompatible with the operation.
    ShapeMismatch {
        /// Mnemonic of the offending operation.
        op: &'static str,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The graph contains a cycle (only possible for deserialized graphs).
    Cycle,
    /// The graph has no nodes.
    Empty,
    /// A sequence of nodes is not a valid topological order of the graph.
    InvalidOrder {
        /// Description of the violation.
        detail: String,
    },
    /// Bytes that are not a [`Structure`](crate::fingerprint::Structure)
    /// encoding.
    MalformedEncoding {
        /// Byte offset at which decoding failed.
        offset: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node {id}"),
            GraphError::BadArity { op, got, min, max } => {
                if min == max {
                    write!(f, "{op} expects {min} input(s), got {got}")
                } else if *max == usize::MAX {
                    write!(f, "{op} expects at least {min} input(s), got {got}")
                } else {
                    write!(f, "{op} expects between {min} and {max} inputs, got {got}")
                }
            }
            GraphError::DuplicateInput(id) => {
                write!(f, "node {id} listed more than once as an input")
            }
            GraphError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in {op}: {detail}")
            }
            GraphError::Cycle => f.write_str("graph contains a cycle"),
            GraphError::Empty => f.write_str("graph has no nodes"),
            GraphError::InvalidOrder { detail } => {
                write!(f, "invalid topological order: {detail}")
            }
            GraphError::MalformedEncoding { offset } => {
                write!(f, "malformed structure encoding at byte {offset}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::BadArity { op: "add", got: 1, min: 2, max: usize::MAX };
        assert_eq!(e.to_string(), "add expects at least 2 input(s), got 1");

        let e = GraphError::BadArity { op: "relu", got: 2, min: 1, max: 1 };
        assert_eq!(e.to_string(), "relu expects 1 input(s), got 2");

        let e = GraphError::UnknownNode(NodeId::from_index(3));
        assert_eq!(e.to_string(), "unknown node n3");
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}
