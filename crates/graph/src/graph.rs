//! Graphs: ordered, annotated operator sequences.

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::sync::Arc;

use crate::{Op, OpCategory};

/// One operator plus the module path it came from.
///
/// Module paths mirror the paper's profiling methodology of hooking module
/// `forward` functions — e.g. `"unet.down.1.self_attn"` — so GPU kernels
/// can be attributed back to model components.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Dotted module path, shared (`Arc`) with the profiler's events and
    /// spans so profiling an op never copies it.
    pub path: Arc<str>,
    /// The operator.
    pub op: Op,
}

/// An ordered operator sequence — the single-stream execution trace of one
/// forward pass (or one pipeline stage).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Appends an operator under a module path: a string, or
    /// `format_args!` output, which is formatted through a reused buffer
    /// straight into the node's `Arc<str>`, one allocation per node.
    pub fn push(&mut self, path: impl fmt::Display, op: Op) {
        thread_local! {
            static PATH: RefCell<String> = const { RefCell::new(String::new()) };
        }
        let path = PATH.with_borrow_mut(|buf| {
            buf.clear();
            write!(buf, "{path}").expect("writing to a String cannot fail");
            Arc::from(buf.as_str())
        });
        self.nodes.push(Node { path, op });
    }

    /// Appends all nodes of another graph, prefixing their paths.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &Graph) {
        for n in &other.nodes {
            self.push(format_args!("{prefix}.{}", n.path), n.op.clone());
        }
    }

    /// The nodes in execution order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total FLOPs of one execution.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.flops()).sum()
    }

    /// Total trainable parameters (sums every node — callers building
    /// weight-shared loops should count parameters on the per-step graph
    /// once, not per iteration).
    #[must_use]
    pub fn param_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.param_count()).sum()
    }

    /// FLOPs grouped by operator category.
    #[must_use]
    pub fn flops_by_category(&self) -> Vec<(OpCategory, u64)> {
        let mut acc: Vec<(OpCategory, u64)> =
            OpCategory::ALL.iter().map(|&c| (c, 0u64)).collect();
        for n in &self.nodes {
            let c = n.op.category();
            if let Some(slot) = acc.iter_mut().find(|(cat, _)| *cat == c) {
                slot.1 += n.op.flops();
            }
        }
        acc.retain(|(_, f)| *f > 0);
        acc
    }

    /// Iterator over attention nodes in call order — the Fig. 7 trace.
    pub fn attention_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| matches!(n.op, Op::Attention { .. }))
    }
}

impl FromIterator<Node> for Graph {
    fn from_iter<T: IntoIterator<Item = Node>>(iter: T) -> Self {
        Graph { nodes: iter.into_iter().collect() }
    }
}

impl Extend<Node> for Graph {
    fn extend<T: IntoIterator<Item = Node>>(&mut self, iter: T) {
        self.nodes.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmg_attn::AttentionShape;
    use crate::AttnKind;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.push("proj", Op::Linear { tokens: 16, in_features: 8, out_features: 8 });
        g.push(
            "attn",
            Op::Attention {
                shape: AttentionShape::self_attn(1, 1, 16, 8),
                kind: AttnKind::SpatialSelf,
            },
        );
        g.push("act", Op::Activation { elems: 128, kind: crate::ActivationKind::Silu });
        g
    }

    #[test]
    fn push_and_len() {
        let g = sample();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(&*g.nodes()[0].path, "proj");
    }

    #[test]
    fn totals_sum_nodes() {
        let g = sample();
        assert_eq!(
            g.total_flops(),
            g.nodes().iter().map(|n| n.op.flops()).sum::<u64>()
        );
        assert_eq!(g.param_count(), 64);
    }

    #[test]
    fn flops_by_category_drops_empty() {
        let g = sample();
        let by = g.flops_by_category();
        assert!(by.iter().any(|(c, _)| *c == OpCategory::Linear));
        assert!(by.iter().all(|(_, f)| *f > 0));
    }

    #[test]
    fn attention_nodes_filtered() {
        let g = sample();
        let attn: Vec<_> = g.attention_nodes().collect();
        assert_eq!(attn.len(), 1);
        assert_eq!(&*attn[0].path, "attn");
    }

    #[test]
    fn extend_prefixed_rewrites_paths() {
        let mut g = Graph::new();
        g.extend_prefixed("unet.down", &sample());
        assert_eq!(&*g.nodes()[0].path, "unet.down.proj");
        assert_eq!(g.len(), 3);
    }
}
