//! Dummy-buffer oversampling (Section V-C).
//!
//! SMOTE-style oversampling does not apply to graphs, so the paper
//! balances the Classifier's training set by inserting *dummy buffers*:
//! for a minority-class subgraph, append a buffer node at the output of a
//! node to create a synthetic sample that preserves the circuit's
//! function; consecutive buffers are chained until the dataset balances.

use crate::features::{local_degree_feature, F_FANIN_SUB, F_FANOUT_SUB, F_OUT, N_FEATURES};
use m3d_gnn::{Graph, Matrix, NormAdj};

/// Returns a synthetic copy of the graph `(adj, x)` with a chain of
/// `chain_len` dummy buffers appended at `host_row`'s output.
///
/// The copy's edges are `adj`'s neighbor lists plus the chain (normalized
/// with self-loops, as every subgraph is). The buffer nodes inherit the
/// host's features with the structural columns corrected (a buffer is a
/// gate output with unit local degree).
///
/// # Panics
///
/// Panics if `host_row` is out of range or `chain_len == 0`.
pub fn with_dummy_buffers(
    adj: &NormAdj,
    x: &Matrix,
    host_row: usize,
    chain_len: usize,
) -> (NormAdj, Matrix) {
    let old_n = x.rows();
    assert!(host_row < old_n, "host row out of range");
    assert!(chain_len > 0, "need at least one buffer");
    let new_n = old_n + chain_len;
    let mut graph = Graph::new(new_n);
    for i in 0..old_n {
        for &j in adj.neighbors(i) {
            graph.add_edge(i as u32, j);
        }
    }
    let mut prev = host_row as u32;
    for k in 0..chain_len {
        let node = (old_n + k) as u32;
        graph.add_edge(prev, node);
        prev = node;
    }
    let mut out = Matrix::zeros(new_n, N_FEATURES);
    for r in 0..old_n {
        out.row_mut(r).copy_from_slice(x.row(r));
    }
    for k in 0..chain_len {
        let r = old_n + k;
        out.row_mut(r).copy_from_slice(x.row(host_row));
        out.set(r, F_OUT, 1.0);
        out.set(r, F_FANIN_SUB, local_degree_feature(1));
        out.set(
            r,
            F_FANOUT_SUB,
            local_degree_feature(usize::from(k + 1 < chain_len)),
        );
    }
    // Host gains one fan-out edge.
    let host_fanout = x.get(host_row, F_FANOUT_SUB);
    out.set(
        host_row,
        F_FANOUT_SUB,
        ((host_fanout.exp() - 1.0) + 1.0 + 1.0).ln(),
    );
    (graph.normalize(true), out)
}

/// Balances a labelled graph set: synthesizes minority-class graphs by
/// dummy-buffer insertion (cycling host rows, growing chain lengths) until
/// both classes have equal counts. Returns the synthetic additions.
pub fn balance_with_buffers(
    labelled: &[(&NormAdj, &Matrix, usize)],
) -> Vec<(NormAdj, Matrix, usize)> {
    let count1 = labelled.iter().filter(|(_, _, c)| *c == 1).count();
    let count0 = labelled.len() - count1;
    let (minority_class, deficit) = if count0 < count1 {
        (0usize, count1 - count0)
    } else {
        (1usize, count0 - count1)
    };
    if deficit == 0 {
        return Vec::new();
    }
    let minority: Vec<(&NormAdj, &Matrix)> = labelled
        .iter()
        .filter(|(_, x, c)| *c == minority_class && x.rows() > 0)
        .map(|&(adj, x, _)| (adj, x))
        .collect();
    if minority.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(deficit);
    let mut i = 0usize;
    while out.len() < deficit {
        let (adj, x) = minority[i % minority.len()];
        let host = (i / minority.len()) % x.rows();
        let chain = 1 + i / (minority.len() * x.rows());
        let (adj, x) = with_dummy_buffers(adj, x, host, chain.min(8));
        out.push((adj, x, minority_class));
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrace::Subgraph;
    use crate::dataset::{generate_samples, DatasetConfig, DesignContext};
    use crate::design::{DesignConfig, TestBench, TestBenchConfig};
    use m3d_netlist::BenchmarkProfile;

    fn subgraphs() -> Vec<Subgraph> {
        let tb = TestBench::build(&TestBenchConfig {
            scale: 0.002,
            ..TestBenchConfig::quick(BenchmarkProfile::AesLike, DesignConfig::Syn1)
        });
        let ctx = DesignContext::new(&tb);
        generate_samples(&ctx, &DatasetConfig::single(6, 17))
            .into_iter()
            .map(|s| s.subgraph)
            .collect()
    }

    fn labelled(
        subs: &[Subgraph],
        class: impl Fn(usize) -> usize,
    ) -> Vec<(&NormAdj, &Matrix, usize)> {
        subs.iter()
            .enumerate()
            .map(|(i, s)| (&s.adj, &s.x, class(i)))
            .collect()
    }

    #[test]
    fn buffers_extend_topology() {
        let subs = subgraphs();
        let orig = &subs[0];
        let n = orig.x.rows();
        let (adj, x) = with_dummy_buffers(&orig.adj, &orig.x, 0, 3);
        assert_eq!((x.rows(), adj.node_count()), (n + 3, n + 3));
        // The host gains the chain's head; other rows keep their edges.
        assert_eq!(adj.neighbors(0).last(), Some(&(n as u32)));
        assert!((1..n).all(|r| adj.neighbors(r) == orig.adj.neighbors(r)));
        assert_eq!(adj.neighbors(n + 2), &[n as u32 + 1, n as u32 + 2]);
        // Buffer rows look like gate outputs.
        assert_eq!(x.get(n, F_OUT), 1.0);
    }

    #[test]
    fn balance_fills_minority() {
        let subs = subgraphs();
        // 4 of class 1, 1 of class 0.
        let synth = balance_with_buffers(&labelled(&subs[..5], |i| usize::from(i != 0)));
        assert_eq!(synth.len(), 3);
        assert!(synth.iter().all(|(_, _, c)| *c == 0));
        // Synthetic variants grow the one minority source, each differently.
        let rows = subs[0].x.rows();
        assert!(synth.iter().all(|(_, x, _)| x.rows() > rows));
        assert_ne!(synth[0].1, synth[1].1);
    }

    #[test]
    fn balanced_set_needs_nothing() {
        let subs = subgraphs();
        assert!(balance_with_buffers(&labelled(&subs[..4], |i| i % 2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "host row out of range")]
    fn host_bounds_checked() {
        let subs = subgraphs();
        let n = subs[0].x.rows();
        with_dummy_buffers(&subs[0].adj, &subs[0].x, n, 1);
    }
}
