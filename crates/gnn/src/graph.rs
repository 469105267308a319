//! Graph structure and the symmetric GCN normalization of Eq. (1).
//!
//! A [`Graph`] is an undirected node/edge set; [`NormAdj`] is its
//! symmetrically-normalized adjacency `D^{-1/2} (A [+ I]) D^{-1/2}` in CSR
//! form, the propagation operator of the paper's GCN layers, applied by
//! the dispatched [`NormAdj::spmm_into`] kernel.

use crate::kernels;
use crate::matrix::Matrix;

/// An undirected graph over `0..n` nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph { n, edges: vec![] }
    }

    /// Creates a graph from an edge list (duplicates and self-edges are
    /// tolerated; both are deduplicated during normalization).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        for &(a, b) in &edges {
            assert!((a as usize) < n && (b as usize) < n, "edge out of range");
        }
        Graph { n, edges }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        assert!((a as usize) < self.n && (b as usize) < self.n);
        self.edges.push((a, b));
    }

    /// The raw edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Builds the normalized adjacency operator.
    pub fn normalize(&self, self_loops: bool) -> NormAdj {
        NormAdj::build(self, self_loops)
    }
}

/// Symmetrically-normalized adjacency in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct NormAdj {
    n: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl NormAdj {
    /// Builds `D^{-1/2} (A + I?) D^{-1/2}` from `g`.
    ///
    /// With `self_loops = true` (the practical default, matching DGL's
    /// `GraphConv(..., allow_zero_in_degree=False)` usage with added
    /// self-loops), every node also aggregates its own features; degrees
    /// include the loop.
    pub fn build(g: &Graph, self_loops: bool) -> Self {
        let n = g.node_count();
        // Deduplicated undirected neighbor sets.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in g.edges() {
            if a != b {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            } else if !self_loops {
                // Explicit self-edge only matters when loops aren't added.
                adj[a as usize].push(a);
            }
        }
        for (i, v) in adj.iter_mut().enumerate() {
            if self_loops {
                v.push(i as u32);
            }
            v.sort_unstable();
            v.dedup();
        }
        let deg: Vec<f32> = adj.iter().map(|v| v.len() as f32).collect();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0u32);
        for i in 0..n {
            for &j in &adj[i] {
                let d = (deg[i] * deg[j as usize]).sqrt();
                indices.push(j);
                values.push(if d > 0.0 { 1.0 / d } else { 0.0 });
            }
            indptr.push(indices.len() as u32);
        }
        NormAdj {
            n,
            indptr,
            indices,
            values,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Sparse-dense product `Â @ x` written into `out`, dispatched on
    /// `M3D_SIMD`: per output element the neighbor terms accumulate in CSR
    /// (ascending-index) order; the 8-lane backend only regroups columns.
    ///
    /// The operator is symmetric, so this also serves as `Âᵀ @ x` during
    /// backpropagation.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != node_count()`.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.rows(), self.n, "spmm shape mismatch");
        let m = x.cols();
        out.reset(self.n, m);
        kernels::spmm(
            &self.indptr,
            &self.indices,
            &self.values,
            x.as_slice(),
            out.as_mut_slice(),
            self.n,
            m,
            2 * (self.values.len() * m) as u64,
        );
    }

    /// Degree (neighbor count incl. optional self-loop) of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        (self.indptr[i + 1] - self.indptr[i]) as usize
    }

    /// The neighbors of node `i` (incl. its self-loop, if built with
    /// one), ascending and deduplicated. A [`Graph`] with the edges
    /// `(i, j)` for every listed `j` normalizes, with the same
    /// `self_loops` flag, to this operator bit for bit.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i] as usize..self.indptr[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a @ x` by the scalar oracle kernel, independent of `M3D_SIMD`.
    fn oracle_spmm(a: &NormAdj, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.n, x.cols());
        kernels::scalar::spmm(
            &a.indptr,
            &a.indices,
            &a.values,
            x.as_slice(),
            out.as_mut_slice(),
            a.n,
            x.cols(),
        );
        out
    }

    #[test]
    fn normalization_values_path_graph() {
        // 0 - 1 - 2 without self loops: deg = [1, 2, 1].
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let a = g.normalize(false);
        assert_eq!(a.degree(0), 1);
        assert_eq!(a.degree(1), 2);
        let x = Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let y = oracle_spmm(&a, &x);
        // y0 = 1/sqrt(1*2) = .7071 ; y1 = 2/sqrt(2) = 1.4142 ; y2 = .7071
        assert!((y.get(0, 0) - 0.70710677).abs() < 1e-6);
        assert!((y.get(1, 0) - std::f32::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn self_loops_change_degrees() {
        let g = Graph::from_edges(2, vec![(0, 1)]);
        let a = g.normalize(true);
        assert_eq!(a.degree(0), 2);
        let x = Matrix::from_vec(2, 1, vec![2.0, 4.0]);
        let y = oracle_spmm(&a, &x);
        // deg = [2,2]; y0 = 2/2 + 4/2 = 3.
        assert!((y.get(0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let g = Graph::from_edges(2, vec![(0, 1), (1, 0), (0, 1)]);
        let a = g.normalize(false);
        assert_eq!(a.degree(0), 1);
    }

    #[test]
    fn spmm_is_symmetric_operator() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let a = g.normalize(true);
        // Check symmetry via random vectors: xᵀ(Ay) == (Ax)ᵀy.
        let x = Matrix::xavier(4, 1, 1);
        let y = Matrix::xavier(4, 1, 2);
        let ay = oracle_spmm(&a, &y);
        let ax = oracle_spmm(&a, &x);
        let lhs: f32 = (0..4).map(|i| x.get(i, 0) * ay.get(i, 0)).sum();
        let rhs: f32 = (0..4).map(|i| ax.get(i, 0) * y.get(i, 0)).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn isolated_node_without_loops_is_zero() {
        let g = Graph::from_edges(2, vec![]);
        let a = g.normalize(false);
        let x = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let y = oracle_spmm(&a, &x);
        assert_eq!(y.get(0, 0), 0.0);
        let al = g.normalize(true);
        let yl = oracle_spmm(&al, &x);
        assert_eq!(yl.get(0, 0), 5.0);
    }

    #[test]
    fn rebuilding_from_neighbor_lists_reproduces_the_operator() {
        // Duplicate, reversed and self edges in the source graph.
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 2), (3, 1), (4, 5), (0, 1)];
        for self_loops in [true, false] {
            let a = Graph::from_edges(6, edges.clone()).normalize(self_loops);
            let mut rebuilt = Graph::new(6);
            for i in 0..6 {
                for &j in a.neighbors(i) {
                    rebuilt.add_edge(i as u32, j);
                }
            }
            let b = rebuilt.normalize(self_loops);
            let bits = |m: &NormAdj| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                (&b.indptr, &b.indices, bits(&b)),
                (&a.indptr, &a.indices, bits(&a))
            );
        }
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn edges_bounds_checked() {
        Graph::from_edges(2, vec![(0, 2)]);
    }

    #[test]
    fn spmm_into_bit_identical_to_reference() {
        // Ring + chords, feature width straddling the 8-wide lane groups.
        use crate::kernels::LANES;
        for cols in [1usize, 3, LANES, 2 * LANES + 5] {
            let n = 37;
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
            edges.push((0, 5));
            edges.push((3, 30));
            let g = Graph::from_edges(n, edges);
            let a = g.normalize(true);
            let x = Matrix::xavier(n, cols, 21);
            let reference = oracle_spmm(&a, &x);
            let mut out = Matrix::default();
            a.spmm_into(&x, &mut out);
            assert_eq!(out, reference, "cols={cols}");
        }
    }
}
