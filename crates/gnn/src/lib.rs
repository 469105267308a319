//! # m3d-gnn
//!
//! A from-scratch graph-neural-network substrate (the Rust stand-in for
//! PyTorch + DGL in the paper's framework): dense `f32` matrices, CSR
//! graphs with the symmetric GCN normalization of Eq. (1), GCN/dense
//! layers with hand-derived backprop, Adam, softmax cross-entropy with
//! class weights, graph- and node-level models, network-based transfer
//! learning, PCA, precision–recall curves, and permutation feature
//! significance.
//!
//! ```
//! use m3d_gnn::{GcnConfig, GcnModel, Graph, GraphSample, Matrix, Task, TrainConfig};
//!
//! // A 4-node path graph classified by a toy feature.
//! let mut g = Graph::new(4);
//! for i in 0..3 { g.add_edge(i, i + 1); }
//! let adj = g.normalize(true);
//! let x = Matrix::from_vec(4, 2, vec![1.0, 0.5, 1.0, 0.1, 1.0, 0.9, 1.0, 0.3]);
//! let sample = GraphSample::graph_level(adj, x, 1);
//!
//! let mut model = GcnModel::new(&GcnConfig::two_layer(2, Task::Graph));
//! model.train(std::slice::from_ref(&sample), &TrainConfig { epochs: 5, ..TrainConfig::default() });
//! let probs = model.predict_graph(&sample.adj, &sample.x);
//! assert!((probs[0] + probs[1] - 1.0).abs() < 1e-5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adam;
mod explain;
mod graph;
mod head;
mod kernels;
mod layers;
mod loss;
mod matrix;
mod model;
mod pca;
mod prcurve;
mod proptests;
mod serialize;
mod workspace;

pub use adam::AdamState;
pub use explain::{permutation_significance, stack_features, FeatureSignificance};
pub use graph::{Graph, NormAdj};
pub use head::DenseHead;
#[doc(hidden)]
pub use kernels::force_simd_mode;
pub use kernels::{kernel_flops, simd_mode, SimdMode, LANES, SIMD_ENV};
pub use layers::{relu_backward, GcnLayer, Linear};
pub use loss::{argmax, cross_entropy, cross_entropy_into, softmax_row, softmax_row_into};
pub use matrix::{Matrix, ShapeError};
pub use model::{GcnConfig, GcnModel, GraphSample, Task, TrainConfig};
pub use pca::Pca;
pub use prcurve::{PrCurve, PrPoint, ScoredSample};
pub use serialize::LoadModelError;
