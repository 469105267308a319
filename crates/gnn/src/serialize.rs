//! Plain-text model serialization.
//!
//! The transferability workflow reuses pretrained models across design
//! configurations and sessions, so models need a durable format. The
//! format is a line-oriented text layout (exact `f32` round-trip via
//! hex-encoded bits) with no external dependencies.

use crate::head::DenseHead;
use crate::layers::{GcnLayer, Linear};
use crate::matrix::Matrix;
use crate::model::{GcnModel, Task};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`GcnModel::load_text`] and [`DenseHead::load_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadModelError {
    line: usize,
    message: String,
}

impl LoadModelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        LoadModelError {
            line,
            message: message.into(),
        }
    }

    /// A caller-defined semantic error (e.g. "wrong task for this model
    /// wrapper"), reported without a line number.
    pub fn custom(message: impl Into<String>) -> Self {
        LoadModelError::new(0, message)
    }
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for LoadModelError {}

fn write_floats(out: &mut String, values: &[f32]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:08x}", v.to_bits());
    }
    out.push('\n');
}

fn parse_floats(line: &str, line_no: usize, expect: usize) -> Result<Vec<f32>, LoadModelError> {
    let vals: Result<Vec<f32>, _> = line
        .split_whitespace()
        .map(|t| u32::from_str_radix(t, 16).map(f32::from_bits))
        .collect();
    let vals = vals.map_err(|_| LoadModelError::new(line_no, "bad float encoding"))?;
    if vals.len() != expect {
        return Err(LoadModelError::new(
            line_no,
            format!("expected {expect} values, got {}", vals.len()),
        ));
    }
    Ok(vals)
}

struct Cursor<'a> {
    lines: &'a [&'a str],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<(usize, &'a str), LoadModelError> {
        let line = self
            .lines
            .get(self.at)
            .ok_or_else(|| LoadModelError::new(self.at, "unexpected end of input"))?;
        self.at += 1;
        Ok((self.at, line))
    }
}

fn read_stack(
    kind: &str,
    cursor: &mut Cursor<'_>,
) -> Result<Vec<(Matrix, Vec<f32>)>, LoadModelError> {
    let (n, count_line) = cursor.next()?;
    let count: usize = count_line
        .strip_prefix(kind)
        .map(str::trim)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| LoadModelError::new(n, format!("bad `{kind}` count line")))?;
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let (n, dims) = cursor.next()?;
        let mut it = dims
            .strip_prefix("layer ")
            .ok_or_else(|| LoadModelError::new(n, "expected `layer`"))?
            .split_whitespace();
        let din: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| LoadModelError::new(n, "bad in_dim"))?;
        let dout: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| LoadModelError::new(n, "bad out_dim"))?;
        let (n, wline) = cursor.next()?;
        let w = parse_floats(wline, n, din * dout)?;
        let (n, bline) = cursor.next()?;
        let b = parse_floats(bline, n, dout)?;
        out.push((Matrix::from_vec(din, dout, w), b));
    }
    Ok(out)
}

impl GcnModel {
    /// Serializes the model (architecture + parameters, not optimizer
    /// state) to the `m3d-gnn-model v1` text format. Its `frozen` line
    /// always reads `frozen 0`: every GCN layer of a model trains.
    pub fn save_text(&self) -> String {
        let mut s = String::from("m3d-gnn-model v1\n");
        let _ = writeln!(
            s,
            "task {}",
            match self.task() {
                Task::Graph => "graph",
                Task::Node => "node",
            }
        );
        s.push_str("frozen 0\n");
        let _ = writeln!(s, "gcn {}", self.gcn.len());
        for layer in &self.gcn {
            let _ = writeln!(s, "layer {} {}", layer.in_dim(), layer.out_dim());
            write_floats(&mut s, layer.w.as_slice());
            write_floats(&mut s, &layer.b);
        }
        s.push_str(&self.head.save_text());
        s
    }

    /// Reconstructs a model saved by [`GcnModel::save_text`]. Optimizer
    /// state starts fresh.
    ///
    /// # Errors
    ///
    /// Returns a [`LoadModelError`] describing the first malformed line;
    /// a `frozen` line other than `frozen 0` is one.
    pub fn load_text(text: &str) -> Result<GcnModel, LoadModelError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut cursor = Cursor {
            lines: &lines,
            at: 0,
        };
        let (n, header) = cursor.next()?;
        if header.trim() != "m3d-gnn-model v1" {
            return Err(LoadModelError::new(n, "bad header"));
        }
        let (n, task_line) = cursor.next()?;
        let task = match task_line.trim() {
            "task graph" => Task::Graph,
            "task node" => Task::Node,
            _ => return Err(LoadModelError::new(n, "bad task line")),
        };
        let (n, frozen_line) = cursor.next()?;
        if frozen_line.trim() != "frozen 0" {
            return Err(LoadModelError::new(n, "bad frozen line"));
        }

        let gcn_raw = read_stack("gcn", &mut cursor)?;
        let head = read_head(&mut cursor)?;
        if gcn_raw.is_empty() {
            return Err(LoadModelError::new(0, "model needs gcn and head layers"));
        }
        let gcn: Vec<GcnLayer> = gcn_raw
            .into_iter()
            .map(|(w, b)| GcnLayer { w, b })
            .collect();
        Ok(GcnModel::from_parts(task, gcn, head))
    }
}

/// Reads a non-empty `head` section whose layer widths chain.
fn read_head(cursor: &mut Cursor<'_>) -> Result<DenseHead, LoadModelError> {
    let raw = read_stack("head", cursor)?;
    if raw.is_empty() || raw.windows(2).any(|w| w[0].0.cols() != w[1].0.rows()) {
        return Err(LoadModelError::new(
            0,
            "head layers are missing or do not chain",
        ));
    }
    Ok(DenseHead::from_layers(
        raw.into_iter().map(|(w, b)| Linear { w, b }).collect(),
    ))
}

impl DenseHead {
    /// Serializes the head's layers (not optimizer state) as the `head`
    /// section of the `m3d-gnn-model v1` format: a `head <n>` line, then
    /// per layer its `layer <in> <out>` line, weights and biases.
    pub fn save_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "head {}", self.layers.len());
        for layer in &self.layers {
            let _ = writeln!(s, "layer {} {}", layer.in_dim(), layer.out_dim());
            write_floats(&mut s, layer.w.as_slice());
            write_floats(&mut s, &layer.b);
        }
        s
    }

    /// Reconstructs a head saved by [`DenseHead::save_text`]. Optimizer
    /// state starts fresh.
    ///
    /// # Errors
    ///
    /// Returns a [`LoadModelError`] for a malformed section, an empty
    /// head, or layers whose widths do not chain.
    pub fn load_text(text: &str) -> Result<DenseHead, LoadModelError> {
        let lines: Vec<&str> = text.lines().collect();
        read_head(&mut Cursor {
            lines: &lines,
            at: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::model::{GcnConfig, GraphSample, TrainConfig};

    fn sample() -> GraphSample {
        let mut g = Graph::new(4);
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        let adj = g.normalize(true);
        let x = Matrix::xavier(4, 3, 2);
        GraphSample::graph_level(adj, x, 1)
    }

    #[test]
    fn round_trip_preserves_predictions_exactly() {
        let s = sample();
        let mut model = GcnModel::new(&GcnConfig::two_layer(3, Task::Graph));
        model.train(
            std::slice::from_ref(&s),
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let text = model.save_text();
        let loaded = GcnModel::load_text(&text).expect("round trip");
        assert_eq!(
            model.predict_graph(&s.adj, &s.x),
            loaded.predict_graph(&s.adj, &s.x),
            "bit-exact round trip"
        );
        assert_eq!(loaded.task(), Task::Graph);
        // A model's head section is its head's own text, and loads alone.
        let head = DenseHead::load_text(&model.head().save_text()).unwrap();
        assert!(text.ends_with(&head.save_text()));
    }

    #[test]
    fn round_trip_preserves_node_task_and_requires_frozen_0() {
        let text = GcnModel::new(&GcnConfig::two_layer(3, Task::Node)).save_text();
        let loaded = GcnModel::load_text(&text).unwrap();
        assert_eq!(
            (loaded.task(), loaded.save_text()),
            (Task::Node, text.clone())
        );
        for frozen in ["frozen 1", "frozen x"] {
            assert!(GcnModel::load_text(&text.replacen("frozen 0", frozen, 1)).is_err());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(GcnModel::load_text("nope").is_err());
        assert!(GcnModel::load_text("m3d-gnn-model v1\ntask graph\n").is_err());
        let model = GcnModel::new(&GcnConfig::two_layer(3, Task::Graph));
        let text = model.save_text();
        // Corrupt one float.
        let bad = text.replacen("layer 3 32", "layer 3 31", 1);
        assert!(GcnModel::load_text(&bad).is_err());
    }
}
