//! The scenario catalog: every corruption the campaign injects, with the
//! degradation contract each one must satisfy.

use crate::inject::{GnnChaos, GraphChaos, LogChaos};

/// What a scenario is allowed to do to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The corruption destroys the GNN evidence: the framework must
    /// degrade the case to its ATPG report.
    MustDegrade,
    /// The corruption may or may not leave usable evidence (partial drops,
    /// truncations); only the no-panic contract applies.
    MayDegrade,
    /// The corruption is a semantic no-op (e.g. duplicates collapse under
    /// log dedup): the case must stay healthy.
    MustNotDegrade,
}

/// One injection scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// No corruption — the healthy control.
    Healthy,
    /// Corrupt the failure log, then re-back-trace and re-diagnose.
    Log(LogChaos),
    /// Corrupt the back-traced subgraph (log untouched).
    Graph(GraphChaos),
    /// Corrupt the GNN output probabilities (log and subgraph untouched).
    Gnn(GnnChaos),
}

impl Scenario {
    /// The fixed scenario catalog the campaign cycles through. Covers
    /// every corruption kind at both partial and total severities.
    pub fn catalog() -> Vec<Scenario> {
        vec![
            Scenario::Healthy,
            Scenario::Log(LogChaos::DropEntries { frac: 0.5 }),
            Scenario::Log(LogChaos::DropEntries { frac: 0.9 }),
            Scenario::Log(LogChaos::DuplicateEntries { frac: 0.7 }),
            Scenario::Log(LogChaos::TruncateScan { keep_frac: 0.3 }),
            Scenario::Log(LogChaos::NeverFailing),
            Scenario::Log(LogChaos::CorruptPattern { frac: 0.5 }),
            Scenario::Log(LogChaos::CorruptPattern { frac: 1.0 }),
            Scenario::Log(LogChaos::CorruptObs { frac: 0.5 }),
            Scenario::Log(LogChaos::CorruptObs { frac: 1.0 }),
            Scenario::Graph(GraphChaos::Empty),
            Scenario::Graph(GraphChaos::NanFeatures { frac: 0.3 }),
            Scenario::Graph(GraphChaos::InfFeatures { frac: 0.3 }),
            Scenario::Graph(GraphChaos::OrphanMivRow),
            Scenario::Gnn(GnnChaos::NanTierProbs),
            Scenario::Gnn(GnnChaos::InfTierProbs),
            Scenario::Gnn(GnnChaos::EmptyTierProbs),
            Scenario::Gnn(GnnChaos::NanMivProbs),
        ]
    }

    /// The degradation contract of this scenario.
    pub fn expectation(&self) -> Expectation {
        match self {
            Scenario::Healthy => Expectation::MustNotDegrade,
            // Duplicates collapse under the log's sort+dedup constructor:
            // the pipeline must not even notice.
            Scenario::Log(LogChaos::DuplicateEntries { .. }) => Expectation::MustNotDegrade,
            // Total corruption leaves nothing to back-trace: the subgraph
            // is empty and the framework must fall back.
            Scenario::Log(LogChaos::NeverFailing) => Expectation::MustDegrade,
            Scenario::Log(LogChaos::CorruptPattern { frac })
            | Scenario::Log(LogChaos::CorruptObs { frac })
                if *frac >= 1.0 =>
            {
                Expectation::MustDegrade
            }
            // Partial damage: surviving entries may still back-trace to a
            // usable subgraph.
            Scenario::Log(_) => Expectation::MayDegrade,
            // Orphan MIV rows are dropped inside the pinpointer without
            // touching the tier evidence; anything else that guts the
            // subgraph must degrade.
            Scenario::Graph(GraphChaos::OrphanMivRow) => Expectation::MayDegrade,
            Scenario::Graph(_) => Expectation::MustDegrade,
            // Corrupt probabilities are never usable evidence.
            Scenario::Gnn(_) => Expectation::MustDegrade,
        }
    }

    /// A short stable label for reports and hashing.
    pub fn label(&self) -> String {
        match self {
            Scenario::Healthy => "healthy".to_string(),
            Scenario::Log(c) => format!("log:{c:?}"),
            Scenario::Graph(c) => format!("graph:{c:?}"),
            Scenario::Gnn(c) => format!("gnn:{c:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_boundary_and_expectation() {
        let cat = Scenario::catalog();
        assert!(cat.len() >= 12);
        assert!(cat.iter().any(|s| matches!(s, Scenario::Healthy)));
        assert!(cat.iter().any(|s| matches!(s, Scenario::Log(_))));
        assert!(cat.iter().any(|s| matches!(s, Scenario::Graph(_))));
        assert!(cat.iter().any(|s| matches!(s, Scenario::Gnn(_))));
        for e in [
            Expectation::MustDegrade,
            Expectation::MayDegrade,
            Expectation::MustNotDegrade,
        ] {
            assert!(
                cat.iter().any(|s| s.expectation() == e),
                "no scenario with expectation {e:?}"
            );
        }
        // Labels are unique — the campaign report keys on them.
        let mut labels: Vec<String> = cat.iter().map(Scenario::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cat.len());
    }
}
