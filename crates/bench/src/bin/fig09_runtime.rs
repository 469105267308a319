//! Regenerates Fig. 9: the deployment-flow runtime breakdown (ATPG
//! diagnosis and GNN inference run side by side, then the report update).
//!
//! At paper-class scales (`--scale paper-smoke` / `--scale paper`) the
//! full training loop is replaced by the paper-scale back-trace probe:
//! the reference and the bitmap back-trace over real ≥100k-gate failure
//! logs, checked bit-identical, with `paper.backtrace.reference` /
//! `paper.backtrace` spans feeding the `BENCH_paper.json` perf snapshot
//! and its speedup gate in `ci.sh`.
fn main() {
    let scale = m3d_bench::Scale::from_args();
    let profiles = m3d_bench::profiles_from_args();
    let _report = m3d_bench::ReportGuard::new(&scale, &profiles);
    if scale.name.starts_with("paper") {
        let rows = m3d_bench::experiments::paper_backtrace_probe(&scale, &profiles);
        m3d_obs::out!("== Fig. 9 (paper-scale): back-trace wall-clock ==");
        for r in &rows {
            m3d_obs::out!(
                "{:<10} reference {:.2}s vs bitmap {:.3}s over {} logs ({} observers) = {:.1}x",
                r.design,
                r.t_reference,
                r.t_bitmap,
                r.logs,
                r.observers,
                r.speedup(),
            );
        }
        return;
    }
    let rows = m3d_bench::experiments::table09(&scale, &profiles);
    m3d_obs::out!("== Fig. 9: deployment flow (per test set) ==");
    for r in &rows {
        let parallel = r.t_atpg.max(r.t_gnn);
        m3d_obs::out!(
            "{:<10} max(T_ATPG {:.2}s, T_GNN {:.3}s) + T_update {:.4}s = {:.2}s  (GNN {:.1}x faster than ATPG)",
            r.design,
            r.t_atpg,
            r.t_gnn,
            r.t_update,
            parallel + r.t_update,
            if r.t_gnn > 0.0 { r.t_atpg / r.t_gnn } else { f64::INFINITY },
        );
    }
}
