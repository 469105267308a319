//! Exec-pool behaviour tests: empty input, panic propagation from
//! workers, nested-scope reuse, and order determinism under uneven load.

use m3d_exec::ExecPool;

#[test]
fn empty_input_yields_empty_output() {
    let pool = ExecPool::with_threads(4);
    let out: Vec<u32> = pool.map(&[] as &[u32], |_, &x| x + 1);
    assert!(out.is_empty());
    let out: Vec<usize> = pool.map_indices(0, |i| i);
    assert!(out.is_empty());
}

#[test]
fn single_item_runs_inline() {
    let pool = ExecPool::with_threads(8);
    let caller = std::thread::current().id();
    let out = pool.map(&[7u32], |_, &x| {
        assert_eq!(std::thread::current().id(), caller, "inline on caller");
        x * 3
    });
    assert_eq!(out, vec![21]);
}

#[test]
fn worker_panic_propagates_to_caller() {
    let pool = ExecPool::with_threads(4);
    let items: Vec<usize> = (0..64).collect();
    let result = std::panic::catch_unwind(|| {
        pool.map(&items, |_, &x| {
            assert!(x != 13, "boom at 13");
            x
        })
    });
    let payload = result.expect_err("worker panic must reach the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("boom at 13"), "payload preserved: {msg:?}");
}

#[test]
fn nested_maps_reuse_the_pool() {
    // An outer fan-out whose workers issue their own nested maps: each
    // worker opens its own scope on a shared inner pool value.
    let outer = ExecPool::with_threads(4);
    let inner = ExecPool::with_threads(2);
    let rows: Vec<usize> = (0..8).collect();
    let table = outer.map(&rows, |_, &r| inner.map_indices(16, |c| r * 16 + c));
    for (r, row) in table.iter().enumerate() {
        let want: Vec<usize> = (0..16).map(|c| r * 16 + c).collect();
        assert_eq!(row, &want);
    }
}

#[test]
fn uneven_work_still_returns_in_order() {
    let pool = ExecPool::with_threads(4);
    let items: Vec<u64> = (0..200).collect();
    let out = pool.map(&items, |_, &x| {
        // Stragglers early in the index space force stealing.
        if x % 17 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        x
    });
    assert_eq!(out, items);
}

#[test]
fn env_override_is_respected() {
    // Spawn a child-free check: from_env reads M3D_THREADS at call time.
    // Environment mutation is process-global, so keep it in one test.
    unsafe { std::env::set_var("M3D_THREADS", "3") };
    assert_eq!(ExecPool::from_env().threads(), 3);
    unsafe { std::env::set_var("M3D_THREADS", "not-a-number") };
    assert!(ExecPool::from_env().threads() >= 1, "falls back");
    unsafe { std::env::remove_var("M3D_THREADS") };
    assert!(ExecPool::from_env().threads() >= 1);
}
