//! **Hotpath** — allocation discipline of the online request path.
//!
//! Measures the fig06-style request loop three ways at the same scale: the
//! streaming scan→aggregate pipeline (`execute_request`), the materializing
//! reference pipeline (`execute_request_materialized`), and the
//! pre-aggregation path — reporting p50/p99 latency and, via the counting
//! global allocator, allocations per request. Two properties gate `run_all`:
//!
//! * the streaming scan path allocates **≥2× less** per request than the
//!   materializing baseline;
//! * the scan→arena→`RowView`→`update_view` stage performs **zero**
//!   allocations once warm (the no-join `ROWS_RANGE` case).
//!
//! The snapshot is written to `target/BENCH_hotpath.json` (override with
//! `BENCH_HOTPATH_JSON`).

use std::fmt::Write as _;

use openmldb_exec::{ScanEntry, WindowAggSet};
use openmldb_online::PreAggregator;
use openmldb_types::{KeyValue, Value};
use openmldb_workload::{micro_rows, MicroConfig};

use crate::alloc_counter;
use crate::harness::{fmt, print_table, scaled, time_each, LatencyStats};
use crate::scenarios::{micro_db, micro_request, micro_sql};

/// Required allocation reduction of the streaming scan path over the
/// materializing baseline.
pub const MIN_ALLOC_REDUCTION: f64 = 2.0;

const FRAME_MS: i64 = 60_000;

/// Latency + allocation profile of one request variant.
#[derive(Debug, Clone)]
pub struct PathStats {
    pub stats: LatencyStats,
    pub allocs_per_request: f64,
}

#[derive(Debug, Clone)]
pub struct HotpathResult {
    pub requests: usize,
    pub streaming: PathStats,
    pub materialized: PathStats,
    pub preagg: PathStats,
    /// `materialized.allocs_per_request / streaming.allocs_per_request`.
    pub alloc_reduction: f64,
    /// Allocations of one warm scan→view→aggregate stage pass (must be 0).
    pub stage_allocs_after_warm: u64,
    pub gate_failed: bool,
    pub json: String,
}

pub fn run() -> HotpathResult {
    let rows = scaled(20_000);
    let keys = 20usize;
    let requests = scaled(2_000);

    let db = micro_db(rows, keys, 0.0, 0);
    let sql = micro_sql(1, 0, FRAME_MS, false);
    db.deploy(&format!("DEPLOY f_hot AS {sql}")).unwrap();
    let dep = db.deployment("f_hot").unwrap();
    // Anchor requests just past the generated history (ts_step_ms = 10) so
    // every window scan covers real rows, like fig06.
    let max_ts = rows as i64 * 10;
    let request_at = |i: usize| {
        micro_request(
            3_000_000 + i as i64,
            (i % keys) as i64,
            max_ts + (i % 100) as i64,
        )
    };

    // Pre-aggregated variant of the same deployment. `micro_db` seeds t1
    // with seed 42, so regenerating the same config replays its rows.
    let data = micro_rows(&MicroConfig {
        rows,
        distinct_keys: keys,
        key_skew: 0.0,
        seed: 42,
        ..Default::default()
    });
    let q = &dep.query;
    let preagg = PreAggregator::new(&q.windows[0], &q.aggregates, vec![FRAME_MS / 100]).unwrap();
    for row in &data {
        preagg.ingest(row).unwrap();
    }
    let preagg_dep = openmldb_online::Deployment::new("f_hot_pre", q.clone(), &db)
        .unwrap()
        .with_preagg(0, preagg);

    // The three paths agree before anything is measured.
    for i in 0..3 {
        let r = request_at(i * 7);
        let a = openmldb_online::execute_request(&db, &dep, &r).unwrap();
        let b = openmldb_online::execute_request_materialized(&db, &dep, &r).unwrap();
        assert_eq!(a, b, "streaming and materialized paths diverged");
        // Bucketed summation reorders float adds, so the preagg path is
        // compared with a relative tolerance rather than bit equality.
        let c = openmldb_online::execute_request(&db, &preagg_dep, &r).unwrap();
        for (x, y) in a.values().iter().zip(c.values()) {
            match (x, y) {
                (Value::Double(p), Value::Double(q)) => {
                    assert!(
                        (p - q).abs() / p.abs().max(1.0) < 1e-9,
                        "preagg: {p} vs {q}"
                    )
                }
                _ => assert_eq!(x, y, "preagg path diverged"),
            }
        }
    }

    let measure = |f: &mut dyn FnMut(usize)| -> PathStats {
        // Warm-up: fills scratch pools, histograms, and thread-locals.
        for i in 0..32 {
            f(i);
        }
        let before = alloc_counter::allocations();
        let samples = time_each(requests, &mut *f);
        let allocs = alloc_counter::allocations() - before;
        PathStats {
            stats: LatencyStats::from_samples(samples),
            allocs_per_request: allocs as f64 / requests as f64,
        }
    };

    let streaming = measure(&mut |i| {
        openmldb_online::execute_request(&db, &dep, &request_at(i)).unwrap();
    });
    let materialized = measure(&mut |i| {
        openmldb_online::execute_request_materialized(&db, &dep, &request_at(i)).unwrap();
    });
    let preagg_stats = measure(&mut |i| {
        openmldb_online::execute_request(&db, &preagg_dep, &request_at(i)).unwrap();
    });

    let alloc_reduction = materialized.allocs_per_request / streaming.allocs_per_request.max(1e-9);
    let stage_allocs_after_warm = stage_alloc_pass(&db, q, max_ts);
    let gate_failed = alloc_reduction < MIN_ALLOC_REDUCTION || stage_allocs_after_warm > 0;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"hotpath\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"frame_ms\": {FRAME_MS},");
    for (name, p) in [
        ("streaming", &streaming),
        ("materialized", &materialized),
        ("preagg", &preagg_stats),
    ] {
        let _ = writeln!(
            json,
            "  \"{name}\": {{\"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"mean_ms\": {:.6}, \"qps\": {:.1}, \"allocs_per_request\": {:.2}}},",
            p.stats.p50_ms, p.stats.p99_ms, p.stats.mean_ms, p.stats.qps, p.allocs_per_request
        );
    }
    let _ = writeln!(
        json,
        "  \"p50_speedup_vs_materialized\": {:.3},",
        materialized.stats.p50_ms / streaming.stats.p50_ms.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"p99_speedup_vs_materialized\": {:.3},",
        materialized.stats.p99_ms / streaming.stats.p99_ms.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"alloc_reduction_vs_materialized\": {alloc_reduction:.3},"
    );
    let _ = writeln!(
        json,
        "  \"stage_allocs_after_warm\": {stage_allocs_after_warm},"
    );
    let _ = writeln!(
        json,
        "  \"gate\": {{\"min_alloc_reduction\": {MIN_ALLOC_REDUCTION:.1}, \"passed\": {}}}",
        !gate_failed
    );
    json.push_str("}\n");

    let path =
        std::env::var("BENCH_HOTPATH_JSON").unwrap_or_else(|_| "target/BENCH_hotpath.json".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("hotpath snapshot written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    let table: Vec<Vec<String>> = [
        ("streaming", &streaming),
        ("materialized", &materialized),
        ("preagg", &preagg_stats),
    ]
    .iter()
    .map(|(name, p)| {
        vec![
            name.to_string(),
            fmt(p.stats.p50_ms),
            fmt(p.stats.p99_ms),
            format!("{:.0}", p.stats.qps),
            format!("{:.1}", p.allocs_per_request),
        ]
    })
    .collect();
    print_table(
        &format!(
            "Hotpath: request path allocation discipline ({requests} requests, \
             alloc reduction {alloc_reduction:.1}x, stage allocs {stage_allocs_after_warm})"
        ),
        &["path", "p50 ms", "p99 ms", "qps", "allocs/req"],
        &table,
    );

    HotpathResult {
        requests,
        streaming,
        materialized,
        preagg: preagg_stats,
        alloc_reduction,
        stage_allocs_after_warm,
        gate_failed,
        json,
    }
}

/// One warm pass of the zero-materialization stage — seek-then-visit scan
/// into a byte arena, `(ts, seq)` sort, `RowView` reads feeding
/// `update_view`, `outputs_into` — measured for allocations. Buffers and
/// aggregate state are warmed by two untimed passes first.
fn stage_alloc_pass(
    provider: &dyn openmldb_online::TableProvider,
    q: &openmldb_sql::plan::CompiledQuery,
    max_ts: i64,
) -> u64 {
    let table = provider.table("t1").expect("t1 registered");
    let index = table.find_index(&[1], Some(5)).expect("by_k index");
    let codec = openmldb_types::CompactCodec::new(q.base_schema.clone());
    let refs: Vec<_> = q.aggregates.iter().collect();
    let mut set = WindowAggSet::new(&refs).unwrap();
    let mut arena: Vec<u8> = Vec::new();
    let mut entries: Vec<ScanEntry> = Vec::new();
    let mut outputs: Vec<Value> = Vec::new();
    let key = [KeyValue::Int(0)];

    let mut pass = || {
        set.reset();
        arena.clear();
        entries.clear();
        outputs.clear();
        let mut seq = 0usize;
        table
            .scan_window(
                index,
                &key,
                max_ts - FRAME_MS,
                max_ts,
                None,
                &mut |ts, data| {
                    let start = arena.len();
                    arena.extend_from_slice(data);
                    entries.push(ScanEntry {
                        ts,
                        seq,
                        start,
                        len: data.len(),
                    });
                    seq += 1;
                    true
                },
            )
            .unwrap();
        entries.sort_unstable_by_key(|e| (e.ts, e.seq));
        for e in &entries {
            let view = codec.view(e.bytes(&arena)).unwrap();
            set.update_view(&view).unwrap();
        }
        set.outputs_into(&mut outputs);
        assert!(!entries.is_empty(), "stage pass must scan real rows");
    };
    pass();
    pass();
    alloc_counter::count(pass).1
}

#[cfg(test)]
mod tests {
    #[test]
    fn streaming_path_halves_allocations_and_stage_is_allocation_free() {
        let result = crate::harness::with_scale(0.1, super::run);
        assert!(
            !result.gate_failed,
            "alloc reduction {:.2}x (need >= {:.1}), stage allocs {}",
            result.alloc_reduction,
            super::MIN_ALLOC_REDUCTION,
            result.stage_allocs_after_warm
        );
        assert_eq!(result.stage_allocs_after_warm, 0);
        assert!(result.json.contains("\"experiment\": \"hotpath\""));
    }
}
