//! A streaming runtime built against a caller-supplied obs registry must
//! build its metrics, pool and tracer there and nowhere else: no worker
//! pool spawned against the process-wide registry, and no zero-valued
//! `runtime.*` / `pool.*` series left behind in it. This is its own test
//! binary so no other test can write to the global registry.

use dlacep_cep::{PatternExpr, TypeSet};
use dlacep_core::filter::PassthroughFilter;
use dlacep_core::runtime::{RuntimeConfig, StreamingDlacep};
use dlacep_core::Parallelism;
use dlacep_events::{TypeId, WindowSpec};
use dlacep_obs::Registry;
use std::sync::Arc;

fn pattern() -> dlacep_cep::Pattern {
    dlacep_cep::Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(4),
    )
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        parallelism: Parallelism::with_threads(2),
        ..RuntimeConfig::default()
    }
}

/// Names of every `runtime.*` or `pool.*` series in the global registry.
fn global_runtime_series() -> Vec<String> {
    let snap = dlacep_obs::global().snapshot();
    snap.counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .filter(|n| n.starts_with("runtime.") || n.starts_with("pool."))
        .cloned()
        .collect()
}

#[test]
fn custom_registry_runtime_leaves_global_registry_untouched() {
    let registry = Arc::new(Registry::enabled());
    let mut rt = StreamingDlacep::builder(pattern(), PassthroughFilter)
        .config(config())
        .obs(Arc::clone(&registry))
        .build()
        .unwrap();
    for i in 0..32u64 {
        rt.ingest(TypeId((i % 3) as u32), i, vec![]).unwrap();
    }
    let ckpt = rt.checkpoint();
    let _restored = StreamingDlacep::builder(pattern(), PassthroughFilter)
        .config(config())
        .obs(Arc::clone(&registry))
        .restore(ckpt)
        .unwrap();

    let own = registry.snapshot();
    assert!(own.counters.contains_key("runtime.events_offered"));
    assert!(own.counters.keys().any(|n| n.starts_with("pool.")));
    assert_eq!(global_runtime_series(), Vec::<String>::new());
}
