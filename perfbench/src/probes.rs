//! Layer probes of the traced run.
//!
//! Each probe calls one layer's public functions inside spans recorded by
//! the benchmark and turns the spans' self time and the layer's own counters
//! into per-layer metrics. Every workload's traced run reports every
//! per-layer metric: a layer the workload runs is probed with the
//! workload's own configuration and inputs; a layer it does not run is
//! probed on this seed's stock stream with the configuration of the
//! workload that owns it (the `filter_int8` model, the `cep_multiquery`
//! pipeline, the `serve_wire` fleet).

use crate::batch::{self, parallelism, stock};
use crate::serve;
use crate::spans::Recorder;
use crate::stats::{Metrics, Samples};
use crate::Outcome;
use dlacep_cep::engine::CepEngine;
use dlacep_cep::{NfaConfig, NfaEngine, PatternSet};
use dlacep_core::pipeline::Dlacep;
use dlacep_core::trainer::TrainConfig;
use dlacep_core::{AssemblerConfig, Filter, PassthroughFilter, QuantizedFilter, StreamingDlacep};
use dlacep_events::PrimitiveEvent;
use dlacep_nn::quant::ScratchArena;
use dlacep_serve::{encode_msg, FrameReader, WireMsg};
use std::collections::BTreeMap;
use std::time::Instant;

/// Events in the stream the serving-tier probes run on.
const SERVE_PROBE_EVENTS: usize = 16_384;
/// Repetitions of the short CEP probes; the median is reported.
const CEP_REPS: usize = 3;
const COMPILE_REPS: usize = 10;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Embedding and int8 inference of the learned filter over the windows of
/// `events`: `EventEmbedder::embed_window`, then
/// `QuantizedEventNetwork::mark_into` on the pre-embedded windows.
pub fn filter_model(
    rec: &Recorder,
    model: &QuantizedFilter,
    assembler: &AssemblerConfig,
    events: &[PrimitiveEvent],
    m: &mut Metrics,
) {
    let windows: Vec<&[PrimitiveEvent]> = assembler.windows(events).collect();
    let pass = rec.new_pass();
    let root = rec.open("probe.filter_model", None, pass);
    let embedded: Vec<Vec<Vec<f32>>> = windows
        .iter()
        .map(|w| {
            rec.child("core.embed.embed_window", &root, || {
                model.embedder().embed_window(w, w.len())
            })
        })
        .collect();
    let mut arena = ScratchArena::default();
    let mut marks = Vec::new();
    for e in &embedded {
        rec.child("nn.quant.mark_into", &root, || {
            model.network().mark_into(e, &mut arena, &mut marks)
        });
    }
    rec.close(root);
    let n = windows.len() as f64;
    m.set(
        "core.embed.us_per_window",
        rec.pass_total_ns("core.embed.embed_window", pass) as f64 / n / 1e3,
        "us",
    );
    m.set(
        "nn.quant.us_per_window",
        rec.pass_total_ns("nn.quant.mark_into", pass) as f64 / n / 1e3,
        "us",
    );
    // Multiply-accumulates per window, computed from the tensor shapes of
    // the `TrainConfig::quick` network (not counted by the kernels): per
    // timestep, every BiLSTM layer runs 4 gates × hidden outputs over
    // (input + hidden) inputs in both directions, and the emission layer
    // maps 2 × hidden to 2 labels. The CRF head is O(labels²) per step and
    // left out.
    let cfg = TrainConfig::quick();
    let h = cfg.hidden as f64;
    let mut per_step = 0.0;
    let mut input = model.network().input_dim() as f64;
    for _ in 0..cfg.layers {
        per_step += 2.0 * 4.0 * h * (input + h);
        input = 2.0 * h;
    }
    per_step += 2.0 * h * 2.0;
    let steps: usize = windows.iter().map(|w| w.len()).sum();
    m.set(
        "nn.quant.macs_per_window",
        per_step * steps as f64 / n,
        "count",
    );
}

/// The workload's own filter over its assembler windows (`Filter::mark`),
/// with the pipeline's relay rule: marked events of every window, each
/// relayed once, all of a window's events when its marks are malformed.
/// Returns the relayed stream in id order.
pub fn own_filter<F: Filter>(
    rec: &Recorder,
    filter: &F,
    assembler: &AssemblerConfig,
    events: &[PrimitiveEvent],
    m: &mut Metrics,
) -> Vec<PrimitiveEvent> {
    let pass = rec.new_pass();
    let root = rec.open("probe.own_filter", None, pass);
    let mut windows = 0u64;
    let mut marked = 0usize;
    let mut seen = 0usize;
    let mut relayed: BTreeMap<u64, &PrimitiveEvent> = BTreeMap::new();
    for w in assembler.windows(events) {
        let marks = rec.child("core.filter.mark", &root, || filter.mark(w));
        windows += 1;
        seen += w.len();
        let ok = marks.len() == w.len();
        for (i, ev) in w.iter().enumerate() {
            if !ok || marks[i] {
                relayed.insert(ev.id.0, ev);
            }
        }
        marked += marks.iter().filter(|&&b| b).count();
    }
    rec.close(root);
    // Every `Filter::mark` call the run recorded: the traced pipeline
    // passes' and this probe's.
    let t = rec.totals();
    let mark = t.get("core.filter.mark").copied().unwrap_or_default();
    m.set(
        "core.filter.us_per_window",
        mark.self_ns as f64 / mark.count.max(1) as f64 / 1e3,
        "us",
    );
    m.set("core.assembler.windows", windows as f64, "count");
    m.set(
        "core.filter.marked_frac",
        marked as f64 / seen as f64,
        "ratio",
    );
    m.set(
        "core.pipeline.relayed_frac",
        relayed.len() as f64 / events.len() as f64,
        "ratio",
    );
    relayed.into_values().cloned().collect()
}

/// The CEP layers: shared-plan compile (`PatternSet::compile`), the fused
/// `NfaEngine` over the relayed stream, `SharedPlan::attribute_all`, and
/// the exact reference (one `NfaEngine` per pattern over the raw stream).
/// `pipeline_ms` is the workload's untraced pass time, the base of
/// `cep.ecep.gain`.
pub fn cep(
    rec: &Recorder,
    set: &PatternSet,
    relayed: &[PrimitiveEvent],
    raw: &[PrimitiveEvent],
    pipeline_ms: f64,
    out: &mut Outcome,
) {
    let pass = rec.new_pass();
    let root = rec.open("probe.cep", None, pass);
    let mut compile = Samples::new();
    let mut shared = None;
    for _ in 0..COMPILE_REPS {
        let s = rec.open("cep.share.compile", Some(&root), pass);
        shared = Some(set.compile().expect("workload compiles"));
        compile.push(ms(rec.close(s)));
    }
    let shared = shared.expect("compiled at least once");
    let mut nfa = Samples::new();
    let mut attribute = Samples::new();
    let mut stats = None;
    let mut attributed = None;
    for _ in 0..CEP_REPS {
        let mut engine = shared.engine(NfaConfig::default());
        let s = rec.open("cep.nfa.run", Some(&root), pass);
        let fused = engine.run(relayed);
        nfa.push(ms(rec.close(s)));
        stats = Some(*engine.stats());
        let s = rec.open("cep.share.attribute_all", Some(&root), pass);
        attributed = Some(shared.attribute_all(&fused));
        attribute.push(ms(rec.close(s)));
    }
    let stats = stats.expect("ran at least once");
    let attributed = attributed.expect("ran at least once");
    let s = rec.open("cep.ecep.run", Some(&root), pass);
    let mut ecep_partials = 0u64;
    let mut exact_per_pattern = Vec::new();
    for p in set.patterns() {
        let mut engine = NfaEngine::new(p).expect("workload compiles");
        exact_per_pattern.push(engine.run(raw).len());
        ecep_partials += engine.stats().partial_matches_created;
    }
    let ecep_ms = ms(rec.close(s));
    rec.close(root);
    out.check(
        attributed
            .per_pattern
            .iter()
            .zip(&exact_per_pattern)
            .all(|(a, &e)| a.len() <= e),
        "no pattern finds more matches on the relayed stream than on the raw one",
    );

    let m = &mut out.metrics;
    let report = shared.report();
    m.set("cep.share.compile_ms", compile.median(), "ms");
    m.set("cep.share.units", report.units as f64, "count");
    m.set(
        "cep.share.branches_merged",
        report.branches_merged as f64,
        "count",
    );
    m.set("cep.nfa.ms", nfa.median(), "ms");
    m.set(
        "cep.nfa.events_processed",
        stats.events_processed as f64,
        "count",
    );
    m.set(
        "cep.nfa.partials_created",
        stats.partial_matches_created as f64,
        "count",
    );
    m.set(
        "cep.nfa.condition_evals",
        stats.condition_evaluations as f64,
        "count",
    );
    m.set(
        "cep.nfa.match_yield",
        stats.matches_emitted as f64 / stats.partial_matches_created as f64,
        "ratio",
    );
    m.set("cep.share.attribute_ms", attribute.median(), "ms");
    m.set("cep.ecep.ms", ecep_ms, "ms");
    m.set("cep.ecep.partials_created", ecep_partials as f64, "count");
    m.set("cep.ecep.gain", ecep_ms / pipeline_ms, "ratio");
    out.note(
        "cep_bases",
        format!(
            "{{\"match_yield\": \"matches_emitted {} / partials_created {}\", \
             \"ecep_gain\": \"exact CEP on the raw stream {ecep_ms} ms / untraced pipeline pass {pipeline_ms} ms\"}}",
            stats.matches_emitted, stats.partial_matches_created
        ),
    );
}

/// Train and quantize the `filter_int8` model on this seed's stream, then
/// probe its embedding and int8 inference over `events` (for workloads
/// whose own filter is not learned).
pub fn trained_model(rec: &Recorder, seed: u64, events: &[PrimitiveEvent], m: &mut Metrics) {
    let stream = stock(seed, batch::FILTER_EVENTS);
    let pass = rec.new_pass();
    let root = rec.open("probe.trainer", None, pass);
    let trained = batch::train_int8(&stream, Some((rec, &root)));
    rec.close(root);
    m.set("core.trainer.train_s", trained.train_s, "s");
    m.set("core.trainer.epochs", trained.epochs as f64, "count");
    m.set("core.quantized.quantize_ms", trained.quantize_ms, "ms");
    let assembler = AssemblerConfig::paper_default(batch::filter_pattern().window_size());
    filter_model(rec, &trained.filter, &assembler, events, m);
}

/// Serial against 2-thread `Dlacep::run` of the `cep_multiquery` pipeline
/// on this seed's stream (median pass times, alternating).
fn par_speedup(seed: u64, out: &mut Outcome) {
    let events = stock(seed, batch::MQ_EVENTS);
    let build = |threads| {
        Dlacep::multi(batch::multiquery_set(), PassthroughFilter)
            .parallelism(parallelism(threads))
            .build()
            .expect("fig9g patterns compile")
    };
    let (serial, pooled) = (build(1), build(2));
    let a = serial.run(&events);
    let b = pooled.run(&events);
    out.check(
        a.matches.len() == b.matches.len() && a.events_relayed == b.events_relayed,
        "2-thread pass reproduces the serial pass",
    );
    let (mut s1, mut s2) = (Samples::new(), Samples::new());
    for _ in 0..CEP_REPS {
        let t = Instant::now();
        let _ = serial.run(&events);
        s1.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = pooled.run(&events);
        s2.push(t.elapsed().as_secs_f64());
    }
    out.metrics
        .set("par.speedup_2t", s1.median() / s2.median(), "ratio");
    out.note(
        "par_speedup_base",
        format!(
            "{{\"serial_s\": {}, \"two_threads_s\": {}, \"nproc\": {}}}",
            s1.median(),
            s2.median(),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    );
}

/// Wire codec: `encode_msg` and `FrameReader::read_msg` over the stream's
/// `Ingest` messages, in batches of one flush.
fn wire(rec: &Recorder, events: &[PrimitiveEvent], out: &mut Outcome) {
    let msgs: Vec<WireMsg> = events.iter().map(serve::ingest_msg).collect();
    let pass = rec.new_pass();
    let root = rec.open("probe.wire", None, pass);
    let mut buf = Vec::new();
    for chunk in msgs.chunks(serve::BATCH) {
        let frames: Vec<Vec<u8>> = rec.child("serve.wire.encode", &root, || {
            chunk.iter().map(encode_msg).collect()
        });
        for f in frames {
            buf.extend_from_slice(&f);
        }
    }
    let mut reader = FrameReader::new(std::io::Cursor::new(&buf));
    let mut decoded = Vec::with_capacity(msgs.len());
    for chunk in msgs.chunks(serve::BATCH) {
        rec.child("serve.wire.decode", &root, || {
            for _ in 0..chunk.len() {
                decoded.push(reader.read_msg());
            }
        });
    }
    rec.close(root);
    let round_trip = decoded.len() == msgs.len()
        && decoded
            .iter()
            .zip(&msgs)
            .all(|(d, m)| matches!(d, Ok(Some(x)) if x == m));
    out.check(
        round_trip,
        "every wire frame decodes to the message encoded",
    );
    let n = msgs.len() as f64;
    let m = &mut out.metrics;
    m.set(
        "serve.wire.encode_ns_per_event",
        rec.pass_total_ns("serve.wire.encode", pass) as f64 / n,
        "ns",
    );
    m.set(
        "serve.wire.decode_ns_per_event",
        rec.pass_total_ns("serve.wire.decode", pass) as f64 / n,
        "ns",
    );
    m.set("serve.wire.bytes_per_event", buf.len() as f64 / n, "B");
}

/// Mean duration of the spans named `name` in `pass`, in nanoseconds.
fn mean_ns(rec: &Recorder, name: &str, pass: u64, count: usize) -> f64 {
    rec.pass_total_ns(name, pass) as f64 / count.max(1) as f64
}

/// The in-process ingest channel: `ServeHandle::ingest` per event (an
/// enqueue onto the pump) and `ServeHandle::sync` after each batch (waits
/// for the pump to apply the batch and fsync). Returns the largest queue
/// depth seen after a batch was enqueued.
fn channel(rec: &Recorder, events: &[PrimitiveEvent], out: &mut Outcome) -> u64 {
    let (handle, pump) = dlacep_serve::spawn(serve::fresh_fleet(), serve::PUMP_CAPACITY);
    let pass = rec.new_pass();
    let root = rec.open("probe.channel", None, pass);
    let mut depth_max = 0;
    let mut syncs = 0;
    let mut ok = true;
    for chunk in events.chunks(serve::BATCH) {
        rec.child("serve.channel.ingest", &root, || {
            for ev in chunk {
                ok &= handle.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).is_ok();
            }
        });
        depth_max = depth_max.max(handle.queue_depth());
        ok &= rec
            .child("serve.channel.sync", &root, || handle.sync())
            .is_ok();
        syncs += 1;
    }
    rec.close(root);
    let offered = handle.stats().map(|s| s.offered);
    drop(handle);
    ok &= pump.finish().is_ok();
    out.check(
        ok && offered.ok() == Some(events.len() as u64),
        "the channel applies every event offered",
    );
    let m = &mut out.metrics;
    m.set(
        "serve.channel.ingest_ns_per_event",
        rec.pass_total_ns("serve.channel.ingest", pass) as f64 / events.len() as f64,
        "ns",
    );
    m.set(
        "serve.channel.sync_us",
        mean_ns(rec, "serve.channel.sync", pass, syncs) / 1e3,
        "us",
    );
    depth_max
}

/// The fleet itself, driven directly: `ShardedDlacep::ingest` per event,
/// `sync` after every batch and `checkpoint_now` at the fleet's checkpoint
/// cadence, each timed on its own (the probe fleet's automatic cadence is
/// off so the three do not hide inside one another).
fn fleet(rec: &Recorder, events: &[PrimitiveEvent], out: &mut Outcome) {
    let mut cfg = serve::fleet_config();
    let every = cfg.checkpoint_every_events as usize;
    cfg.sync_every_events = 0;
    cfg.checkpoint_every_events = 0;
    let mut fleet = serve::fleet_with(cfg);
    let pass = rec.new_pass();
    let root = rec.open("probe.fleet", None, pass);
    let (mut syncs, mut checkpoints) = (0, 0);
    let mut ok = true;
    for (i, chunk) in events.chunks(serve::BATCH).enumerate() {
        rec.child("serve.fleet.ingest", &root, || {
            for ev in chunk {
                ok &= fleet.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).is_ok();
            }
        });
        if ((i + 1) * serve::BATCH).is_multiple_of(every) {
            ok &= rec
                .child("serve.fleet.checkpoint", &root, || fleet.checkpoint_now())
                .is_ok();
            checkpoints += 1;
        } else {
            ok &= rec
                .child("serve.fleet.sync", &root, || fleet.sync())
                .is_ok();
            syncs += 1;
        }
    }
    rec.close(root);
    out.check(
        ok,
        "the probe fleet ingests, syncs and checkpoints without error",
    );
    let shards = fleet.shard_stats();
    let routed: Vec<f64> = shards.iter().map(|s| s.events_routed as f64).collect();
    let mean = routed.iter().sum::<f64>() / routed.len() as f64;
    let m = &mut out.metrics;
    m.set(
        "serve.fleet.ingest_ns_per_event",
        rec.pass_total_ns("serve.fleet.ingest", pass) as f64 / events.len() as f64,
        "ns",
    );
    m.set(
        "serve.fleet.sync_us",
        mean_ns(rec, "serve.fleet.sync", pass, syncs) / 1e3,
        "us",
    );
    m.set(
        "serve.fleet.checkpoint_ms",
        mean_ns(rec, "serve.fleet.checkpoint", pass, checkpoints) / 1e6,
        "ms",
    );
    m.set(
        "serve.fleet.shard_skew",
        routed.iter().cloned().fold(0.0, f64::max) / mean,
        "ratio",
    );
    m.set(
        "serve.fleet.wal_appends",
        shards.iter().map(|s| s.wal_appends).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "serve.fleet.checkpoints",
        shards.iter().map(|s| s.checkpoints).sum::<u64>() as f64,
        "count",
    );
}

/// One `StreamingDlacep` per key with no fleet around it:
/// `ingest_batch` with each key's events, a flush-sized batch at a time.
fn runtime(rec: &Recorder, events: &[PrimitiveEvent], out: &mut Outcome) {
    let extractor = serve::fleet_config().key_extractor;
    let mut per_key: BTreeMap<u64, Vec<PrimitiveEvent>> = BTreeMap::new();
    for ev in events {
        per_key
            .entry(extractor.key_of(ev.type_id, &ev.attrs))
            .or_default()
            .push(ev.clone());
    }
    let pass = rec.new_pass();
    let root = rec.open("probe.runtime", None, pass);
    let mut ok = true;
    for evs in per_key.values() {
        let mut rt = StreamingDlacep::builder(serve::serve_pattern(), PassthroughFilter)
            .config(serve::fleet_config().runtime)
            .build()
            .expect("serve pattern builds");
        for chunk in evs.chunks(serve::BATCH) {
            ok &= rec
                .child("core.runtime.ingest_batch", &root, || {
                    rt.ingest_batch(chunk)
                })
                .is_ok();
        }
    }
    rec.close(root);
    out.check(ok, "every key runtime ingests its events");
    out.metrics.set(
        "core.runtime.ingest_ns_per_event",
        rec.pass_total_ns("core.runtime.ingest_batch", pass) as f64 / events.len() as f64,
        "ns",
    );
}

/// Probes every workload runs on this seed's stream: the 2-thread
/// pipeline and the serving-tier layers. Sets every `serve.*` layer metric
/// (the `serve_wire` run then overrides the ones its own run measures) and
/// returns the channel probe's largest queue depth.
pub fn shared_layers(rec: &Recorder, seed: u64, out: &mut Outcome) -> u64 {
    par_speedup(seed, out);
    let events = stock(seed, SERVE_PROBE_EVENTS);
    wire(rec, &events, out);
    let depth = channel(rec, &events, out);
    fleet(rec, &events, out);
    runtime(rec, &events, out);
    depth
}
