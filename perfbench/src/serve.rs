//! The `serve_wire` workload: a `WireServer` in front of `serve::spawn`
//! over a 2-shard `ShardedDlacep`, loaded from this process through one TCP
//! connection by two generator threads — a scheduled writer (events plus a
//! `Flush` per batch of 64) and a reader for the `Summary` replies.
//!
//! Three phases: `light` and `heavy` are open loops at fixed rates, each
//! batch timed from when it was due to when its `Summary` arrived;
//! `saturate` is a closed loop with a fixed window of outstanding flushes
//! and gives the throughput. The client socket is opened the way
//! `WireClient::connect` opens it (plain `TcpStream::connect`), and neither
//! the resilient client's reconnect path nor the chaos proxy is used.

use crate::batch::{self, parallelism, stock};
use crate::probes;
use crate::spans::Recorder;
use crate::stats::{json_num, Samples};
use crate::{Outcome, RunConfig};
use dlacep_cep::{Pattern, PatternExpr, PatternSet, TypeSet};
use dlacep_core::pipeline::Dlacep;
use dlacep_core::{AssemblerConfig, PassthroughFilter, RuntimeConfig};
use dlacep_dur::{MemStore, WalConfig};
use dlacep_events::{KeyExtractor, PrimitiveEvent, Timestamp, TypeId, WindowSpec};
use dlacep_serve::{
    encode_msg, FleetConfig, FrameReader, RunningServer, ServeHandle, ServePump, ServerConfig,
    ShardedDlacep, WireMsg, WireServer, DEFAULT_HASH_SEED,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Events per `Flush`.
pub const BATCH: usize = 64;
/// Pump channel capacity, above `SHED_HIGH_WATER` so overload shows up as
/// counted shed events rather than as a writer silently blocked on a full
/// channel.
pub const PUMP_CAPACITY: usize = 8_192;
const SHED_HIGH_WATER: u64 = 4_096;
/// Open-loop rates (events/s): about 7% and 14% of the `saturate` rate
/// (≈ 140k events/s) on a 2-core x86-64 container. A fleet's capacity
/// falls as it ages, and the heavy phase takes 144k events on one server:
/// at 36k events/s that server fell behind before the phase ended, and the
/// phase's median moved from run to run.
pub const LIGHT_EPS: f64 = 10_000.0;
pub const HEAVY_EPS: f64 = 20_000.0;
/// Outstanding flushes in the closed-loop `saturate` phase. The server
/// takes one flush at a time per connection, so the window only keeps
/// batches waiting in the socket; it is deep enough (about 50 ms of work)
/// that a `Summary` held back by Nagle's algorithm and a delayed ACK does
/// not leave the server idle.
pub const SATURATE_WINDOW: u64 = 64;
/// Set-ups per block; a run times a block before the warm-up and after
/// every phase, and `setup_s` is the median of them all. Spreading the
/// blocks over the run keeps one slow stretch of the host from setting it.
const SETUP_BLOCK: usize = 40;
const WARMUP: Duration = Duration::from_millis(500);
/// Shares of the measured time given to the open-loop `light` and `heavy`
/// phases; `saturate` takes about the rest.
const OPEN_SHARES: [f64; 2] = [0.45, 0.30];
/// Batches of each closed-loop `saturate` segment (64k events, about 1 s
/// on a 2-core x86-64 container). A fixed amount of work, not a duration,
/// because the fleet's state — and so its speed — depends on how many
/// events it has taken. Three segments, before, between and after the
/// open-loop phases, spread the measurement over the run: the host's speed
/// drifts over tens of seconds.
const SATURATE_BATCHES: usize = 1_000;
/// Give up on a closed loop that takes longer than this.
const CLOSED_LOOP_CAP: Duration = Duration::from_secs(60);
/// Distinct events generated; the stream repeats them with shifted
/// timestamps.
const TILE_EVENTS: usize = 16_384;
/// Beyond this p99 of its own lateness the generator, not the server, set
/// the pace, and the run is invalid: the scheduling jitter of a loaded
/// 2-core machine stays below it, and it is a quarter of the light-phase
/// p99 acknowledgement time it would otherwise inflate.
const GEN_LATE_LIMIT_MS: f64 = 8.0;
/// How long the reader waits for a reply before giving up on the server.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// `SEQ(a, b, c)` over types 0, 1, 2 with a count window of 12; with
/// `ByTypeGroup(4)` keys all three types fall into one key.
pub fn serve_pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
            PatternExpr::event(TypeSet::single(TypeId(2)), "c"),
        ]),
        vec![],
        WindowSpec::Count(12),
    )
}

/// The pinned fleet: 2 shards, serial per-key runtimes, sync every flush,
/// checkpoint every 4096 events, no per-key metrics registries.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        hash_seed: DEFAULT_HASH_SEED,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        runtime: RuntimeConfig {
            parallelism: parallelism(1),
            ..RuntimeConfig::default()
        },
        wal: WalConfig {
            segment_max_bytes: 64 * 1024,
            sync_every: 0,
        },
        sync_every_events: 64,
        checkpoint_every_events: 4_096,
        keep_checkpoints: 2,
        obs: false,
        journal_capacity: 256,
    }
}

/// The pinned front door (library defaults, written out, except the shed
/// high-water mark, which sits below the pump capacity).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_conns: 64,
        read_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_secs(5),
        shed_high_water: SHED_HIGH_WATER,
        shed_retry_after_ms: 50,
    }
}

pub type Fleet = ShardedDlacep<PassthroughFilter, MemStore>;

pub fn fleet_with(cfg: FleetConfig) -> Fleet {
    let shards = cfg.shards;
    ShardedDlacep::create(
        serve_pattern(),
        cfg,
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        (0..shards).map(|_| MemStore::new()).collect(),
    )
    .expect("a fresh fleet over empty stores")
}

pub fn fresh_fleet() -> Fleet {
    fleet_with(fleet_config())
}

pub fn ingest_msg(ev: &PrimitiveEvent) -> WireMsg {
    WireMsg::Ingest {
        type_id: ev.type_id,
        ts: ev.ts.0,
        attrs: ev.attrs.clone(),
    }
}

/// The workload's event stream: `TILE_EVENTS` stock events of the seed,
/// repeated with each repetition's timestamps shifted past the previous
/// one, so any prefix is an ordered stream.
struct Stream {
    tile: Vec<PrimitiveEvent>,
    span: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let tile = stock(seed, TILE_EVENTS);
        let span = tile.last().map_or(0, |e| e.ts.0) + 1;
        Self { tile, span }
    }

    fn at(&self, i: usize) -> PrimitiveEvent {
        let mut ev = self.tile[i % self.tile.len()].clone();
        ev.ts = Timestamp(ev.ts.0 + (i / self.tile.len()) as u64 * self.span);
        ev
    }

    /// Frames of batch `b`: its events' `Ingest` messages plus a `Flush`.
    fn batch_bytes(&self, b: usize, out: &mut Vec<u8>) {
        out.clear();
        for i in b * BATCH..(b + 1) * BATCH {
            out.extend_from_slice(&encode_msg(&ingest_msg(&self.at(i))));
        }
        out.extend_from_slice(&encode_msg(&WireMsg::Flush));
    }
}

/// A server under test and the client socket connected to it.
struct Served {
    handle: ServeHandle,
    pump: ServePump<PassthroughFilter, MemStore>,
    server: RunningServer,
    conn: TcpStream,
}

fn serve_up() -> Served {
    let (handle, pump) = dlacep_serve::spawn(fresh_fleet(), PUMP_CAPACITY);
    let server = WireServer::bind_with("127.0.0.1:0", handle.clone(), server_config())
        .and_then(WireServer::spawn)
        .expect("bind a loopback port");
    let conn = TcpStream::connect(server.addr()).expect("connect to the local server");
    Served {
        handle,
        pump,
        server,
        conn,
    }
}

/// What the server reported when it shut down.
struct Teardown {
    wal_appends: u64,
    checkpoints: u64,
    ok: bool,
}

fn tear_down(s: Served) -> Teardown {
    let _ = s.conn.shutdown(std::net::Shutdown::Both);
    drop(s.conn);
    let stopped = s.server.stop();
    drop(s.handle);
    let report = s.pump.finish();
    let ok = stopped.is_ok_and(|r| r.final_barrier_error.is_none()) && report.is_ok();
    let (mut wal_appends, mut checkpoints) = (0, 0);
    if let Ok(r) = report {
        for s in &r.shards {
            wal_appends += s.stats.wal_appends;
            checkpoints += s.stats.checkpoints;
        }
    }
    Teardown {
        wal_appends,
        checkpoints,
        ok,
    }
}

/// How one phase offers load.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// Open loop for a duration: a batch is due every `BATCH / eps`
    /// seconds whatever the server does.
    Open { eps: f64, dur: Duration },
    /// Closed loop over a fixed number of batches: a batch is sent
    /// whenever fewer than `window` flushes are outstanding.
    Closed { window: u64, batches: usize },
}

/// One batch the writer sent and the reader awaits the reply to.
struct Pending {
    due: Instant,
    /// Events sent up to and including this batch.
    offered: u64,
}

/// What one phase, on its own fresh server, measured.
#[derive(Default)]
struct PhaseRun {
    ack_ms: Samples,
    /// The writer's own lateness in an open loop: wake-up time minus the
    /// later of the batch's due time and the end of the previous write (a
    /// write blocked by the server is the server's delay, not the
    /// generator's).
    late_ms: Samples,
    sent: u64,
    acked: u64,
    /// From the phase's start to its last acknowledgement.
    secs: f64,
    /// Match count of the last `Summary`.
    last_matches: u64,
    offered_mismatch: u64,
    bad_replies: u64,
    queue_depth_max: u64,
    shed: u64,
    teardown: Option<Teardown>,
}

/// `saturate` throughput: events acknowledged over the time the segments
/// took, each from its start to its last acknowledgement. Each segment is
/// a fixed amount of work on a fresh fleet, so its state — and the
/// checkpoint cost that grows with it — follows the same path every run.
fn saturate_eps(segments: &[&PhaseRun]) -> f64 {
    let acked: u64 = segments.iter().map(|p| p.acked).sum();
    let secs: f64 = segments.iter().map(|p| p.secs).sum();
    acked as f64 / secs
}

/// Acknowledged batches, shared by the reader (writes) and the writer in
/// the closed loop (waits).
#[derive(Default)]
struct Acks {
    count: Mutex<u64>,
    cv: Condvar,
}

/// Run one phase on a fresh server, so every phase starts from an empty
/// fleet whatever ran before it.
fn run_phase(stream: &Stream, load: Load, rec: Option<&Recorder>) -> PhaseRun {
    let served = serve_up();
    let (tx, rx) = mpsc::channel::<Pending>();
    let acks = Acks::default();
    let broken = AtomicBool::new(false);
    let mut reader_stream = served.conn.try_clone().expect("clone the client socket");
    reader_stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a read timeout");
    let mut writer_stream = served.conn.try_clone().expect("clone the client socket");
    let start = Instant::now();

    let mut run = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut run = PhaseRun::default();
            let mut frames = FrameReader::new(&mut reader_stream);
            for p in rx {
                let span = rec.map(|r| r.open("gen.read_reply", None, r.new_pass()));
                let reply = frames.read_msg();
                if let (Some(r), Some(s)) = (rec, span) {
                    r.close(s);
                }
                let Ok(Some(WireMsg::Summary {
                    offered, matches, ..
                })) = reply
                else {
                    run.bad_replies += 1;
                    broken.store(true, Ordering::SeqCst);
                    acks.cv.notify_all();
                    break;
                };
                let now = Instant::now();
                run.offered_mismatch += u64::from(offered != p.offered);
                run.last_matches = matches;
                run.acked = p.offered;
                run.ack_ms
                    .push(now.saturating_duration_since(p.due).as_secs_f64() * 1e3);
                run.secs = now.duration_since(start).as_secs_f64();
                *acks.count.lock().expect("ack count lock") += 1;
                acks.cv.notify_all();
            }
            run
        });

        let writer = scope.spawn(|| {
            // The writer owns the sender: the reader stops once it ends.
            let tx = tx;
            let mut late_ms = Samples::new();
            let mut depth_max = 0u64;
            let mut buf = Vec::with_capacity(BATCH * 64);
            let mut sent = 0usize;
            let mut prev_end = start;
            loop {
                stream.batch_bytes(sent, &mut buf);
                let due = match load {
                    Load::Open { eps, dur } => {
                        let due = start + Duration::from_secs_f64(sent as f64 * BATCH as f64 / eps);
                        if due.duration_since(start) >= dur {
                            break;
                        }
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        late_ms.push(
                            Instant::now()
                                .saturating_duration_since(due.max(prev_end))
                                .as_secs_f64()
                                * 1e3,
                        );
                        due
                    }
                    Load::Closed { window, batches } => {
                        if sent == batches || start.elapsed() > CLOSED_LOOP_CAP {
                            break;
                        }
                        let mut acked = acks.count.lock().expect("ack count lock");
                        while sent as u64 - *acked >= window && !broken.load(Ordering::SeqCst) {
                            acked = acks.cv.wait(acked).expect("ack count lock");
                        }
                        Instant::now()
                    }
                };
                sent += 1;
                let offered = (sent * BATCH) as u64;
                if tx.send(Pending { due, offered }).is_err() {
                    break;
                }
                let span = rec.map(|r| r.open("gen.write_batch", None, r.new_pass()));
                let ok = writer_stream.write_all(&buf).is_ok();
                if let (Some(r), Some(s)) = (rec, span) {
                    r.close(s);
                }
                prev_end = Instant::now();
                depth_max = depth_max.max(served.handle.queue_depth());
                if !ok || broken.load(Ordering::SeqCst) {
                    break;
                }
            }
            (late_ms, depth_max, sent)
        });

        let (late_ms, depth_max, sent) = writer.join().expect("writer thread");
        let mut run = reader.join().expect("reader thread");
        run.late_ms = late_ms;
        run.queue_depth_max = depth_max;
        run.sent = (sent * BATCH) as u64;
        run
    });
    run.shed = served.handle.obs().counter("serve_shed_events").get();
    run.teardown = Some(tear_down(served));
    run
}

/// Matches an in-process fleet finds on each requested prefix of the
/// stream, offered one event at a time as the pump offers them. The
/// reference fleet has the same routing and runtimes but no sync or
/// checkpoint cadence: durability does not change what matches.
fn reference_matches(stream: &Stream, prefixes: &[u64]) -> Vec<u64> {
    let mut cfg = fleet_config();
    cfg.sync_every_events = 0;
    cfg.checkpoint_every_events = 0;
    let mut fleet = fleet_with(cfg);
    let end = prefixes.iter().copied().max().unwrap_or(0);
    let mut at = std::collections::BTreeMap::new();
    at.insert(0, 0);
    for i in 0..end as usize {
        let ev = stream.at(i);
        fleet
            .ingest(ev.type_id, ev.ts.0, ev.attrs)
            .expect("in-process fleet ingests");
        if prefixes.contains(&(i as u64 + 1)) {
            at.insert(i as u64 + 1, fleet.stats().matches);
        }
    }
    prefixes.iter().map(|p| at[p]).collect()
}

/// Output checks over the measured phases, the operation counts, and the
/// recall of the served fleets against the in-process reference.
fn account(out: &mut Outcome, stream: &Stream, phases: &[(&str, &PhaseRun)]) -> f64 {
    let prefixes: Vec<u64> = phases.iter().map(|(_, p)| p.acked).collect();
    let reference = reference_matches(stream, &prefixes);
    let (mut found, mut expected) = (0u64, 0u64);
    for ((name, p), &r) in phases.iter().zip(&reference) {
        out.check(p.bad_replies == 0, "every flush is answered with a Summary");
        out.check(
            p.offered_mismatch == 0,
            "each Summary.offered equals the events sent so far",
        );
        out.check(
            p.teardown.as_ref().is_some_and(|t| t.ok),
            "the server stops cleanly with its final barrier",
        );
        out.check(
            r > 0 && p.last_matches == r,
            "final match count equals an in-process fleet on the same events",
        );
        found += p.last_matches;
        expected += r;
        out.note(
            &format!("serve_check.{name}"),
            format!(
                "{{\"sent\": {}, \"acked\": {}, \"matches\": {}, \"reference_matches\": {r}, \"shed\": {}}}",
                p.sent, p.acked, p.last_matches, p.shed
            ),
        );
        // An operation is an event; it fails when it is shed, refused or
        // never acknowledged.
        out.attempted += p.sent;
        out.failed += p.sent - p.acked.min(p.sent);
    }
    found as f64 / expected as f64
}

/// The generator's own lateness over the open-loop phases; past
/// `GEN_LATE_LIMIT_MS` at p99 the generator, not the server, fell behind
/// and the run is invalid.
fn generator_late(out: &mut Outcome, open: &[&PhaseRun]) -> Samples {
    let mut late = Samples::new();
    for p in open {
        for v in p.late_ms.values() {
            late.push(*v);
        }
    }
    out.check(
        late.quantile(0.99) <= GEN_LATE_LIMIT_MS,
        "the generator kept its schedule (own lateness p99 within the limit)",
    );
    out.note("gen_late_ms", late.describe());
    late
}

/// Time `SETUP_BLOCK` set-ups — fleet creation, pump spawn, bind and
/// connect — tearing each server down again untimed.
fn set_up_block(setup: &mut Samples, out: &mut Outcome) {
    for _ in 0..SETUP_BLOCK {
        let t0 = Instant::now();
        let s = serve_up();
        setup.push(t0.elapsed().as_secs_f64());
        out.check(tear_down(s).ok, "a set-up server stops cleanly");
    }
}

pub fn serve_wire(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    let stream = Stream::new(cfg.seed);

    let mut setup = Samples::new();
    set_up_block(&mut setup, &mut out);
    let _ = run_phase(
        &stream,
        Load::Open {
            eps: LIGHT_EPS,
            dur: WARMUP,
        },
        None,
    );
    out.note(
        "load",
        format!(
            "{{\"light_eps\": {}, \"heavy_eps\": {}, \"saturate_window\": {SATURATE_WINDOW}, \"saturate_batches\": {SATURATE_BATCHES}, \"batch\": {BATCH}}}",
            json_num(LIGHT_EPS),
            json_num(HEAVY_EPS)
        ),
    );
    let open = |eps: f64, share: f64, budget: Duration| Load::Open {
        eps,
        dur: budget.mul_f64(share),
    };
    let closed = |batches| Load::Closed {
        window: SATURATE_WINDOW,
        batches,
    };

    match &cfg.trace {
        None => {
            let b = cfg.budget;
            let mut phase = |load| {
                let p = run_phase(&stream, load, None);
                set_up_block(&mut setup, &mut out);
                p
            };
            let sat_a = phase(closed(SATURATE_BATCHES));
            let light = phase(open(LIGHT_EPS, OPEN_SHARES[0], b));
            let sat_b = phase(closed(SATURATE_BATCHES));
            let heavy = phase(open(HEAVY_EPS, OPEN_SHARES[1], b));
            let sat_c = phase(closed(SATURATE_BATCHES));
            let phases = [
                ("light", &light),
                ("heavy", &heavy),
                ("saturate_a", &sat_a),
                ("saturate_b", &sat_b),
                ("saturate_c", &sat_c),
            ];
            let recall = account(&mut out, &stream, &phases);
            generator_late(&mut out, &[&light, &heavy]);
            for (name, p) in phases {
                out.note(&format!("ack_ms.{name}"), p.ack_ms.describe());
            }
            out.note("setup_s", setup.describe());
            let m = &mut out.metrics;
            m.set("recall", recall, "ratio");
            m.set(
                "throughput_eps",
                saturate_eps(&[&sat_a, &sat_b, &sat_c]),
                "1/s",
            );
            m.set("ack_p50_ms.light", light.ack_ms.median(), "ms");
            m.set("ack_p50_ms.heavy", heavy.ack_ms.median(), "ms");
            m.set("setup_s", setup.median(), "s");
        }
        Some(rec) => {
            let b = cfg.budget / 2;
            let untraced = run_phase(&stream, closed(SATURATE_BATCHES), None);
            let light = run_phase(&stream, open(LIGHT_EPS, OPEN_SHARES[0], b), Some(rec));
            let heavy = run_phase(&stream, open(HEAVY_EPS, OPEN_SHARES[1], b), Some(rec));
            let sat = run_phase(&stream, closed(SATURATE_BATCHES), Some(rec));
            let phases = [("light", &light), ("heavy", &heavy), ("saturate", &sat)];
            let _ = account(&mut out, &stream, &phases);
            let late = generator_late(&mut out, &[&light, &heavy]);
            out.metrics.set(
                "trace.overhead_frac",
                1.0 - saturate_eps(&[&sat]) / saturate_eps(&[&untraced]),
                "ratio",
            );
            own_layers(rec, cfg.seed, &stream, &mut out);
            probes::shared_layers(rec, cfg.seed, &mut out);
            let (mut shed, mut wal_appends, mut checkpoints) = (0, 0, 0);
            for (_, p) in phases {
                shed += p.shed;
                let t = p.teardown.as_ref().expect("torn down");
                wal_appends += t.wal_appends;
                checkpoints += t.checkpoints;
            }
            let m = &mut out.metrics;
            m.set(
                "serve.channel.queue_depth_max",
                heavy.queue_depth_max as f64,
                "count",
            );
            m.set("serve.server.shed_events", shed as f64, "count");
            m.set("serve.fleet.wal_appends", wal_appends as f64, "count");
            m.set("serve.fleet.checkpoints", checkpoints as f64, "count");
            m.set("gen.late_p99_ms", late.quantile(0.99), "ms");
        }
    }
    out
}

/// Filter, pipeline and CEP layers for `serve_wire`: the fleet's
/// pattern with its pass-through filter over one tile of the stream, as a
/// batch pipeline (the per-key runtimes expose no layer boundary of their
/// own), plus the learned-filter layers from the `filter_int8` model.
fn own_layers(rec: &Arc<Recorder>, seed: u64, stream: &Stream, out: &mut Outcome) {
    let set = PatternSet::single(serve_pattern());
    let slice = [batch::Slice {
        dl: Dlacep::multi(set.clone(), PassthroughFilter)
            .parallelism(parallelism(1))
            .build()
            .expect("serve pattern compiles"),
        events: stream.tile.clone(),
    }];
    let (s, events) = (&slice[0], &stream.tile);
    let pass_ms = batch::pass_ms(s);
    let (_, glue_ms) = batch::traced_passes(rec, &slice, Duration::from_secs(1));
    out.metrics.set("core.pipeline.glue_ms", glue_ms, "ms");
    let assembler: AssemblerConfig = *s.dl.assembler();
    let relayed = probes::own_filter(rec, s.dl.filter(), &assembler, events, &mut out.metrics);
    probes::cep(rec, &set, &relayed, events, pass_ms, out);
    probes::trained_model(rec, seed, events, &mut out.metrics);
}
