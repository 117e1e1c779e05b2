//! Checkpoint/resume for in-flight scenario runs.
//!
//! `capture` folds a [`RunState`]'s complete simulator state — the stage
//! queues, every engine's records/pending arena/active set/KV manager, the
//! policy and think-stream state, the migration log and the fault injector
//! — into a typed [`Snapshot`]. `rebuild` inverts it against the same
//! [`Scenario`] and hardware system, producing a [`RunState`] that
//! continues the identical simulation: the golden identity test drives one
//! run to the horizon and another to the midpoint, snapshots, resumes, and
//! asserts byte-identical [`crate::RunReport`]s.
//!
//! # What is (deliberately) not captured
//!
//! * The driver's **event calendar** — a pure cache over the engines,
//!   rebuilt by `refresh_engine` on resume.
//! * **Tracing, telemetry and the loop profile** — observational sinks
//!   that never feed back into the simulation; a resumed run restarts
//!   them empty.
//! * The KV manager's **core bitmaps** — write-only observability state
//!   (see [`ouro_kvcache::KvManagerSnapshot`]).
//! * The **derived fields of each active sequence**: the record's lengths
//!   and the decode tokens not yet written to the KV manager. `capture`
//!   snapshots a manager with those tokens written back, and `rebuild`
//!   recomputes the fields from the records and the restored manager.
//!
//! # Serialized form
//!
//! [`Snapshot::to_json`] renders a dependency-free JSON document: an array
//! of flat objects whose values are all strings, one object per state row,
//! each tagged with a `"section"` key. Floats are serialized as the hex of
//! their IEEE-754 bit pattern (`f64::to_bits`), so round-tripping is exact
//! (including NaN payloads, which plain decimal JSON cannot carry — the
//! workspace's JSON writer renders non-finite floats as `null`).
//! [`Snapshot::parse`] is the strict inverse; the schema is versioned by
//! [`SNAPSHOT_SCHEMA_VERSION`] and guarded by a config hash so foreign
//! state cannot be resumed silently.
//!
//! Both halves stream. The writer appends every row, field and value
//! straight into the one output `String` through [`std::fmt::Write`], with
//! no per-value or per-row buffer. The reader walks the document one row at
//! a time into a reused list of `(key, value)` slices borrowed from the
//! input and folds each row into the [`Snapshot`] before reading the next,
//! so `parse` never holds the whole parsed document, only the input text
//! and the snapshot it is building.

use crate::engine::{Engine, EngineStats};
use crate::fault::{FaultInjector, FaultInjectorSnapshot, WaferFaultSnapshot};
use crate::metrics::RequestRecord;
use crate::report::Migration;
use crate::scenario::{Deployment, Driver, RunState, Scenario};
use crate::stage::{ActiveSeq, ArrivalEvent, PendingReq, StageQueues};
use ouro_kvcache::{
    CrossbarSnapshot, KvError, KvManager, KvManagerSnapshot, KvTransferStats, SharedChainSnapshot,
};
use ouro_sim::OuroborosSystem;
use ouro_trace::json::{fnv1a, FNV1A_OFFSET};
use ouro_trace::{LoopProfile, TelemetryRecorder, Tracer};
use ouro_workload::SharedPrefix;
use rand::rngs::StdRng;
use std::collections::BinaryHeap;
use std::fmt::{self, Write as _};

/// Version stamp of the serialized snapshot schema. Bumped on any change
/// to the row layout; [`Snapshot::parse`] and `rebuild` both reject
/// mismatches instead of guessing.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// A complete mid-run checkpoint of one scenario run, captured by
/// [`Scenario::checkpoint`] and resumed by [`Scenario::resume`]. Serialize
/// with [`Snapshot::to_json`]; parse back with [`Snapshot::parse`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) schema_version: u32,
    /// FNV-1a over the scenario's `Debug` form: resuming under a
    /// differently-configured scenario is a hard error, not silent drift.
    pub(crate) config_hash: u64,
    pub(crate) completed: u64,
    pub(crate) faults_fired: u64,
    pub(crate) router_state: u64,
    pub(crate) placement_state: u64,
    /// Open arrivals `(at_s, trace index)`, in queue (sorted) order.
    pub(crate) arrivals: Vec<(f64, usize)>,
    /// Gated closed-loop requests, in submission order.
    pub(crate) gated: Vec<usize>,
    /// Raw xoshiro256** state of the think-time stream.
    pub(crate) think_rng: [u64; 4],
    pub(crate) migrations: Vec<Migration>,
    /// Per-engine state in global wafer order.
    pub(crate) engines: Vec<EngineSnapshot>,
    pub(crate) injector: Option<FaultInjectorSnapshot>,
}

/// One engine's complete mutable state inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub(crate) struct EngineSnapshot {
    pub(crate) clock_s: f64,
    pub(crate) busy_s: f64,
    pub(crate) admission_suspended: bool,
    pub(crate) pending_tokens: usize,
    pub(crate) pending_wire_tokens: usize,
    /// Absolute mean hop distance (faults append penalties to it, so the
    /// config value cannot be assumed on resume).
    pub(crate) mean_hops: f64,
    pub(crate) order_counter: u64,
    pub(crate) stats: EngineStats,
    pub(crate) records: Vec<RequestRecord>,
    /// The pending arena's live entries `(ready_s, event)` in queue order
    /// ([`crate::arena::IndexQueue::entries`]); restored by `push_back` in
    /// order, which preserves relative ranks.
    pub(crate) pending: Vec<(f64, PendingReq)>,
    pub(crate) active: Vec<ActiveSeq>,
    pub(crate) kv: KvManagerSnapshot,
}

/// Captures the complete simulator state of `run` (see the module doc for
/// what is deliberately left out).
pub(crate) fn capture(scenario: &Scenario, run: &RunState) -> Snapshot {
    let d = &run.driver;
    Snapshot {
        schema_version: SNAPSHOT_SCHEMA_VERSION,
        config_hash: config_hash(scenario),
        completed: d.completed,
        faults_fired: d.faults_fired,
        router_state: d.router.checkpoint_state(),
        placement_state: d.placement.checkpoint_state(),
        arrivals: run.queues.arrivals.iter().map(|ev| (ev.at_s, ev.index)).collect(),
        gated: run.queues.gated.iter().copied().collect(),
        think_rng: run.queues.think_rng.state(),
        migrations: d.migrations.clone(),
        engines: d
            .engines
            .iter()
            .map(|e| EngineSnapshot {
                clock_s: e.clock_s,
                busy_s: e.busy_s,
                admission_suspended: e.admission_suspended,
                pending_tokens: e.pending_tokens,
                pending_wire_tokens: e.pending_wire_tokens,
                mean_hops: e.times.mean_hops,
                order_counter: e.order_counter,
                stats: e.stats,
                records: e.records.clone(),
                pending: e.pending.entries(),
                active: e.active.clone(),
                kv: e.synced_manager().snapshot(),
            })
            .collect(),
        injector: run.injector.as_ref().map(FaultInjector::snapshot),
    }
}

/// Rebuilds a [`RunState`] from `snap` against replicas of `system`,
/// continuing the identical simulation.
///
/// # Errors
///
/// Propagates [`KvError`] from KV-manager reconstruction, including a
/// KV geometry mismatch ([`KvError::SnapshotGeometry`]).
///
/// # Panics
///
/// Panics on a schema-version, config-hash or wafer-count mismatch, when
/// the snapshot's fault state does not match the scenario's fault config,
/// or when an active sequence names a record the engine does not have.
pub(crate) fn rebuild(
    scenario: &Scenario,
    system: &OuroborosSystem,
    snap: &Snapshot,
) -> Result<RunState, KvError> {
    assert_eq!(
        snap.schema_version, SNAPSHOT_SCHEMA_VERSION,
        "snapshot schema v{} cannot be resumed by code expecting v{SNAPSHOT_SCHEMA_VERSION}",
        snap.schema_version
    );
    assert_eq!(
        snap.config_hash,
        config_hash(scenario),
        "snapshot was captured by a differently-configured scenario"
    );
    let timed = scenario.workload.as_ref().expect("Scenario needs a workload: call .workload(timed) first");
    let (prefill_wafers, total) = match scenario.deployment {
        Deployment::Colocated { wafers } => (0, wafers),
        Deployment::Disaggregated(cfg) => (cfg.prefill_wafers, cfg.total_wafers()),
    };
    assert_eq!(snap.engines.len(), total, "snapshot wafer count must match the deployment");

    let mut engines = Vec::with_capacity(total);
    for (wafer, es) in snap.engines.iter().enumerate() {
        let mut e = Engine::new(system.stage_times().clone(), system.serve_kv_config(), scenario.engine)?;
        e.manager = KvManager::restore(system.serve_kv_config(), &es.kv)?;
        e.times.mean_hops = es.mean_hops;
        e.records = es.records.clone();
        for &(ready_s, req) in &es.pending {
            e.pending.push_back(ready_s, req);
        }
        e.active = es.active.iter().map(|a| a.bind(&e.records[a.rec], &e.manager)).collect();
        e.admission_suspended = es.admission_suspended;
        e.clock_s = es.clock_s;
        e.busy_s = es.busy_s;
        e.pending_tokens = es.pending_tokens;
        e.pending_wire_tokens = es.pending_wire_tokens;
        e.stats = es.stats;
        e.order_counter = es.order_counter;
        if scenario.trace {
            e.set_tracer(Tracer::ring(wafer));
        }
        engines.push(e);
    }

    let mut router = scenario.router.clone();
    router.restore_state(snap.router_state);
    let mut placement = scenario.placement.clone();
    placement.restore_state(snap.placement_state);
    let mut driver = Driver {
        engines,
        prefill_wafers,
        disagg: matches!(scenario.deployment, Deployment::Disaggregated(_)),
        router,
        placement,
        link: system.stage_times().inter_wafer_link(),
        kv_bytes_per_token: system.kv_migration_bytes(1),
        migrations: snap.migrations.clone(),
        tracer: if scenario.trace { Tracer::ring(0) } else { Tracer::off() },
        telemetry: scenario.telemetry.map(TelemetryRecorder::new),
        profile: scenario.profile.then(LoopProfile::default),
        completed: snap.completed,
        faults_fired: snap.faults_fired,
        calendar: BinaryHeap::new(),
        engine_gen: vec![0; total],
    };
    for wafer in 0..total {
        driver.refresh_engine(wafer);
    }

    let queues = StageQueues {
        arrivals: snap.arrivals.iter().map(|&(at_s, index)| ArrivalEvent { at_s, index }).collect(),
        gated: snap.gated.iter().copied().collect(),
        think_time_s: match timed.config {
            ouro_workload::ArrivalConfig::ClosedLoop { think_time_s, .. } => think_time_s,
            _ => 0.0,
        },
        think_rng: StdRng::from_state(snap.think_rng),
    };
    let injector = match (scenario.fault, &snap.injector) {
        (Some(cfg), Some(is)) => Some(FaultInjector::restore(
            system,
            total,
            cfg,
            FaultInjector::run_window_s(scenario.horizon_s, timed),
            is,
        )),
        (None, None) => None,
        _ => panic!("snapshot fault state does not match the scenario's fault config"),
    };
    Ok(RunState { driver, queues, injector, scenario: scenario.clone(), horizon_s: scenario.horizon_s })
}

/// FNV-1a over the scenario's `Debug` form — cheap, dependency-free, and
/// sensitive to every config field (deployment, workload seeds, policies,
/// engine tuning, SLO, horizon, faults, observability toggles).
pub(crate) fn config_hash(scenario: &Scenario) -> u64 {
    fnv1a(FNV1A_OFFSET, format!("{scenario:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Serialization: flat-JSON rows, string values only, floats as bit-pattern
// hex. Hand-rolled on both sides — the workspace stays dependency-free, and
// `ouro_trace::json` cannot round-trip non-finite floats.
// ---------------------------------------------------------------------------

/// Appends formatted text to `out` (writing into a `String` cannot fail).
fn put(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args).expect("writing into a String cannot fail");
}

fn num<T: fmt::Display>(out: &mut String, v: T) {
    put(out, format_args!("{v}"));
}

/// A float as the 16 hex digits of its IEEE-754 bit pattern.
fn hex(out: &mut String, v: f64) {
    put(out, format_args!("{:016x}", v.to_bits()));
}

/// Writes `each` of `items` into `out`, separated by `sep`.
fn join<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: char,
    mut each: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        each(out, item);
    }
}

fn slots(out: &mut String, list: &[(usize, usize, usize)]) {
    join(out, list, ',', |o, &(c, x, b)| put(o, format_args!("{c}.{x}.{b}")));
}

/// Writes a whole document into one buffer: `[`, then `{"section":"…",
/// "k":"v",…}` rows separated by `",\n"`, then `]`. Values never contain
/// quotes or backslashes (they are built from digits and fixed separator
/// characters), so no escaping is needed on either side.
struct Writer {
    out: String,
    rows: usize,
}

impl Writer {
    fn new() -> Writer {
        Writer { out: String::from("[\n"), rows: 0 }
    }

    /// Opens the next row; close it with [`Writer::end`].
    fn row(&mut self, section: &str) -> &mut Writer {
        if self.rows > 0 {
            self.out.push_str(",\n");
        }
        self.rows += 1;
        self.out.push_str("{\"section\":\"");
        self.out.push_str(section);
        self.out.push('"');
        self
    }

    /// Adds one field whose value `value` writes straight into the buffer.
    fn field(&mut self, key: &str, value: impl FnOnce(&mut String)) -> &mut Writer {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":\"");
        let start = self.out.len();
        value(&mut self.out);
        debug_assert!(
            !self.out[start..].contains(['"', '\\']),
            "snapshot values must not need escaping: {:?}",
            &self.out[start..]
        );
        self.out.push('"');
        self
    }

    fn num(&mut self, key: &str, v: impl fmt::Display) -> &mut Writer {
        self.field(key, |o| num(o, v))
    }

    fn hex(&mut self, key: &str, v: f64) -> &mut Writer {
        self.field(key, |o| hex(o, v))
    }

    fn flag(&mut self, key: &str, v: bool) -> &mut Writer {
        self.field(key, |o| o.push(if v { '1' } else { '0' }))
    }

    fn end(&mut self) {
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]\n");
        self.out
    }
}

impl Snapshot {
    /// Serializes the snapshot (see the module doc for the format).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.row("meta")
            .num("schema_version", self.schema_version)
            .field("config_hash", |o| put(o, format_args!("{:016x}", self.config_hash)))
            .num("completed", self.completed)
            .num("faults_fired", self.faults_fired)
            .num("router_state", self.router_state)
            .num("placement_state", self.placement_state)
            .field("think_rng", |o| join(o, &self.think_rng, '|', |o, x| put(o, format_args!("{x:016x}"))))
            .field("arrivals", |o| {
                join(o, &self.arrivals, ';', |o, &(t, i)| {
                    hex(o, t);
                    put(o, format_args!(":{i}"));
                })
            })
            .field("gated", |o| join(o, &self.gated, ';', num))
            .end();
        for m in &self.migrations {
            w.row("migration")
                .num("id", m.id)
                .num("from", m.from_wafer)
                .num("to", m.to_wafer)
                .num("tokens", m.tokens)
                .num("deduped", m.deduped_tokens)
                .num("bytes", m.bytes)
                .hex("start_s", m.start_s)
                .hex("arrive_s", m.arrive_s)
                .num("hops", m.wafer_hops)
                .hex("energy_j", m.energy_j)
                .end();
        }
        for (wafer, e) in self.engines.iter().enumerate() {
            let s = &e.stats;
            w.row("engine")
                .num("wafer", wafer)
                .hex("clock_s", e.clock_s)
                .hex("busy_s", e.busy_s)
                .flag("suspended", e.admission_suspended)
                .num("pending_tokens", e.pending_tokens)
                .num("pending_wire_tokens", e.pending_wire_tokens)
                .hex("mean_hops", e.mean_hops)
                .num("order_counter", e.order_counter)
                .field("stats", |o| {
                    put(
                        o,
                        format_args!(
                            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
                            s.admissions,
                            s.evictions,
                            s.recomputed_tokens,
                            s.prefilled_tokens,
                            s.cached_prefix_tokens,
                            s.prefix_hits,
                            s.dropped,
                            s.dropped_imported_tokens,
                            s.steps,
                            s.peak_resident,
                            s.faults,
                            s.fault_evicted_seqs,
                            s.fault_evicted_tokens,
                        ),
                    );
                    hex(o, s.stall_s);
                })
                .end();
            for r in &e.records {
                w.row("record")
                    .num("wafer", wafer)
                    .num("id", r.id)
                    .num("rwafer", r.wafer)
                    .num("prompt", r.prompt_len)
                    .num("decode", r.decode_len)
                    .hex("arrival_s", r.arrival_s)
                    .hex("admitted_s", r.admitted_s)
                    .hex("queue_wait_s", r.queue_wait_s)
                    .hex("first_token_s", r.first_token_s)
                    .hex("completed_s", r.completed_s)
                    .num("evictions", r.evictions)
                    .num("cached_prefix", r.cached_prefix_tokens)
                    .field("shared", |o| match r.shared_prefix {
                        Some(p) => put(o, format_args!("{}:{}", p.group, p.tokens)),
                        None => o.push('-'),
                    })
                    .end();
            }
            for &(ready_s, p) in &e.pending {
                w.row("pending")
                    .num("wafer", wafer)
                    .hex("ready_s", ready_s)
                    .num("rec", p.rec)
                    .num("decoded", p.decoded)
                    .flag("imported", p.imported)
                    .num("wire_tokens", p.wire_tokens)
                    .flag("evicted", p.evicted)
                    .flag("prefill_only", p.prefill_only)
                    .end();
            }
            for a in &e.active {
                w.row("active")
                    .num("wafer", wafer)
                    .num("rec", a.rec)
                    .num("prefill_remaining", a.prefill_remaining)
                    .num("decoded", a.decoded)
                    .num("admission_order", a.admission_order)
                    .flag("prefill_only", a.prefill_only)
                    .end();
            }
            let kv = &e.kv;
            let t = &kv.transfers;
            w.row("kv")
                .num("wafer", wafer)
                .num("ring_k", kv.ring_next[0])
                .num("ring_v", kv.ring_next[1])
                .num("allocated", kv.allocated_blocks)
                .num("freed", kv.freed_blocks)
                .field("transfers", |o| {
                    put(
                        o,
                        format_args!(
                            "{}|{}|{}|{}",
                            t.exported_sequences, t.exported_tokens, t.imported_sequences, t.imported_tokens
                        ),
                    )
                })
                .end();
            for (side, cores) in [("k", &kv.key_cores), ("v", &kv.value_cores)] {
                for (core, xbs) in cores.iter().enumerate() {
                    w.row("kv_cores")
                        .num("wafer", wafer)
                        .field("side", |o| o.push_str(side))
                        .num("core", core)
                        .field("xbs", |o| {
                            join(o, xbs, ';', |o, xb| {
                                o.push(if xb.failed { '1' } else { '0' });
                                o.push('!');
                                join(o, &xb.blocks, ',', |o, b| match b {
                                    Some((owner, used)) => put(o, format_args!("{owner}:{used}")),
                                    None => o.push('-'),
                                });
                            })
                        })
                        .end();
                }
            }
            w.row("kv_page")
                .num("wafer", wafer)
                .field("entries", |o| {
                    join(o, &kv.page_table, ';', |o, (seq, cores)| {
                        put(o, format_args!("{seq}:"));
                        join(o, cores, ',', num);
                    })
                })
                .end();
            w.row("kv_cursor")
                .num("wafer", wafer)
                .field("entries", |o| {
                    join(o, &kv.cursors, ';', |o, &(seq, head, role, ci, xb, b)| {
                        put(o, format_args!("{seq}:{head}:{role}:{ci}:{xb}:{b}"))
                    })
                })
                .end();
            w.row("kv_seq_blocks")
                .num("wafer", wafer)
                .field("entries", |o| {
                    join(o, &kv.seq_blocks, ';', |o, (seq, blocks)| {
                        put(o, format_args!("{seq}:"));
                        join(o, blocks, ',', |o, &(r, ci, xb, b)| put(o, format_args!("{r}.{ci}.{xb}.{b}")));
                    })
                })
                .end();
            w.row("kv_resident")
                .num("wafer", wafer)
                .field("entries", |o| {
                    join(o, &kv.resident_tokens, ';', |o, &(seq, t)| put(o, format_args!("{seq}:{t}")))
                })
                .end();
            for (group, chain) in &kv.shared {
                w.row("kv_shared")
                    .num("wafer", wafer)
                    .num("group", group)
                    .field("k_cores", |o| join(o, &chain.k_cores, ',', num))
                    .field("v_cores", |o| join(o, &chain.v_cores, ',', num))
                    .field("nodes", |o| {
                        join(o, &chain.nodes, ';', |o, (refs, k_slots, v_slots)| {
                            put(o, format_args!("{refs}!"));
                            slots(o, k_slots);
                            o.push('!');
                            slots(o, v_slots);
                        })
                    })
                    .end();
            }
            w.row("kv_seq_shared")
                .num("wafer", wafer)
                .field("entries", |o| {
                    join(o, &kv.seq_shared, ';', |o, &(seq, g, n)| put(o, format_args!("{seq}:{g}:{n}")))
                })
                .end();
        }
        if let Some(inj) = &self.injector {
            w.row("injector")
                .field("events", |o| {
                    join(o, &inj.events, ';', |o, &(wafer, t, draw)| {
                        put(o, format_args!("{wafer}:"));
                        hex(o, t);
                        put(o, format_args!(":{draw}"));
                    })
                })
                .field("counters", |o| join(o, &inj.counters, '|', num))
                .end();
            for (wafer, wf) in inj.wafers.iter().enumerate() {
                w.row("injector_wafer")
                    .num("wafer", wafer)
                    .field("assignment", |o| join(o, &wf.assignment, ';', num))
                    .field("kv_cores", |o| join(o, &wf.kv_cores, ';', num))
                    .field("failed", |o| join(o, &wf.failed, ';', num))
                    .hex("death_s", wf.death_s)
                    .hex("stall_s", wf.stall_s)
                    .end();
            }
        }
        w.finish()
    }

    /// Parses a [`Snapshot::to_json`] document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, unknown
    /// section, missing field, or schema-version mismatch.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut reader = RowReader::new(text)?;
        let mut row = Row { pairs: Vec::new() };
        let mut snap = Snapshot {
            schema_version: 0,
            config_hash: 0,
            completed: 0,
            faults_fired: 0,
            router_state: 0,
            placement_state: 0,
            arrivals: Vec::new(),
            gated: Vec::new(),
            think_rng: [0; 4],
            migrations: Vec::new(),
            engines: Vec::new(),
            injector: None,
        };
        let mut saw_meta = false;
        while reader.next_row(&mut row)? {
            let section = row.get("section")?;
            match section {
                "meta" => {
                    saw_meta = true;
                    snap.schema_version =
                        row.get("schema_version")?.parse().map_err(|e| format!("schema_version: {e}"))?;
                    if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
                        return Err(format!(
                            "snapshot schema v{} is not the supported v{SNAPSHOT_SCHEMA_VERSION}",
                            snap.schema_version
                        ));
                    }
                    snap.config_hash = p_hex_u64(row.get("config_hash")?)?;
                    snap.completed = p_u64(row.get("completed")?)?;
                    snap.faults_fired = p_u64(row.get("faults_fired")?)?;
                    snap.router_state = p_u64(row.get("router_state")?)?;
                    snap.placement_state = p_u64(row.get("placement_state")?)?;
                    let rng: Vec<u64> =
                        split(row.get("think_rng")?, '|').map(p_hex_u64).collect::<Result<_, _>>()?;
                    snap.think_rng = rng
                        .try_into()
                        .map_err(|v: Vec<u64>| format!("think_rng has {} words, expected 4", v.len()))?;
                    snap.arrivals = split(row.get("arrivals")?, ';')
                        .map(|item| {
                            let (t, i) = pair(item, ':')?;
                            Ok((p_f64(t)?, p_usize(i)?))
                        })
                        .collect::<Result<_, String>>()?;
                    snap.gated = split(row.get("gated")?, ';').map(p_usize).collect::<Result<_, _>>()?;
                }
                "migration" => snap.migrations.push(Migration {
                    id: p_usize(row.get("id")?)?,
                    from_wafer: p_usize(row.get("from")?)?,
                    to_wafer: p_usize(row.get("to")?)?,
                    tokens: p_u64(row.get("tokens")?)?,
                    deduped_tokens: p_u64(row.get("deduped")?)?,
                    bytes: p_u64(row.get("bytes")?)?,
                    start_s: p_f64(row.get("start_s")?)?,
                    arrive_s: p_f64(row.get("arrive_s")?)?,
                    wafer_hops: p_usize(row.get("hops")?)?,
                    energy_j: p_f64(row.get("energy_j")?)?,
                }),
                "engine" => {
                    let wafer = p_usize(row.get("wafer")?)?;
                    if wafer != snap.engines.len() {
                        return Err(format!("engine row for wafer {wafer} out of order"));
                    }
                    let s: Vec<&str> = row.get("stats")?.split('|').collect();
                    if s.len() != 14 {
                        return Err(format!("engine stats has {} fields, expected 14", s.len()));
                    }
                    snap.engines.push(EngineSnapshot {
                        clock_s: p_f64(row.get("clock_s")?)?,
                        busy_s: p_f64(row.get("busy_s")?)?,
                        admission_suspended: p_bool(row.get("suspended")?)?,
                        pending_tokens: p_usize(row.get("pending_tokens")?)?,
                        pending_wire_tokens: p_usize(row.get("pending_wire_tokens")?)?,
                        mean_hops: p_f64(row.get("mean_hops")?)?,
                        order_counter: p_u64(row.get("order_counter")?)?,
                        stats: EngineStats {
                            admissions: p_u64(s[0])?,
                            evictions: p_u64(s[1])?,
                            recomputed_tokens: p_u64(s[2])?,
                            prefilled_tokens: p_u64(s[3])?,
                            cached_prefix_tokens: p_u64(s[4])?,
                            prefix_hits: p_u64(s[5])?,
                            dropped: p_u64(s[6])?,
                            dropped_imported_tokens: p_u64(s[7])?,
                            steps: p_u64(s[8])?,
                            peak_resident: p_usize(s[9])?,
                            faults: p_u64(s[10])?,
                            fault_evicted_seqs: p_u64(s[11])?,
                            fault_evicted_tokens: p_u64(s[12])?,
                            stall_s: p_f64(s[13])?,
                        },
                        records: Vec::new(),
                        pending: Vec::new(),
                        active: Vec::new(),
                        kv: KvManagerSnapshot {
                            ring_next: [0, 0],
                            allocated_blocks: 0,
                            freed_blocks: 0,
                            transfers: KvTransferStats::default(),
                            key_cores: Vec::new(),
                            value_cores: Vec::new(),
                            page_table: Vec::new(),
                            cursors: Vec::new(),
                            seq_blocks: Vec::new(),
                            resident_tokens: Vec::new(),
                            shared: Vec::new(),
                            seq_shared: Vec::new(),
                        },
                    });
                }
                "record" | "pending" | "active" | "kv" | "kv_cores" | "kv_page" | "kv_cursor"
                | "kv_seq_blocks" | "kv_resident" | "kv_shared" | "kv_seq_shared" => {
                    let wafer = p_usize(row.get("wafer")?)?;
                    let e = snap
                        .engines
                        .get_mut(wafer)
                        .ok_or_else(|| format!("{section} row for wafer {wafer} precedes its engine row"))?;
                    parse_engine_row(section, &row, e)?;
                }
                "injector" => {
                    snap.injector = Some(FaultInjectorSnapshot {
                        events: split(row.get("events")?, ';')
                            .map(|item| {
                                let mut it = item.split(':');
                                let (w, t, draw) = (next(&mut it)?, next(&mut it)?, next(&mut it)?);
                                Ok((p_usize(w)?, p_f64(t)?, p_u64(draw)?))
                            })
                            .collect::<Result<_, String>>()?,
                        wafers: Vec::new(),
                        counters: split(row.get("counters")?, '|')
                            .map(p_u64)
                            .collect::<Result<Vec<u64>, _>>()?
                            .try_into()
                            .map_err(|v: Vec<u64>| {
                                format!("injector has {} counters, expected 8", v.len())
                            })?,
                    });
                }
                "injector_wafer" => {
                    let inj = snap.injector.as_mut().ok_or("injector_wafer row precedes the injector row")?;
                    inj.wafers.push(WaferFaultSnapshot {
                        assignment: split(row.get("assignment")?, ';')
                            .map(p_u64)
                            .collect::<Result<_, _>>()?,
                        kv_cores: split(row.get("kv_cores")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        failed: split(row.get("failed")?, ';').map(p_u64).collect::<Result<_, _>>()?,
                        death_s: p_f64(row.get("death_s")?)?,
                        stall_s: p_f64(row.get("stall_s")?)?,
                    });
                }
                other => return Err(format!("unknown snapshot section {other:?}")),
            }
        }
        if !saw_meta {
            return Err("snapshot has no meta row".to_string());
        }
        Ok(snap)
    }
}

fn parse_engine_row(section: &str, row: &Row<'_>, e: &mut EngineSnapshot) -> Result<(), String> {
    match section {
        "record" => e.records.push(RequestRecord {
            id: p_usize(row.get("id")?)?,
            wafer: p_usize(row.get("rwafer")?)?,
            prompt_len: p_usize(row.get("prompt")?)?,
            decode_len: p_usize(row.get("decode")?)?,
            arrival_s: p_f64(row.get("arrival_s")?)?,
            admitted_s: p_f64(row.get("admitted_s")?)?,
            queue_wait_s: p_f64(row.get("queue_wait_s")?)?,
            first_token_s: p_f64(row.get("first_token_s")?)?,
            completed_s: p_f64(row.get("completed_s")?)?,
            evictions: row.get("evictions")?.parse().map_err(|e| format!("evictions: {e}"))?,
            cached_prefix_tokens: p_usize(row.get("cached_prefix")?)?,
            shared_prefix: match row.get("shared")? {
                "-" => None,
                s => {
                    let (g, t) = pair(s, ':')?;
                    Some(SharedPrefix { group: p_u64(g)?, tokens: p_usize(t)? })
                }
            },
        }),
        "pending" => e.pending.push((
            p_f64(row.get("ready_s")?)?,
            PendingReq {
                rec: p_usize(row.get("rec")?)?,
                decoded: p_usize(row.get("decoded")?)?,
                ready_s: p_f64(row.get("ready_s")?)?,
                imported: p_bool(row.get("imported")?)?,
                wire_tokens: p_usize(row.get("wire_tokens")?)?,
                evicted: p_bool(row.get("evicted")?)?,
                prefill_only: p_bool(row.get("prefill_only")?)?,
            },
        )),
        "active" => e.active.push(ActiveSeq {
            rec: p_usize(row.get("rec")?)?,
            prefill_remaining: p_usize(row.get("prefill_remaining")?)?,
            decoded: p_usize(row.get("decoded")?)?,
            admission_order: p_u64(row.get("admission_order")?)?,
            prefill_only: p_bool(row.get("prefill_only")?)?,
            ..ActiveSeq::default()
        }),
        "kv" => {
            e.kv.ring_next = [p_usize(row.get("ring_k")?)?, p_usize(row.get("ring_v")?)?];
            e.kv.allocated_blocks = p_u64(row.get("allocated")?)?;
            e.kv.freed_blocks = p_u64(row.get("freed")?)?;
            let t: Vec<&str> = row.get("transfers")?.split('|').collect();
            if t.len() != 4 {
                return Err(format!("kv transfers has {} fields, expected 4", t.len()));
            }
            e.kv.transfers = KvTransferStats {
                exported_sequences: p_u64(t[0])?,
                exported_tokens: p_u64(t[1])?,
                imported_sequences: p_u64(t[2])?,
                imported_tokens: p_u64(t[3])?,
            };
        }
        "kv_cores" => {
            let xbs: Vec<CrossbarSnapshot> = split(row.get("xbs")?, ';')
                .map(|xb| {
                    let (failed, blocks) = pair(xb, '!')?;
                    Ok(CrossbarSnapshot {
                        failed: p_bool(failed)?,
                        blocks: split(blocks, ',')
                            .map(|b| {
                                if b == "-" {
                                    Ok(None)
                                } else {
                                    let (owner, used) = pair(b, ':')?;
                                    Ok(Some((p_u64(owner)?, p_usize(used)?)))
                                }
                            })
                            .collect::<Result<_, String>>()?,
                    })
                })
                .collect::<Result<_, String>>()?;
            let side = match row.get("side")? {
                "k" => &mut e.kv.key_cores,
                "v" => &mut e.kv.value_cores,
                other => return Err(format!("unknown kv side {other:?}")),
            };
            if p_usize(row.get("core")?)? != side.len() {
                return Err("kv_cores row out of order".to_string());
            }
            side.push(xbs);
        }
        "kv_page" => {
            e.kv.page_table = split(row.get("entries")?, ';')
                .map(|item| {
                    let (seq, cores) = pair(item, ':')?;
                    Ok((p_u64(seq)?, split(cores, ',').map(p_u64).collect::<Result<_, _>>()?))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_cursor" => {
            e.kv.cursors = split(row.get("entries")?, ';')
                .map(|item| {
                    let mut it = item.split(':');
                    Ok((
                        p_u64(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_u8(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                        p_usize(next(&mut it)?)?,
                    ))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_seq_blocks" => {
            e.kv.seq_blocks = split(row.get("entries")?, ';')
                .map(|item| {
                    let (seq, blocks) = pair(item, ':')?;
                    Ok((
                        p_u64(seq)?,
                        split(blocks, ',')
                            .map(|b| {
                                let mut it = b.split('.');
                                Ok((
                                    p_u8(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                    p_usize(next(&mut it)?)?,
                                ))
                            })
                            .collect::<Result<_, String>>()?,
                    ))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_resident" => {
            e.kv.resident_tokens = split(row.get("entries")?, ';')
                .map(|item| {
                    let (seq, t) = pair(item, ':')?;
                    Ok((p_u64(seq)?, p_usize(t)?))
                })
                .collect::<Result<_, String>>()?;
        }
        "kv_shared" => {
            let p_slots = |s: &str| -> Result<Vec<(usize, usize, usize)>, String> {
                split(s, ',')
                    .map(|slot| {
                        let mut it = slot.split('.');
                        Ok((p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?, p_usize(next(&mut it)?)?))
                    })
                    .collect()
            };
            e.kv.shared.push((
                p_u64(row.get("group")?)?,
                SharedChainSnapshot {
                    k_cores: split(row.get("k_cores")?, ',').map(p_usize).collect::<Result<_, _>>()?,
                    v_cores: split(row.get("v_cores")?, ',').map(p_usize).collect::<Result<_, _>>()?,
                    nodes: split(row.get("nodes")?, ';')
                        .map(|node| {
                            let mut it = node.split('!');
                            let refs = p_usize(next(&mut it)?)?;
                            let k = p_slots(next(&mut it)?)?;
                            let v = p_slots(next(&mut it)?)?;
                            Ok((refs, k, v))
                        })
                        .collect::<Result<_, String>>()?,
                },
            ));
        }
        "kv_seq_shared" => {
            e.kv.seq_shared = split(row.get("entries")?, ';')
                .map(|item| {
                    let mut it = item.split(':');
                    Ok((p_u64(next(&mut it)?)?, p_u64(next(&mut it)?)?, p_usize(next(&mut it)?)?))
                })
                .collect::<Result<_, String>>()?;
        }
        _ => unreachable!("dispatched above"),
    }
    Ok(())
}

// --- tiny strict streaming parser -----------------------------------------

/// One row's `key → value` pairs, borrowed from the document (values are
/// always strings). [`Snapshot::parse`] reuses one `Row` for every row.
struct Row<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Row<'a> {
    fn get(&self, key: &str) -> Result<&'a str, String> {
        self.pairs
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("snapshot row is missing field {key:?}"))
    }
}

/// Reads the outer `[ {…}, {…} ]` document one row at a time. The grammar
/// is the exact output of [`Snapshot::to_json`]: objects of one or more
/// string-valued fields, no escapes, no nested containers, whitespace
/// allowed between tokens. Anything after the closing `]` is ignored.
struct RowReader<'a> {
    text: &'a str,
    i: usize,
    /// No row read yet, so no `,` separator is due.
    first: bool,
    done: bool,
}

impl<'a> RowReader<'a> {
    fn new(text: &'a str) -> Result<RowReader<'a>, String> {
        let mut r = RowReader { text, i: 0, first: true, done: false };
        r.ws();
        r.expect(b'[')?;
        r.ws();
        r.done = r.peek() == Some(b']');
        Ok(r)
    }

    /// Reads the next row into `row`; `Ok(false)` after the last one.
    fn next_row(&mut self, row: &mut Row<'a>) -> Result<bool, String> {
        if self.done {
            return Ok(false);
        }
        if !self.first {
            self.ws();
            if self.peek() != Some(b',') {
                self.expect(b']')?;
                self.done = true;
                return Ok(false);
            }
            self.i += 1;
            self.ws();
        }
        self.first = false;
        self.expect(b'{')?;
        row.pairs.clear();
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let value = self.string()?;
            row.pairs.push((key, value));
            self.ws();
            if self.peek() != Some(b',') {
                break;
            }
            self.i += 1;
        }
        self.expect(b'}')?;
        Ok(true)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        let rest = &self.text.as_bytes()[start..];
        match rest.iter().position(|&c| c == b'"' || c == b'\\') {
            Some(n) if rest[n] == b'"' => {
                self.i = start + n + 1;
                // Both ends sit next to an ASCII quote, so both are char
                // boundaries of the (valid UTF-8) text.
                Ok(&self.text[start..start + n])
            }
            Some(n) => Err(format!("unexpected escape at byte {}", start + n)),
            None => Err("unterminated string".to_string()),
        }
    }
}

fn split(s: &str, sep: char) -> impl Iterator<Item = &str> {
    s.split(sep).filter(|p| !p.is_empty())
}

fn pair(s: &str, sep: char) -> Result<(&str, &str), String> {
    s.split_once(sep).ok_or_else(|| format!("expected {sep:?}-separated pair, got {s:?}"))
}

fn next<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| "truncated tuple in snapshot row".to_string())
}

fn p_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad u64 {s:?}: {e}"))
}

fn p_u8(s: &str) -> Result<u8, String> {
    s.parse().map_err(|e| format!("bad u8 {s:?}: {e}"))
}

fn p_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("bad usize {s:?}: {e}"))
}

fn p_hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

fn p_f64(s: &str) -> Result<f64, String> {
    Ok(f64::from_bits(p_hex_u64(s)?))
}

fn p_bool(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad bool {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_hex_round_trips_every_bit_pattern_class() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e-300] {
            let mut s = String::new();
            hex(&mut s, v);
            assert_eq!(p_f64(&s).unwrap().to_bits(), v.to_bits());
        }
        let mut s = String::new();
        hex(&mut s, f64::NAN);
        assert!(p_f64(&s).unwrap().is_nan());
    }

    #[test]
    fn config_hash_distinguishes_scenarios() {
        let a = Scenario::colocated(2);
        let b = Scenario::colocated(3);
        assert_eq!(config_hash(&a), config_hash(&a));
        assert_ne!(config_hash(&a), config_hash(&b));
    }

    #[test]
    fn a_pinned_checkpoint_instant_writes_back_unsynced_decode_tokens() {
        use crate::SloConfig;
        use ouro_model::zoo;
        use ouro_sim::OuroborosConfig;
        use ouro_workload::{ArrivalConfig, LengthConfig, TraceGenerator};

        // The "colocated-poisson" golden shape of `tests/checkpoint.rs`,
        // probed at the instants `snapshot_v1_key_sets_are_pinned` pins
        // digests for: at least one must capture KV that decode has not
        // yet written to the manager, so those digests cover the
        // write-back.
        let sys = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
        let trace = TraceGenerator::new(11).generate(&LengthConfig::fixed(96, 24), 36);
        let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, 11);
        let mid_s = timed.last_arrival_s() * 0.5;
        let scenario = Scenario::colocated(2)
            .prefix_caching(false)
            .slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 })
            .workload(timed);
        let mut run = scenario.start(&sys).unwrap();
        let mut covered = 0;
        for frac in [0.2, 0.6, 1.0, 1.4, 2.0] {
            run.run_until(mid_s * frac);
            let snap = capture(&scenario, &run);
            for (e, es) in run.driver.engines.iter().zip(&snap.engines) {
                if e.unsynced_tokens > 0 {
                    assert_ne!(es.kv, e.manager.snapshot(), "the capture must write the tokens back");
                    covered += 1;
                }
            }
        }
        assert!(covered > 0, "no probed instant holds unsynced decode tokens");
    }

    /// A complete `meta` row of an empty run.
    const META: &str = r#"{"section":"meta","schema_version":"1","config_hash":"0000000000000000","completed":"0","faults_fired":"0","router_state":"0","placement_state":"0","think_rng":"0|0|0|0","arrivals":"","gated":""}"#;

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("[]").is_err(), "a meta row is required");
        assert!(Snapshot::parse("[{\"section\":\"warp\"}]").is_err());
        assert!(Snapshot::parse("[{\"section\":\"meta\"}]").is_err(), "meta fields are required");

        assert!(Snapshot::parse(&format!("[{META}]")).is_ok(), "the control document parses");
        let err = |doc: String| Snapshot::parse(&doc).unwrap_err();
        assert_eq!(err(format!("[{}", &META[..20])), "unterminated string");
        assert!(err(format!("[{}\\{}]", &META[..13], &META[13..])).starts_with("unexpected escape"));
        assert!(err(format!("[{META}")).starts_with("expected ']'"));
        assert!(err(format!("[{META},")).starts_with("expected '{'"));
        let record = r#"{"section":"record","wafer":"0","id":"0"}"#;
        assert!(err(format!("[{META},{record}]")).contains("precedes its engine row"));
        let engine = r#"{"section":"engine","wafer":"1"}"#;
        assert!(err(format!("[{META},{engine}]")).contains("out of order"));
    }
}
