//! The one-shot `codesign` workloads.
//!
//! * `codesign-edge`: ResNet-50, edge scale, EDP, maestro backend, two
//!   threads, no journal.
//! * `codesign-sim`: ResNet-50 on the sim backend, one thread, with a
//!   journal.
//!
//! Both run a fixed spec through [`run_job`], the path `spotlight-cli
//! codesign` takes. The spec's search seed is part of the workload: the
//! best EDP and the run's work change by up to 2.5x across search seeds,
//! which would drown every effect the benchmark must resolve.
//!
//! The traced run times the layers from outside, through public seams:
//! a timing [`CostBackend`] decorator handed to
//! [`EvalEngineBuilder::custom_backend`](spotlight_eval::EvalEngineBuilder::custom_backend),
//! an [`EventSink`] around the [`JournalWriter`] passed through
//! [`Spotlight::with_observer`], and a replica of the software search
//! built from [`Dabo`], a timed `sample_schedule_guided` sampler, a
//! timed `sw_features` feature map and [`EvalEngine::evaluate`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::codesign::layer_stream_seed;
use spotlight::report::final_report;
use spotlight::swsearch::{optimize_schedule, sample_schedule_guided, SwSearchConfig};
use spotlight::{sw_features, CodesignOutcome, RunStatus, Spotlight, SW_FEATURE_NAMES};
use spotlight_accel::HardwareConfig;
use spotlight_conv::ConvLayer;
use spotlight_dabo::{Dabo, DaboConfig, FnFeatureMap, Search, Trace};
use spotlight_eval::{backend_by_name, CostBackend, EvalEngine, EvalError};
use spotlight_maestro::CostReport;
use spotlight_models::Model;
use spotlight_obs::{Event, EventSink, JournalWriter, Observer, Record};
use spotlight_runtime::{run_job, RunSpec};
use spotlight_space::Schedule;

use crate::calib;
use crate::stats::median;
use crate::trace::{totals, write_jsonl, Fold, Recorder, Totals, ROOT};
use crate::{err, out_dir, peak_rss_mb, Args, Outcome};

/// Set-ups per run; `setup_s` reports the median of their
/// host-normalized times.
const SETUPS: usize = 7;
/// Repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The workload's fixed `codesign` flags.
fn spec_flags(workload: &str) -> &'static str {
    match workload {
        "codesign-edge" => {
            "--model resnet50 --scale edge --objective edp --backend maestro --threads 2 \
             --hw 6 --sw 40 --seed 0"
        }
        _ => {
            "--model resnet50 --scale edge --objective edp --backend sim --threads 1 \
             --hw 2 --sw 30 --seed 0"
        }
    }
}

fn journal_path(workload: &str, spec: &RunSpec) -> Option<String> {
    (spec.backend == "sim").then(|| {
        out_dir()
            .join(format!("{workload}-{}.jsonl", std::process::id()))
            .display()
            .to_string()
    })
}

/// One set-up: run one hardware sample of the spec, which resolves the
/// models, builds the config and the engine, and pays lazy set-up (page
/// faults, first thread spawns, journal file creation) before timing.
fn setup(spec: &RunSpec, journal: Option<&str>) -> Result<f64, String> {
    let warm = RunSpec {
        hw_samples: 1,
        ..spec.clone()
    };
    Ok(rep(&warm, journal)?.wall)
}

/// One timed repetition.
struct Rep {
    /// Wall time of the run, s.
    wall: f64,
    /// Peak RSS during the run, MB.
    rss_mb: f64,
    report: String,
    outcome: CodesignOutcome,
}

/// Runs the spec once through [`run_job`], the `spotlight-cli codesign`
/// path.
fn rep(spec: &RunSpec, journal: Option<&str>) -> Result<Rep, String> {
    // Writing 5 resets the process's peak RSS to its current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let t = Instant::now();
    let out = run_job(spec, journal, false).map_err(err)?;
    let wall = t.elapsed().as_secs_f64();
    Ok(Rep {
        wall,
        rss_mb: peak_rss_mb("self")?,
        report: out.report(),
        outcome: out.outcome,
    })
}

fn phase(outcome: &CodesignOutcome, name: &str) -> f64 {
    outcome
        .stats
        .phase_wall
        .iter()
        .find(|(p, _)| p == name)
        .map_or(0.0, |(_, d)| d.as_secs_f64())
}

/// Runs a codesign workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = RunSpec::parse_str(spec_flags(&args.workload)).map_err(err)?;
    let journal = journal_path(&args.workload, &spec);
    let result = if args.trace {
        traced(args, &spec, journal.as_deref())
    } else {
        untraced(args, &spec, journal.as_deref())
    };
    if let Some(j) = &journal {
        let _ = std::fs::remove_file(j);
    }
    result
}

fn untraced(args: &Args, spec: &RunSpec, journal: Option<&str>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Every timed section sits between two references, which scale it
    // to the baseline host's speed (see `calib`).
    let reference = || calib::reference_s(spec.threads);
    let mut setup_refs = vec![reference()];
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setups.push(setup(spec, journal)?);
        setup_refs.push(reference());
    }
    let mut reps: Vec<Rep> = Vec::new();
    let mut refs = vec![reference()];
    let measured = Instant::now();
    while reps.len() < MIN_REPS || measured.elapsed().as_secs_f64() < args.seconds {
        let r = rep(spec, journal)?;
        refs.push(reference());
        out.attempted += 1;
        if r.outcome.status != RunStatus::Complete {
            out.failed += 1;
        }
        reps.push(r);
    }
    let first = &reps[0];
    out.check(
        "codesign reports byte-identical across repetitions",
        reps.iter().all(|r| r.report == first.report),
    );
    out.check(
        "evaluations == cache_hits + cache_misses",
        reps.iter().all(|r| {
            let s = &r.outcome.stats;
            s.evaluations == s.cache_hits + s.cache_misses
        }),
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.rss_mb).collect();
    out.metric("setup_s", median(&calib::normalize(&setups, &setup_refs)));
    let scaled = calib::normalize(&walls, &refs);
    out.metric("wall_s", median(&scaled));
    out.metric("best_edp", first.outcome.best_cost);
    // A one-shot `codesign` process runs the spec once; later repetitions
    // in this process add allocator fragmentation that differs between
    // processes, so the first measured repetition stands for the CLI run.
    out.metric("peak_rss_mb", rss[0]);
    println!(
        "repetitions   : {} runs, raw walls {walls:?} s, normalized {scaled:?} s, references {refs:?} s, peak RSS {rss:?} MB",
        walls.len()
    );
    println!(
        "host speed    : reference median {:.4} s (baseline host {} s); raw medians: setup {:.4} s, wall {:.4} s",
        median(&refs),
        calib::REFERENCE_S,
        median(&setups),
        median(&walls)
    );
    Ok(out)
}

thread_local! {
    /// `(span, job)` that a backend call on this thread belongs to, when
    /// the caller set one (the replica does; the run's workers do not).
    static CALLER: Cell<(u64, u64)> = const { Cell::new((ROOT, 0)) };
}

/// Where backend calls from the run's worker threads attach: the open
/// hardware-sample span and its index.
#[derive(Debug, Default)]
struct Ambient {
    span: AtomicU64,
    job: AtomicU64,
}

/// A timing decorator over a named backend.
struct TimedBackend {
    inner: Box<dyn CostBackend>,
    rec: Arc<Recorder>,
    ambient: Arc<Ambient>,
    /// Distinct hardware configurations evaluated, first-seen order.
    seen_hw: Arc<Mutex<Vec<HardwareConfig>>>,
}

impl CostBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let id = self.rec.new_id();
        let start = self.rec.now_ns();
        let r = self.inner.evaluate(hw, sched, layer);
        let (mut parent, mut job) = CALLER.with(Cell::get);
        if parent == ROOT {
            parent = self.ambient.span.load(Ordering::Relaxed);
            job = self.ambient.job.load(Ordering::Relaxed);
        }
        self.rec.finish(id, parent, job, "eval.backend", start);
        let mut seen = self.seen_hw.lock().expect("hw list lock poisoned");
        if !seen.contains(hw) {
            seen.push(*hw);
        }
        r
    }
}

/// Hardware samples as the run proposed them.
#[derive(Debug, Clone)]
struct Proposal {
    index: u64,
    hw: String,
    admitted: bool,
}

/// Mutable state of [`TimingSink`].
#[derive(Debug, Default)]
struct SinkState {
    /// The open hardware-sample span: `(id, index, start)`.
    sample: Option<(u64, u64, u64)>,
    proposals: Vec<Proposal>,
}

/// An [`EventSink`] that times the journal writer it wraps and turns
/// `hw_proposed` .. `checkpoint` into hardware-sample spans.
struct TimingSink {
    inner: Option<Arc<dyn EventSink>>,
    rec: Arc<Recorder>,
    ambient: Arc<Ambient>,
    run_span: u64,
    state: Mutex<SinkState>,
}

impl EventSink for TimingSink {
    fn record(&self, record: &Record) {
        let mut state = self.state.lock().expect("sink lock poisoned");
        if let Event::HwProposed { hw, admitted } = &record.event {
            let index = record.hw_sample.unwrap_or(state.proposals.len() as u64);
            let id = self.rec.new_id();
            state.sample = Some((id, index, self.rec.now_ns()));
            state.proposals.push(Proposal {
                index,
                hw: hw.clone(),
                admitted: *admitted,
            });
            self.ambient.job.store(index, Ordering::Relaxed);
            self.ambient.span.store(id, Ordering::Relaxed);
        }
        let (parent, job) = state
            .sample
            .map_or((self.run_span, 0), |(id, i, _)| (id, i));
        if let Some(inner) = &self.inner {
            let id = self.rec.new_id();
            let start = self.rec.now_ns();
            inner.record(record);
            self.rec
                .finish(id, parent, job, "obs.journal_record", start);
        }
        if matches!(record.event, Event::Checkpoint { .. }) {
            if let Some((id, index, start)) = state.sample.take() {
                self.rec
                    .finish(id, self.run_span, index, "codesign.hw_sample", start);
            }
            self.ambient.span.store(self.run_span, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            let state = self.state.lock().expect("sink lock poisoned");
            let (parent, job) = state
                .sample
                .map_or((self.run_span, 0), |(id, i, _)| (id, i));
            let id = self.rec.new_id();
            let start = self.rec.now_ns();
            inner.flush();
            self.rec.finish(id, parent, job, "obs.journal_flush", start);
        }
    }
}

/// The traced repetition's products.
struct TracedRep {
    wall: f64,
    report: String,
    outcome: CodesignOutcome,
    proposals: Vec<Proposal>,
    seen_hw: Vec<HardwareConfig>,
}

fn timed_engine(
    backend: &str,
    rec: &Arc<Recorder>,
    ambient: &Arc<Ambient>,
    seen_hw: &Arc<Mutex<Vec<HardwareConfig>>>,
) -> Result<EvalEngine, String> {
    let timed = TimedBackend {
        inner: backend_by_name(backend).map_err(err)?,
        rec: Arc::clone(rec),
        ambient: Arc::clone(ambient),
        seen_hw: Arc::clone(seen_hw),
    };
    EvalEngine::builder()
        .custom_backend(Box::new(timed))
        .build()
        .map_err(err)
}

/// One repetition of `spec` with every seam timed. Builds what
/// [`run_job`] builds, with the backend and the journal wrapped.
fn traced_rep(
    spec: &RunSpec,
    models: &[Model],
    journal: Option<&str>,
    rec: &Arc<Recorder>,
) -> Result<TracedRep, String> {
    let run_span = rec.new_id();
    let ambient = Arc::new(Ambient::default());
    ambient.span.store(run_span, Ordering::Relaxed);
    let seen_hw = Arc::new(Mutex::new(Vec::new()));
    let cfg = spec.to_codesign_config().map_err(err)?;
    let engine = timed_engine(&spec.backend, rec, &ambient, &seen_hw)?;
    let inner = match journal {
        Some(path) => {
            Some(Arc::new(JournalWriter::create(path).map_err(err)?) as Arc<dyn EventSink>)
        }
        None => None,
    };
    let sink = Arc::new(TimingSink {
        inner,
        rec: Arc::clone(rec),
        ambient: Arc::clone(&ambient),
        run_span,
        state: Mutex::new(SinkState::default()),
    });
    let observer = Observer::new(Arc::clone(&sink) as Arc<dyn EventSink>);
    let start = rec.now_ns();
    let t = Instant::now();
    let outcome = Spotlight::with_engine(cfg, engine)
        .with_observer(observer)
        .codesign(models);
    let wall = t.elapsed().as_secs_f64();
    rec.finish(run_span, ROOT, 0, "codesign.run", start);
    let report = final_report(&outcome, cfg.objective());
    let proposals = std::mem::take(&mut sink.state.lock().expect("sink lock poisoned").proposals);
    let seen_hw = seen_hw.lock().expect("hw list lock poisoned").clone();
    Ok(TracedRep {
        wall,
        report,
        outcome,
        proposals,
        seen_hw,
    })
}

/// Replays every software search of the traced repetition with the
/// sampler, the feature map, `suggest`, `observe` and `evaluate` timed,
/// and checks each against [`optimize_schedule`] on the same RNG stream.
/// Returns the number of searches that disagreed.
fn replica(
    spec: &RunSpec,
    models: &[Model],
    pairs: &[(u64, HardwareConfig)],
    rec: &Arc<Recorder>,
) -> Result<usize, String> {
    let cfg = spec.to_codesign_config().map_err(err)?;
    let sw_cfg = SwSearchConfig {
        samples: cfg.sw_samples(),
        objective: cfg.objective(),
        variant: cfg.variant(),
    };
    let ambient = Arc::new(Ambient::default());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let engine = timed_engine(&spec.backend, rec, &ambient, &seen)?;
    let reference = spec.build_engine().map_err(err)?;
    let layers: Vec<ConvLayer> = models
        .iter()
        .flat_map(|m| m.layers().iter().map(|e| e.layer))
        .collect();
    let sample_fold = Rc::new(RefCell::new(Fold::default()));
    let feature_fold = Rc::new(RefCell::new(Fold::default()));
    let mut mismatches = 0;
    let mut job = 0u64;
    for &(stream, hw) in pairs {
        for (ordinal, layer) in layers.iter().enumerate() {
            job += 1;
            let seed = layer_stream_seed(cfg.seed(), stream, ordinal as u64);
            let (search_id, search_start) = (rec.new_id(), rec.now_ns());
            let layer = *layer;
            let sampler = {
                let (rec, f) = (Arc::clone(rec), Rc::clone(&sample_fold));
                move |rng: &mut dyn rand::RngCore| {
                    let t0 = rec.now_ns();
                    let s = sample_schedule_guided(rng, &layer, &hw);
                    f.borrow_mut().add(t0, rec.now_ns());
                    s
                }
            };
            let features = {
                let (rec, f) = (Arc::clone(rec), Rc::clone(&feature_fold));
                FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
                    let t0 = rec.now_ns();
                    let v = sw_features(&hw, s, &layer);
                    f.borrow_mut().add(t0, rec.now_ns());
                    v
                })
            };
            let mut dabo = Dabo::new(DaboConfig::default(), features, sampler);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut best: Option<(Schedule, CostReport)> = None;
            let mut fit = Fold::default();
            for _ in 0..sw_cfg.samples {
                let (id, start) = (rec.new_id(), rec.now_ns());
                let fit_before = dabo.surrogate_timers().map_or(Duration::ZERO, |t| t.fit);
                let sched = dabo.suggest(&mut rng);
                let fit_now = dabo.surrogate_timers().map_or(Duration::ZERO, |t| t.fit);
                let end = rec.now_ns();
                if fit_now > fit_before {
                    fit.add_busy(start, end, (fit_now - fit_before).as_nanos() as u64);
                }
                fit.flush(rec, id, job, "dabo.fit");
                sample_fold
                    .borrow_mut()
                    .flush(rec, id, job, "swsearch.sample");
                feature_fold.borrow_mut().flush(rec, id, job, "features.sw");
                rec.finish(id, search_id, job, "dabo.suggest", start);

                let (id, start) = (rec.new_id(), rec.now_ns());
                CALLER.with(|c| c.set((id, job)));
                let result = engine.evaluate(&hw, &sched, &layer);
                CALLER.with(|c| c.set((ROOT, 0)));
                rec.finish(id, search_id, job, "eval.evaluate", start);
                let cost = match result {
                    Ok(report) => {
                        let value = report.objective(sw_cfg.objective);
                        if best
                            .as_ref()
                            .is_none_or(|(_, b)| value < b.objective(sw_cfg.objective))
                        {
                            best = Some((sched, report));
                        }
                        value
                    }
                    Err(_) => f64::INFINITY,
                };

                let (id, start) = (rec.new_id(), rec.now_ns());
                dabo.observe_noisy(sched, cost, 0.0);
                feature_fold.borrow_mut().flush(rec, id, job, "features.sw");
                rec.finish(id, search_id, job, "dabo.observe", start);
            }
            rec.finish(search_id, ROOT, job, "swsearch.search", search_start);
            let trace = Trace::from_costs(dabo.history());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let expected = optimize_schedule(&reference, &hw, &layer, &sw_cfg, &mut rng);
            if expected.best != best || expected.trace != trace {
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

/// Per-call mean of a span total, in µs.
fn per_call_us(t: Option<&Totals>, pick: fn(&Totals) -> u64) -> f64 {
    t.filter(|t| t.calls > 0)
        .map_or(0.0, |t| pick(t) as f64 / t.calls as f64 / 1e3)
}

fn traced(args: &Args, spec: &RunSpec, journal: Option<&str>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let models = spec.resolve_models().map_err(err)?;
    setup(spec, journal)?;

    // Untraced reference, then the spec at the other thread count.
    let Rep {
        wall: wall_plain,
        report,
        outcome: plain,
        ..
    } = rep(spec, journal)?;
    let other = RunSpec {
        threads: if spec.threads == 1 { 2 } else { 1 },
        ..spec.clone()
    };
    let Rep {
        wall: wall_other,
        report: report_other,
        ..
    } = rep(&other, journal)?;
    let (wall_1, wall_2) = if spec.threads == 1 {
        (wall_plain, wall_other)
    } else {
        (wall_other, wall_plain)
    };

    let rec = Arc::new(Recorder::default());
    let traced = traced_rep(spec, &models, journal, &rec)?;
    let journal_bytes = journal
        .and_then(|j| std::fs::metadata(j).ok())
        .map_or(0, |m| m.len());
    let run_spans = rec.spans();

    // Replay every admitted sample's software searches.
    let pairs: Vec<(u64, HardwareConfig)> = traced
        .proposals
        .iter()
        .filter(|p| p.admitted)
        .filter_map(|p| {
            let hw = traced.seen_hw.iter().find(|h| h.to_string() == p.hw)?;
            Some((p.index, *hw))
        })
        .collect();
    let replica_rec = Arc::new(Recorder::default());
    let mismatches = replica(spec, &models, &pairs, &replica_rec)?;
    let replica_spans = replica_rec.spans();

    out.attempted = 3;
    out.failed = [&plain, &traced.outcome]
        .iter()
        .filter(|o| o.status != RunStatus::Complete)
        .count() as u64;
    let s = &traced.outcome.stats;
    out.check(
        format!(
            "report identical at {} and {} threads",
            spec.threads, other.threads
        ),
        report == report_other,
    );
    out.check(
        "traced report identical to untraced",
        traced.report == report,
    );
    out.check(
        "evaluations == cache_hits + cache_misses",
        s.evaluations == s.cache_hits + s.cache_misses,
    );
    out.check(
        "every admitted hardware sample replayed",
        !pairs.is_empty() && pairs.len() == traced.proposals.iter().filter(|p| p.admitted).count(),
    );
    out.check(
        format!(
            "replica search equals optimize_schedule ({} searches)",
            pairs.len() * models.iter().map(|m| m.layers().len()).sum::<usize>()
        ),
        mismatches == 0,
    );

    let run = totals(&run_spans);
    let rep = totals(&replica_spans);
    let evals = s.evaluations.max(1) as f64;
    out.metric("eval.evaluations", s.evaluations as f64);
    out.metric("eval.cache_hit_ratio", s.cache_hits as f64 / evals);
    out.metric("eval.infeasible_ratio", s.infeasible as f64 / evals);
    out.metric(
        "eval.backend_us",
        per_call_us(run.get("eval.backend"), |t| t.busy_ns),
    );
    out.metric(
        "eval.backend_busy_s",
        run.get("eval.backend")
            .map_or(0.0, |t| t.busy_ns as f64 / 1e9),
    );
    out.metric(
        "eval.engine_self_us",
        per_call_us(rep.get("eval.evaluate"), |t| t.self_ns),
    );
    out.metric(
        "codesign.hw_sample_ms",
        per_call_us(run.get("codesign.hw_sample"), |t| t.busy_ns) / 1e3,
    );
    out.metric("codesign.thread_speedup", wall_1 / wall_2);
    out.metric(
        "codesign.phase_overcount",
        phase(&plain, "acquisition") / wall_plain,
    );
    if journal.is_some() {
        out.metric(
            "obs.journal_record_us",
            per_call_us(run.get("obs.journal_record"), |t| t.busy_ns),
        );
        out.metric(
            "obs.journal_flush_us",
            per_call_us(run.get("obs.journal_flush"), |t| t.busy_ns),
        );
        out.metric("obs.journal_bytes_per_eval", journal_bytes as f64 / evals);
    }
    let sample = rep.get("swsearch.sample");
    out.metric("swsearch.sample_us", per_call_us(sample, |t| t.busy_ns));
    out.metric(
        "swsearch.sample_calls",
        sample.map_or(0, |t| t.calls) as f64,
    );
    let search_ns = rep.get("swsearch.search").map_or(0, |t| t.busy_ns).max(1);
    out.metric(
        "swsearch.sampler_share",
        sample.map_or(0, |t| t.self_ns) as f64 / search_ns as f64,
    );
    let features = rep.get("features.sw");
    out.metric("features.sw_us", per_call_us(features, |t| t.busy_ns));
    out.metric("features.calls", features.map_or(0, |t| t.calls) as f64);
    let suggest = rep.get("dabo.suggest");
    out.metric("dabo.rank_us", per_call_us(suggest, |t| t.self_ns));
    out.metric("dabo.suggests", suggest.map_or(0, |t| t.calls) as f64);
    let observes = rep.get("dabo.observe").map_or(0, |t| t.calls).max(1);
    out.metric(
        "dabo.fit_us",
        rep.get("dabo.fit")
            .map_or(0.0, |t| t.busy_ns as f64 / observes as f64 / 1e3),
    );
    out.metric("trace.overhead_s", traced.wall - wall_plain);

    println!(
        "walls         : untraced {wall_plain:.4} s, traced {:.4} s, 1 thread {wall_1:.4} s, 2 threads {wall_2:.4} s",
        traced.wall
    );
    println!(
        "phases        : acquisition {:.4} s, sw_search {:.4} s (program-reported) vs measured wall {wall_plain:.4} s",
        phase(&plain, "acquisition"),
        phase(&plain, "sw_search")
    );
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut spans = run_spans;
    spans.extend(replica_spans.iter().map(|s| crate::trace::Span {
        id: s.id + (1 << 40),
        parent: if s.parent == ROOT {
            ROOT
        } else {
            s.parent + (1 << 40)
        },
        ..*s
    }));
    write_jsonl(&spans, &path).map_err(err)?;
    println!(
        "spans         : {} written to {}",
        spans.len(),
        path.display()
    );
    Ok(out)
}
