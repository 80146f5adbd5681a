//! The `serve-open` workload: a `serve` daemon fed open-loop.
//!
//! The daemon is this binary re-run as `daemon`, which drives the same
//! runtime calls as `spotlight-cli serve` (two workers, a fresh state
//! dir, a Unix socket). The generator is this process: one thread sends
//! `submit` frames on a seeded schedule over one connection and
//! reads their acks between sends; a second thread polls job status and
//! scrapes `metrics` over a second connection.
//!
//! Jobs are tiny (`--hw 1 --sw 4`). Half are fresh maestro jobs with
//! distinct seeds. The other half resubmit, under a fresh idempotency
//! key, one of a pool of sim-backend specs that set-up ran once, so every
//! evaluation in them is a cross-job cache hit.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight_runtime::{
    bind, fsck_store, metric_value, serve_loop, JobId, JobState, JobStore, Request, Response,
    RunSpec, SchedulerOptions, ServeOptions, Server,
};

use crate::loadgen::{assess, schedule, JobTimes, Phase, LAG_LIMIT_MS, LATENCY_LIMIT_MS};
use crate::stats::{median, percentile};
use crate::trace::{write_jsonl, Recorder, Span, ROOT};
use crate::{err, out_dir, peak_rss_mb, Args, Outcome};

const MODELS: [&str; 5] = ["vgg16", "resnet50", "mobilenetv2", "mnasnet", "transformer"];
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Jobs per ladder phase: enough for a p99 with ten samples beyond it.
const PHASE_JOBS: usize = 1000;
/// Share of `--seconds` the nominal phase takes; it never has fewer
/// than [`PHASE_JOBS`] jobs.
const NOMINAL_SHARE: f64 = 2.0 / 3.0;
/// The nominal rate, jobs/s.
const NOMINAL_RATE: f64 = 100.0;
/// Bursts per run; `wall_s` reports the median drain time.
const BURSTS: usize = 3;
/// Jobs per burst.
const BURST_JOBS: usize = 500;
/// The ×2 rate ladder climbed above the nominal rate while it meets the
/// limit; the rate below it is tried only when the nominal rate fails.
const LADDER_UP: [f64; 3] = [200.0, 400.0, 800.0];
const LADDER_DOWN: f64 = 50.0;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// Each outstanding job is polled at most this often.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// How long the sender waits for a waiting ack after each send.
const ACK_PEEK: Duration = Duration::from_micros(50);
/// The `metrics` scrape period.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// How long a phase may run past its last due time before its
/// unfinished jobs count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Store operations the traced run times.
const STORE_OPS: usize = 1000;

/// `daemon --listen <addr> --state-dir <dir>`: the `spotlight-cli serve`
/// start-up with [`WORKERS`] workers, minus its test hooks.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut listen = None;
    let mut dir = None;
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--listen", Some(v)) => listen = Some(v.clone()),
            ("--state-dir", Some(v)) => dir = Some(PathBuf::from(v)),
            (flag, _) => return Err(format!("bad daemon flag `{flag}`")),
        }
    }
    let server = Arc::new(
        Server::new(SchedulerOptions {
            workers: WORKERS,
            slice: 2,
            dir: dir.ok_or("missing --state-dir")?,
            kill_after: None,
            max_jobs: None,
            disk_faults: None,
        })
        .map_err(err)?,
    );
    // The benchmark stops this daemon with `shutdown`, or kills it when
    // a run fails. If the benchmark itself is killed, nobody will: exit
    // once this process is re-parented. The watchdog is never joined; it
    // ends with the process.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(500));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
    });
    let (listener, addr) = bind(&listen.ok_or("missing --listen")?).map_err(err)?;
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(err)?;
    serve_loop(listener, server, ServeOptions::default()).map_err(err)
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// A response line read only in part before a read timed out.
    partial: String,
}

impl Conn {
    fn open(sock: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(sock).map_err(|e| format!("{}: {e}", sock.display()))?;
        let reader = BufReader::new(writer.try_clone().map_err(err)?);
        Ok(Conn {
            reader,
            writer,
            partial: String::new(),
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(err)
    }

    /// Reads one response, waiting at most `wait` (forever for `None`).
    /// `Ok(None)` means the wait ran out first.
    fn recv(&mut self, wait: Option<Duration>) -> Result<Option<Response>, String> {
        self.writer
            .set_read_timeout(wait.map(|w| w.max(Duration::from_micros(50))))
            .map_err(err)?;
        match self.reader.read_line(&mut self.partial) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) if self.partial.ends_with('\n') => {
                let line = std::mem::take(&mut self.partial);
                Response::parse_line(line.trim_end()).map(Some)
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(err(e)),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        loop {
            if let Some(r) = self.recv(None)? {
                return Ok(r);
            }
        }
    }
}

/// A running daemon child process.
struct Daemon {
    child: Child,
    sock: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Result<Daemon, String> {
        let dir = out_dir().join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        let sock = dir.join("sock");
        let stderr = std::fs::File::create(dir.join("daemon.err")).map_err(err)?;
        let exe = std::env::current_exe().map_err(err)?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--state-dir")
            .arg(dir.join("state"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(err)?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line).map_err(err)?;
        let daemon = Daemon { child, sock, dir };
        if !line.starts_with("listening on") {
            return Err(format!("daemon did not start: {line:?}"));
        }
        match Conn::open(&daemon.sock)?.call(&Request::Ping)? {
            Response::Pong => Ok(daemon),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    fn state_dir(&self) -> PathBuf {
        self.dir.join("state")
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Shuts the daemon down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let answer = Conn::open(&self.sock)?.call(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait().map_err(err)?.is_none() {
            if Instant::now() > deadline {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        match answer? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The two job classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeat(usize),
}

/// One job to submit.
#[derive(Debug, Clone)]
struct JobSpec {
    class: Class,
    spec: String,
    key: String,
}

fn job_spec(model: &str, seed: u64, backend: &str) -> String {
    format!("--model {model} --hw 1 --sw 4 --seed {seed} --backend {backend} --threads 1")
}

/// The repeat pool: one sim-backend spec per model.
fn pool() -> Vec<String> {
    MODELS
        .iter()
        .enumerate()
        .map(|(i, m)| job_spec(m, 1000 + i as u64, "sim"))
        .collect()
}

/// FNV-1a: distinct names give distinct fresh-job seeds.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `n` jobs, half fresh and half repeat, in a seeded order. The fresh
/// jobs of a phase are a fixed set, an even split over the models with
/// distinct search seeds, so the work offered does not drift between
/// workload seeds; the seed decides their order and the arrival times.
fn mix(rng: &mut ChaCha8Rng, seed: u64, phase: &str, n: usize, pool: &[String]) -> Vec<JobSpec> {
    let mut classes: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    classes.shuffle(rng);
    let mut fresh: Vec<String> = (0..n.div_ceil(2))
        .map(|i| {
            let model = MODELS[i % MODELS.len()];
            let job_seed = fnv1a(&format!("{phase}-{model}-{i}"));
            job_spec(model, job_seed, "maestro")
        })
        .collect();
    fresh.shuffle(rng);
    let mut fresh = fresh.into_iter();
    classes
        .into_iter()
        .enumerate()
        .map(|(i, is_fresh)| {
            let key = format!("{phase}-{seed}-{i}");
            if is_fresh {
                JobSpec {
                    class: Class::Fresh,
                    spec: fresh.next().expect("one spec per fresh job"),
                    key,
                }
            } else {
                let k = i % pool.len();
                JobSpec {
                    class: Class::Repeat(k),
                    spec: pool[k].clone(),
                    key,
                }
            }
        })
        .collect()
}

/// What the generator saw of one job, seconds from the phase start.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    sent: Option<f64>,
    acked: Option<f64>,
    id: Option<JobId>,
    /// First poll that saw the job past `queued`.
    started: Option<f64>,
    done: Option<f64>,
    /// Refused, failed, cancelled or quarantined.
    lost: bool,
    best_cost: Option<f64>,
    last_poll: Option<Instant>,
}

/// A finished rate phase.
struct PhaseRun {
    /// The phase's time origin: due times count from here.
    start: Instant,
    /// Due times, seconds from `start`.
    dues: Vec<f64>,
    phase: Phase,
    tracks: Vec<Track>,
    jobs: Vec<JobSpec>,
    submit_rtt_ms: Vec<f64>,
    status_rtt_ms: Vec<f64>,
    backlog_max: f64,
    /// The last `metrics` page scraped.
    metrics: String,
}

/// Runs one open-loop phase: `jobs` due at `dues` (seconds from start).
fn run_phase(sock: &Path, jobs: Vec<JobSpec>, dues: &[f64], rate: f64) -> Result<PhaseRun, String> {
    let n = jobs.len();
    let tracks = Mutex::new(vec![Track::default(); n]);
    let sender_done = AtomicBool::new(false);
    let mut submit = Conn::open(sock)?;
    let mut reads = Conn::open(sock)?;
    let start = Instant::now() + Duration::from_millis(20);
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let last_due = dues.last().copied().unwrap_or(0.0);
    let give_up = start + Duration::from_secs_f64(last_due) + DRAIN_LIMIT;

    let poller = || -> Result<(Vec<f64>, f64, String), String> {
        let mut status_rtt = Vec::new();
        let mut backlog_max = 0.0f64;
        let mut page = String::new();
        let mut next_scrape = start;
        loop {
            let now = Instant::now();
            if now >= next_scrape {
                if let Response::Metrics { text } = reads.call(&Request::Metrics)? {
                    let queued = metric_value(&text, "spotlight_jobs{state=\"queued\"}");
                    backlog_max = backlog_max.max(queued.unwrap_or(0.0));
                    page = text;
                }
                next_scrape = now + SCRAPE_EVERY;
            }
            let due: Vec<(usize, JobId)> = {
                let mut tr = tracks.lock().expect("track lock poisoned");
                tr.iter_mut()
                    .enumerate()
                    .filter(|(_, t)| t.done.is_none() && !t.lost)
                    .filter_map(|(i, t)| {
                        let id = t.id?;
                        if t.last_poll
                            .is_some_and(|p| now.duration_since(p) < POLL_EVERY)
                        {
                            return None;
                        }
                        t.last_poll = Some(now);
                        Some((i, id))
                    })
                    .collect()
            };
            for (i, id) in &due {
                let t0 = Instant::now();
                let resp = reads.call(&Request::Status { job: *id })?;
                let t1 = Instant::now();
                status_rtt.push((t1 - t0).as_secs_f64() * 1e3);
                let mut tr = tracks.lock().expect("track lock poisoned");
                let track = &mut tr[*i];
                match resp {
                    Response::Status(st) => {
                        if st.state != JobState::Queued && track.started.is_none() {
                            track.started = Some(secs(t1));
                        }
                        match st.state {
                            JobState::Completed => {
                                track.done = Some(secs(t1));
                                track.best_cost = st.best_cost;
                            }
                            JobState::Failed | JobState::Cancelled | JobState::Corrupt => {
                                track.lost = true;
                            }
                            JobState::Queued | JobState::Running => {}
                        }
                    }
                    other => return Err(format!("status answered {other:?}")),
                }
            }
            let finished = sender_done.load(Ordering::SeqCst)
                && tracks
                    .lock()
                    .expect("track lock poisoned")
                    .iter()
                    .all(|t| t.done.is_some() || t.lost);
            if finished || Instant::now() > give_up {
                return Ok((status_rtt, backlog_max, page));
            }
            if due.is_empty() {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    };

    let mut sender = || -> Result<Vec<f64>, String> {
        let mut submit_rtt = Vec::with_capacity(n);
        let mut pending = std::collections::VecDeque::with_capacity(n);
        let mut on_ack = |resp: Response,
                          now: Instant,
                          pending: &mut std::collections::VecDeque<usize>|
         -> Result<(), String> {
            let i = pending.pop_front().ok_or("ack without a pending submit")?;
            let mut tr = tracks.lock().expect("track lock poisoned");
            let t = &mut tr[i];
            t.acked = Some(secs(now));
            submit_rtt.push((secs(now) - t.sent.unwrap_or(0.0)) * 1e3);
            match resp {
                Response::Submitted {
                    job,
                    deduped: false,
                } => t.id = Some(job),
                _ => t.lost = true,
            }
            Ok(())
        };
        for (i, job) in jobs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(dues[i]);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if pending.is_empty() {
                    std::thread::sleep(due - now);
                } else if let Some(resp) = submit.recv(Some(due - now))? {
                    on_ack(resp, Instant::now(), &mut pending)?;
                }
            }
            let sent = Instant::now();
            tracks.lock().expect("track lock poisoned")[i].sent = Some(secs(sent));
            submit.send(&Request::Submit {
                spec: job.spec.clone(),
                key: Some(job.key.clone()),
            })?;
            pending.push_back(i);
            // Read the acks already waiting, so a burst never stalls the
            // daemon on a full socket.
            while let Some(resp) = submit.recv(Some(ACK_PEEK))? {
                on_ack(resp, Instant::now(), &mut pending)?;
            }
        }
        while !pending.is_empty() {
            let wait = give_up.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                break;
            }
            if let Some(resp) = submit.recv(Some(wait))? {
                on_ack(resp, Instant::now(), &mut pending)?;
            }
        }
        let mut tr = tracks.lock().expect("track lock poisoned");
        for &i in &pending {
            tr[i].lost = true;
        }
        Ok(submit_rtt)
    };

    let (submit_rtt, polled) = std::thread::scope(|scope| {
        let poll = scope.spawn(poller);
        let sent = sender();
        sender_done.store(true, Ordering::SeqCst);
        (sent, poll.join().expect("poller thread panicked"))
    });
    let submit_rtt = submit_rtt?;
    let (status_rtt, backlog_max, metrics) = polled?;
    let end = secs(Instant::now());
    let tracks = tracks.into_inner().expect("track lock poisoned");
    let times: Vec<JobTimes> = tracks
        .iter()
        .zip(dues)
        .map(|(t, &due)| JobTimes {
            due,
            sent: t.sent.unwrap_or(end),
            done: t.done.filter(|_| !t.lost),
        })
        .collect();
    Ok(PhaseRun {
        start,
        dues: dues.to_vec(),
        phase: assess(&times, rate, end),
        tracks,
        jobs,
        submit_rtt_ms: submit_rtt,
        status_rtt_ms: status_rtt,
        backlog_max,
        metrics,
    })
}

/// Submits the repeat pool once and waits for every report: the cold
/// runs whose evaluations later repeats hit in the shared cache.
fn warm_pool(sock: &Path, pool: &[String], tag: &str) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(sock)?;
    let mut ids = Vec::new();
    for (i, spec) in pool.iter().enumerate() {
        match conn.call(&Request::Submit {
            spec: spec.clone(),
            key: Some(format!("pool-{tag}-{i}")),
        })? {
            Response::Submitted { job, .. } => ids.push(job),
            other => return Err(format!("pool submit answered {other:?}")),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut reports = Vec::new();
    for id in ids {
        loop {
            match conn.call(&Request::Status { job: id })? {
                Response::Status(st) if st.state == JobState::Completed => break,
                Response::Status(st) if st.state.is_terminal() => {
                    return Err(format!("pool job {id} ended {}", st.state.as_str()))
                }
                _ if Instant::now() > deadline => return Err("pool warm-up timed out".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        reports.push(report(&mut conn, id)?);
    }
    Ok(reports)
}

fn report(conn: &mut Conn, id: JobId) -> Result<String, String> {
    match conn.call(&Request::Report { job: id })? {
        Response::Report { text, .. } => Ok(text),
        other => Err(format!("report answered {other:?}")),
    }
}

/// Every repeat job's report equals its set-up original.
fn repeats_identical(sock: &Path, run: &PhaseRun, originals: &[String]) -> Result<bool, String> {
    let mut conn = Conn::open(sock)?;
    for (job, track) in run.jobs.iter().zip(&run.tracks) {
        if let (Class::Repeat(k), Some(id)) = (job.class, track.id) {
            if track.done.is_some() && report(&mut conn, id)? != originals[k] {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// One set-up: start a daemon and warm the repeat pool.
fn setup(pool: &[String], tag: &str) -> Result<(Daemon, Vec<String>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(tag)?;
    let originals = warm_pool(&daemon.sock, pool, tag)?;
    Ok((daemon, originals, t.elapsed().as_secs_f64()))
}

/// Starts [`SETUPS`] daemons, keeps the last, and returns it with its
/// pool reports and the median set-up time. Checks that every set-up
/// produced the same pool reports.
fn setups(pool: &[String], out: &mut Outcome) -> Result<(Daemon, Vec<String>, f64), String> {
    let mut times = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let mut kept: Option<(Daemon, Vec<String>)> = None;
    let mut same = true;
    for k in 0..SETUPS {
        if let Some((old, _)) = kept.take() {
            old.stop()?;
        }
        let (daemon, originals, t) = setup(pool, &k.to_string())?;
        times.push(t);
        same &= *first.get_or_insert_with(|| originals.clone()) == originals;
        kept = Some((daemon, originals));
    }
    out.check("repeat-pool reports identical across set-ups", same);
    out.attempted += (pool.len() * SETUPS) as u64;
    let (daemon, originals) = kept.expect("at least one set-up");
    Ok((daemon, originals, median(&times)))
}

/// Runs an open-loop phase of `n` jobs at `rate`.
fn phase_at(
    daemon: &Daemon,
    rng: &mut ChaCha8Rng,
    seed: u64,
    name: &str,
    rate: f64,
    n: usize,
    pool: &[String],
) -> Result<PhaseRun, String> {
    let jobs = mix(rng, seed, &format!("{name}{rate}"), n, pool);
    let dues = schedule(rng, rate, jobs.len());
    let run = run_phase(&daemon.sock, jobs, &dues, rate)?;
    println!(
        "phase {name:<8}: {rate:>4} jobs/s, p50 {:.3} ms, p{} {:.3} ms, completed {:.1}/s, \
         lag max {:.3} ms{}{}",
        run.phase.p50_ms,
        run.phase.tail_pct,
        run.phase.tail_ms,
        run.phase.completion_rate,
        run.phase.lag_max_ms,
        if run.phase.valid() {
            ""
        } else {
            ", INVALID (generator lagged)"
        },
        if run.phase.meets_limit() {
            ", meets limit"
        } else {
            ", misses limit"
        },
    );
    Ok(run)
}

/// Sends a burst of [`BURST_JOBS`] jobs at once and returns the phase;
/// its wall is the time the daemon took to drain it.
fn burst(
    daemon: &Daemon,
    rng: &mut ChaCha8Rng,
    seed: u64,
    k: usize,
    pool: &[String],
) -> Result<PhaseRun, String> {
    let jobs = mix(rng, seed, &format!("burst{k}-"), BURST_JOBS, pool);
    let dues = vec![0.0; jobs.len()];
    let run = run_phase(&daemon.sock, jobs, &dues, f64::INFINITY)?;
    println!(
        "burst {k}       : {BURST_JOBS} jobs drained in {:.4} s ({:.1} jobs/s)",
        run.phase.wall_s, run.phase.completion_rate
    );
    Ok(run)
}

/// Climbs the rate ladder from a nominal phase: doubles the rate while a
/// phase meets the limit, or tries the rate below when the nominal one
/// misses it. Returns the completion rate of the highest phase that met
/// the limit (0 if none did) and the phases run.
fn ladder(
    daemon: &Daemon,
    rng: &mut ChaCha8Rng,
    seed: u64,
    nominal: &PhaseRun,
    pool: &[String],
) -> Result<(f64, Vec<PhaseRun>), String> {
    let passed = |r: &PhaseRun| r.phase.valid() && r.phase.meets_limit();
    let mut runs = Vec::new();
    if !nominal.phase.valid() {
        return Ok((0.0, runs));
    }
    if !passed(nominal) {
        let run = phase_at(daemon, rng, seed, "ladder", LADDER_DOWN, PHASE_JOBS, pool)?;
        let ok = if passed(&run) {
            run.phase.completion_rate
        } else {
            0.0
        };
        runs.push(run);
        return Ok((ok, runs));
    }
    let mut ok = nominal.phase.completion_rate;
    for rate in LADDER_UP {
        let run = phase_at(daemon, rng, seed, "ladder", rate, PHASE_JOBS, pool)?;
        let pass = passed(&run);
        if pass {
            ok = run.phase.completion_rate;
        }
        runs.push(run);
        if !pass {
            break;
        }
    }
    Ok((ok, runs))
}

fn account(out: &mut Outcome, run: &PhaseRun) {
    out.attempted += run.jobs.len() as u64;
    out.failed += run.phase.failed as u64;
}

/// Geometric mean of the fresh jobs' best EDP.
fn fresh_edp(run: &PhaseRun) -> f64 {
    let logs: Vec<f64> = run
        .jobs
        .iter()
        .zip(&run.tracks)
        .filter(|(j, _)| j.class == Class::Fresh)
        .filter_map(|(_, t)| t.best_cost)
        .filter(|c| c.is_finite() && *c > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Stops the daemon and checks its state dir. The dir is left in place:
/// deleting thousands of job files makes the next run's fsyncs slow on a
/// filesystem mounted with `discard`.
fn finish(daemon: Daemon, out: &mut Outcome) -> Result<(), String> {
    let state = daemon.state_dir();
    daemon.stop()?;
    let fsck = fsck_store(&state, false).map_err(err)?;
    out.check(
        format!("fsck clean after the run ({} jobs)", fsck.jobs.len()),
        fsck.is_clean(),
    );
    Ok(())
}

/// Jobs in the nominal phase.
fn nominal_jobs(args: &Args) -> usize {
    ((args.seconds * NOMINAL_SHARE * NOMINAL_RATE) as usize).max(PHASE_JOBS)
}

/// Runs the `serve-open` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let pool = pool();
    let (daemon, originals, setup_s) = setups(&pool, &mut out)?;

    let nominal = phase_at(
        &daemon,
        &mut rng,
        args.seed,
        "nominal",
        NOMINAL_RATE,
        nominal_jobs(args),
        &pool,
    )?;
    // Memory grows with the jobs a daemon holds, so it is read at the
    // same point of every run: after the nominal phase.
    let rss = daemon.peak_rss_mb()?;
    let mut runs = vec![nominal];
    for k in 0..BURSTS {
        runs.push(burst(&daemon, &mut rng, args.seed, k, &pool)?);
    }
    let mut repeats_ok = true;
    for r in &runs {
        account(&mut out, r);
        repeats_ok &= repeats_identical(&daemon.sock, r, &originals)?;
    }
    finish(daemon, &mut out)?;

    let nominal = &runs[0];
    let drains: Vec<f64> = runs[1..].iter().map(|r| r.phase.wall_s).collect();
    out.check(
        "every serve-open job completed",
        runs.iter().all(|r| r.phase.failed == 0),
    );
    out.check(
        "repeat reports byte-identical to their set-up originals",
        repeats_ok,
    );
    out.metric("setup_s", setup_s);
    out.metric("wall_s", median(&drains));
    out.metric("best_edp", fresh_edp(nominal));
    out.metric("peak_rss_mb", rss);
    Ok(out)
}

/// p50 and p99 (nearest rank) of a sample, ms.
fn p50_p99(v: &[f64]) -> (f64, f64) {
    (percentile(v, 50.0), percentile(v, 99.0))
}

/// Times [`STORE_OPS`] job lifecycles on a scratch [`JobStore`]:
/// `create`, a `running` WAL append, and `record_completed` with a real
/// report. The store is left in place, as the daemon's state dirs are.
fn store_ops(report: &str) -> Result<[Vec<f64>; 3], String> {
    let dir = out_dir().join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = JobStore::open(&dir).map_err(err)?;
    let spec = RunSpec::parse_str(&job_spec("mnasnet", 1, "maestro")).map_err(err)?;
    let mut times: [Vec<f64>; 3] = Default::default();
    for i in 0..STORE_OPS {
        let t = Instant::now();
        let (id, _) = store.create(&spec, Some(&format!("k{i}"))).map_err(err)?;
        times[0].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        store
            .record_state(id, JobState::Running, 1, 0)
            .map_err(err)?;
        times[1].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        store.record_completed(id, report, 1.0, 1, 1).map_err(err)?;
        times[2].push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

/// Records one job's spans: the job from due to done, its submit round
/// trip, its queue wait and its run.
fn job_spans(rec: &Recorder, run: &PhaseRun) {
    let base_ns = rec.ns_of(run.start);
    let ns = |s: f64| base_ns + (s.max(0.0) * 1e9) as u64;
    let span = |parent, job, name, a: f64, b: f64| {
        let (start_ns, end_ns) = (ns(a), ns(b.max(a)));
        let id = rec.new_id();
        rec.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
            calls: 1,
            folded: false,
            busy_ns: end_ns - start_ns,
        });
        id
    };
    for (t, &due) in run.tracks.iter().zip(&run.dues) {
        let (Some(sent), Some(acked), Some(id), Some(done)) = (t.sent, t.acked, t.id, t.done)
        else {
            continue;
        };
        let root = span(ROOT, id, "serve.job", due, done);
        span(root, id, "loadgen.lag", due, sent);
        span(root, id, "proto.submit", sent, acked);
        let started = t.started.unwrap_or(done);
        span(root, id, "scheduler.queue_wait", acked, started);
        span(root, id, "serve.run", started, done);
    }
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let pool = pool();
    let t = Instant::now();
    let (daemon, originals, _) = setup(&pool, "traced")?;
    println!("setup         : {:.4} s", t.elapsed().as_secs_f64());
    out.attempted += pool.len() as u64;

    let plain = phase_at(
        &daemon,
        &mut rng,
        args.seed,
        "nominal",
        NOMINAL_RATE,
        nominal_jobs(args),
        &pool,
    )?;
    let rec = Recorder::default();
    let run = phase_at(
        &daemon,
        &mut rng,
        args.seed,
        "traced",
        NOMINAL_RATE,
        nominal_jobs(args),
        &pool,
    )?;
    job_spans(&rec, &run);
    let (max_ok, climbed) = ladder(&daemon, &mut rng, args.seed, &run, &pool)?;
    let mut repeats_ok = true;
    let mut all_complete = true;
    for r in [&plain, &run].into_iter().chain(&climbed) {
        account(&mut out, r);
        all_complete &= r.phase.failed == 0;
        repeats_ok &= repeats_identical(&daemon.sock, r, &originals)?;
    }
    let store = store_ops(&originals[0])?;
    finish(daemon, &mut out)?;

    out.check("every serve-open job completed", all_complete);
    out.check(
        "repeat reports byte-identical to their set-up originals",
        repeats_ok,
    );
    println!(
        "limit         : p{} <= {LATENCY_LIMIT_MS} ms over {} jobs per ladder phase, generator \
         lag <= {LAG_LIMIT_MS} ms; max ok rate is the completion rate of the highest phase \
         that met the limit",
        run.phase.tail_pct, PHASE_JOBS
    );
    out.metric("serve.job_p50_ms", run.phase.p50_ms);
    out.metric("serve.job_p99_ms", run.phase.tail_ms);
    out.metric("serve.max_ok_rate_jobs_s", max_ok);

    let m = |name: &str| metric_value(&run.metrics, name).unwrap_or(0.0);
    let evals = m("spotlight_evaluations_total");
    out.metric("eval.evaluations", evals);
    out.metric(
        "eval.cache_hit_ratio",
        m("spotlight_cache_hits_total") / evals.max(1.0),
    );
    out.metric(
        "eval.infeasible_ratio",
        m("spotlight_infeasible_total") / evals.max(1.0),
    );
    for (i, (p50, p99)) in [
        ("store.create_p50_ms", "store.create_p99_ms"),
        ("store.wal_append_p50_ms", "store.wal_append_p99_ms"),
        ("store.complete_p50_ms", "store.complete_p99_ms"),
    ]
    .into_iter()
    .enumerate()
    {
        let (a, b) = p50_p99(&store[i]);
        out.metric(p50, a);
        out.metric(p99, b);
    }
    let waits: Vec<f64> = run
        .tracks
        .iter()
        .filter_map(|t| Some((t.started? - t.acked?).max(0.0) * 1e3))
        .collect();
    let (a, b) = p50_p99(&waits);
    out.metric("scheduler.queue_wait_p50_ms", a);
    out.metric("scheduler.queue_wait_p99_ms", b);
    out.metric("scheduler.backlog_max", run.backlog_max);
    let (a, b) = p50_p99(&run.submit_rtt_ms);
    out.metric("proto.submit_rtt_p50_ms", a);
    out.metric("proto.submit_rtt_p99_ms", b);
    let (a, b) = p50_p99(&run.status_rtt_ms);
    out.metric("proto.status_rtt_p50_ms", a);
    out.metric("proto.status_rtt_p99_ms", b);
    let class_p50 = |fresh: bool| {
        let v: Vec<f64> = run
            .jobs
            .iter()
            .zip(&run.phase.latencies_ms)
            .filter(|(j, _)| (j.class == Class::Fresh) == fresh)
            .map(|(_, l)| *l)
            .collect();
        median(&v)
    };
    out.metric("serve.fresh_job_p50_ms", class_p50(true));
    out.metric("serve.repeat_job_p50_ms", class_p50(false));
    out.metric("loadgen.lag_max_ms", run.phase.lag_max_ms);
    out.metric("trace.overhead_s", run.phase.wall_s - plain.phase.wall_s);

    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let spans = rec.spans();
    write_jsonl(&spans, &path).map_err(err)?;
    println!(
        "spans         : {} written to {}",
        spans.len(),
        path.display()
    );
    Ok(out)
}
