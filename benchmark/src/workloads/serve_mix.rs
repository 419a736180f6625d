//! `serve-mix`: a `prio serve --listen 127.0.0.1:0 --serve-threads 2`
//! daemon driven by the runner over one TCP connection — the only
//! workload where the protocol, text memo, result cache, render and
//! socket layers carry the cost and the pipeline runs on about one
//! request in twenty.
//!
//! The request pool is 16 scaled paper workflows, four per family, of 100
//! to 300 jobs in even steps, each rendered as DAGMan, JSON and an edge
//! list: 48 texts. A request is one of
//! - a verbatim resend of a pool text (90%): a text-memo hit that replays
//!   the cached bytes;
//! - a pool text made unique by a comment or an ignored JSON field (5%):
//!   new text that imports to a cached workflow, so the import runs and the
//!   result cache hits;
//! - a pool workflow plus one new isolated job (5%): a workflow the daemon
//!   has never seen, which runs the whole pipeline.
//!
//! Each kind's requests spread evenly over the pool. The seed renames
//! every pool workflow's jobs and shuffles the request order, so it
//! changes every byte the daemon sees but not how much work they take:
//! runs with different seeds stay comparable.
//!
//! After set-up (daemon start and one warm pass over the pool), an
//! open-loop phase sends at a fixed reference rate and times each request
//! from when it fell due; `p50_ms` is its median. Then burst rounds each
//! send the same fixed sequence of requests back to back and wait for all
//! answers; `wall_s` is a burst's median time. The daemon's result cache is
//! capped so its memory levels off early in a run, whatever the number of
//! rounds.

use super::{rounds, Ctx, Recorder, Workload, THREADS};
use crate::client::{self, Client, Prepared, Status, MARK};
use crate::proc::{self, Process};
use crate::stages;
use crate::tracer::Tracer;
use prio_core::Prioritizer;
use prio_dagman::registry;
use prio_graph::Dag;
use prio_ir::{FormatId, FormatRegistry, Priorities, Workflow};
use prio_obs::json::{escape, parse, JsonValue};
use prio_serve::protocol::ok_response;
use prio_serve::{encode_request, parse_request, render_key, text_key, workflow_key, ResultCache};
use prio_workloads::{airsn, inspiral, montage, sdss};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's result-cache budget (`--cache-bytes`): room for the pool
/// and a few hundred never-seen workflows, after which least-recently-used
/// ones are evicted and the daemon's memory stops growing.
pub(crate) const CACHE_BYTES: usize = 8 << 20;

/// Share of the timed budget spent in the open-loop phase; bursts get the
/// rest.
const OPEN_LOOP_SHARE: f64 = 0.4;

/// Completion slots on the client: more than any phase sends.
const SLOTS: usize = 1 << 17;

/// One in this many never-seen-workflow responses is checked against an
/// in-process run of the pipeline (each check costs a full run).
const FRESH_CHECK_EVERY: u64 = 8;

/// The traffic.
pub struct Params {
    /// Workflows in the pool (each sent in three formats).
    pub pool: usize,
    /// Inclusive job-count range of pool workflows.
    pub jobs: (usize, usize),
    /// Open-loop reference rate, requests per second.
    pub rate: u64,
    /// Requests per burst round.
    pub burst: usize,
}

impl Params {
    /// The benchmark's traffic.
    pub fn full() -> Params {
        Params {
            pool: 16,
            jobs: (100, 300),
            rate: 2_000,
            burst: 1_000,
        }
    }

    /// A few small workflows, for tests.
    pub fn tiny() -> Params {
        Params {
            pool: 4,
            jobs: (30, 60),
            rate: 200,
            burst: 40,
        }
    }
}

/// What a request does in the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A verbatim resend of a pool text.
    Memo,
    /// A pool text made unique without changing its workflow.
    Variant,
    /// A pool workflow plus a new job: never seen before.
    Fresh,
}

/// SplitMix64: the seed's stream of draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A pool workflow of about `jobs` jobs from one of the four paper
/// families, every job name prefixed with `prefix`.
fn pool_dag(family: usize, jobs: usize, prefix: &str) -> Dag {
    let f = |paper: usize| jobs as f64 / paper as f64;
    let dag = match family % 4 {
        0 => airsn::airsn((jobs.saturating_sub(23) / 3).max(1)),
        1 => inspiral::inspiral(inspiral::InspiralParams::scaled(f(2_988))),
        2 => montage::montage(montage::MontageParams::scaled(f(7_881))),
        _ => sdss::sdss(sdss::SdssParams::scaled(f(48_013))),
    };
    let mut b = prio_graph::DagBuilder::with_capacity(dag.num_nodes(), dag.num_arcs());
    let ids: Vec<_> = dag
        .node_ids()
        .map(|u| b.add_node(format!("{prefix}{}", dag.label(u))))
        .collect();
    for u in dag.node_ids() {
        for &c in dag.children(u) {
            b.add_arc(ids[u.index()], ids[c.index()])
                .expect("a renamed dag stays acyclic");
        }
    }
    b.build().expect("a renamed dag stays acyclic")
}

/// `count` requests of one kind, spread evenly over `texts` pool texts
/// from a seeded starting point.
fn spread(
    kind: Kind,
    count: usize,
    texts: usize,
    rng: &mut Rng,
) -> impl Iterator<Item = (Kind, usize)> {
    let offset = rng.below(texts);
    (0..count).map(move |j| (kind, (offset + j * texts / count) % texts))
}

const FORMATS: [FormatId; 3] = [FormatId::Dagman, FormatId::Json, FormatId::Edges];

/// The workflow text of a request of `kind` on pool text `text`, with
/// [`MARK`] where the request id makes it unique.
fn request_text(kind: Kind, format: FormatId, text: &str) -> String {
    match (kind, format) {
        (Kind::Memo, _) => text.to_string(),
        (Kind::Variant, FormatId::Json) => {
            text.replacen('{', &format!("{{\"variant\": \"{MARK}\","), 1)
        }
        (Kind::Variant, _) => format!("# variant {MARK}\n{text}"),
        (Kind::Fresh, FormatId::Dagman) => format!("JOB fresh_{MARK} fresh_{MARK}.submit\n{text}"),
        (Kind::Fresh, FormatId::Json) => text.replacen(
            "\"jobs\": [\n",
            &format!("\"jobs\": [\n    {{\"name\": \"fresh_{MARK}\"}},\n"),
            1,
        ),
        (Kind::Fresh, _) => format!("fresh_{MARK}\n{text}"),
    }
}

/// The hash of the escaped `output` literal the daemon must answer
/// `line` with, computed in process through the public pipeline.
fn expected_output(reg: &FormatRegistry, line: &str) -> Result<u64, String> {
    let request = parse_request(line, &mut None).map_err(|e| e.message)?;
    let format = request.format.as_deref().ok_or("request names no format")?;
    let frontend = reg.by_name(format).ok_or("unknown format")?;
    let workflow = frontend
        .import(&request.workflow)
        .map_err(|e| e.to_string())?;
    let result = Prioritizer::new()
        .prioritize_workflow(&workflow)
        .map_err(|e| e.to_string())?;
    let text = frontend.export(&workflow, &result.priorities());
    Ok(client::hash_bytes(escape(&text).as_bytes()))
}

/// A running daemon and the runner's one connection to it.
struct Daemon {
    process: Process,
    client: Client,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let stderr = ctx.path("serve.stderr");
        let log =
            std::fs::File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let mut process = Process::spawn(
            Command::new(&ctx.prio)
                .args(["serve", "--listen", "127.0.0.1:0", "--serve-threads"])
                .arg(THREADS.to_string())
                .arg("--cache-bytes")
                .arg(CACHE_BYTES.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log),
        )
        .map_err(|e| format!("spawning prio serve: {e}"))?;
        // The daemon prints the address it bound once it is listening.
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr: SocketAddr = loop {
            let text = std::fs::read_to_string(&stderr).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("prio: serving on "))
            {
                break addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("daemon address {addr:?}: {e}"))?;
            }
            if Instant::now() >= deadline {
                let (exit, _) = process
                    .wait_or_kill(Duration::ZERO)
                    .map_err(|e| e.to_string())?;
                return Err(format!(
                    "daemon did not start: {}",
                    proc::failure(&exit, &stderr)
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let client =
            Client::connect(addr, SLOTS).map_err(|e| format!("connecting to {addr}: {e}"))?;
        Ok(Daemon { process, client })
    }

    /// Shuts the daemon down through the protocol and waits for it to
    /// exit.
    fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let (exit, in_time) = self
            .process
            .wait_or_kill(Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
        if !in_time || !exit.status.success() {
            return Err(format!("daemon did not exit cleanly: {}", exit.status));
        }
        Ok(())
    }
}

/// One request sent in a phase.
struct Sent {
    id: u64,
    kind: Kind,
    text: usize,
    due_ns: u64,
}

/// Cache counters from a `stats` answer.
fn cache_stats(line: &str) -> Result<[u64; 3], String> {
    let v = parse(line)?;
    let get = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("stats answer lacks {k}"))
    };
    Ok([
        get("cache_hits")?,
        get("cache_misses")?,
        get("cache_evictions")?,
    ])
}

/// The `serve-mix` workload.
pub struct ServeMix {
    params: Params,
    /// The pool's texts, three formats per workflow.
    texts: Vec<(FormatId, String)>,
    /// Request templates per kind, indexed like `texts`.
    templates: [Vec<Prepared>; 3],
    /// The request sequence: kind and pool text of request `i % len`.
    pattern: Vec<(Kind, usize)>,
    /// Expected output hash per pool text (memo and variant requests).
    expected: Vec<u64>,
    daemon: Option<Daemon>,
    next_id: u64,
    /// Never-seen-workflow answers checked so far, and how many of them
    /// came from the cache.
    fresh_seen: u64,
    fresh_cached: u64,
}

impl ServeMix {
    /// A workload with `params`' traffic.
    pub fn new(params: Params) -> ServeMix {
        ServeMix {
            params,
            texts: Vec::new(),
            templates: [Vec::new(), Vec::new(), Vec::new()],
            pattern: Vec::new(),
            expected: Vec::new(),
            daemon: None,
            next_id: 0,
            fresh_seen: 0,
            fresh_cached: 0,
        }
    }

    fn template(&self, kind: Kind, text: usize) -> &Prepared {
        &self.templates[kind as usize][text]
    }

    /// The expected output hash of every pool text, from the pipeline run
    /// in process.
    fn expected_outputs(&self, reg: &FormatRegistry) -> Result<Vec<u64>, String> {
        (0..self.texts.len())
            .map(|t| expected_output(reg, &self.template(Kind::Memo, t).render(0)))
            .collect()
    }

    /// Generates the pool, its request templates and the request
    /// sequence from the seed.
    pub fn generate(&mut self, seed: u64) {
        let mut rng = Rng(seed);
        let reg = registry();
        let (lo, hi) = self.params.jobs;
        let pool = self.params.pool;
        self.texts.clear();
        for i in 0..pool {
            // A fixed-width prefix: every seed gives texts of equal length.
            let prefix = format!("s{:08x}_", rng.next() as u32);
            let dag = pool_dag(i, lo + (hi - lo) * i / (pool - 1).max(1), &prefix);
            let n = dag.num_nodes();
            let workflow = Workflow::synthetic(dag);
            for format in FORMATS {
                let frontend = reg.get(format).expect("every format is registered");
                self.texts
                    .push((format, frontend.export(&workflow, &Priorities::none(n))));
            }
        }
        self.templates = [Kind::Memo, Kind::Variant, Kind::Fresh].map(|kind| {
            self.texts
                .iter()
                .map(|(format, text)| {
                    Prepared::new(&encode_request(
                        MARK,
                        &request_text(kind, *format, text),
                        Some(format.name()),
                        None,
                    ))
                })
                .collect()
        });
        // 90/5/5, with at least one request of each kind so every layer
        // shows up in a round however short, in a seeded order.
        let texts = self.texts.len();
        let rare = (self.params.burst / 20).max(1);
        let memo = self.params.burst.saturating_sub(2 * rare).max(1);
        let mut pattern: Vec<(Kind, usize)> = spread(Kind::Memo, memo, texts, &mut rng)
            .chain(spread(Kind::Variant, rare, texts, &mut rng))
            .chain(spread(Kind::Fresh, rare, texts, &mut rng))
            .collect();
        for i in (1..pattern.len()).rev() {
            pattern.swap(i, rng.below(i + 1));
        }
        self.pattern = pattern;
    }

    /// Sends request `kind` on pool text `text` under a new id, returning
    /// the id. Nothing is formatted or allocated per request.
    fn send(&mut self, kind: Kind, text: usize) -> Result<u64, String> {
        self.next_id += 1;
        let template = &self.templates[kind as usize][text];
        let client = &mut self.daemon.as_mut().expect("daemon running").client;
        client
            .send(template, self.next_id)
            .map_err(|e| format!("sending: {e}"))?;
        Ok(self.next_id)
    }

    fn client(&mut self) -> &mut Client {
        &mut self.daemon.as_mut().expect("daemon running").client
    }

    fn flush(&mut self) -> Result<(), String> {
        self.client().flush().map_err(|e| format!("sending: {e}"))
    }

    /// Waits until the daemon has answered `total` requests in all.
    fn wait_all(&self, total: u64) -> Result<(), String> {
        let client = &self.daemon.as_ref().expect("daemon running").client;
        if client.wait_done(total, Duration::from_secs(60)) {
            Ok(())
        } else {
            Err(format!(
                "daemon answered {} of {total} requests",
                client.done()
            ))
        }
    }

    fn completion(&self, id: u64) -> Option<client::Completion> {
        self.daemon
            .as_ref()
            .expect("daemon running")
            .client
            .completion(id)
    }

    /// Checks what arrived for one sent request; true when it is a
    /// correct `ok`. Every answer on a pool workflow is compared with the
    /// pipeline's output. A never-seen workflow's answer is recomputed in
    /// process one time in [`FRESH_CHECK_EVERY`], and every time the
    /// daemon answered it from its cache: that can only be a cache-key
    /// collision, which is harmless only if the bytes are right.
    fn check(&mut self, reg: &FormatRegistry, sent: &Sent, rec: &mut Recorder) -> bool {
        let verdict = match self.completion(sent.id) {
            None => Err("no answer".to_string()),
            Some(c) if c.status != Status::Ok => Err(format!("answered {:?}", c.status)),
            Some(c) if sent.kind != Kind::Fresh => match c.output == self.expected[sent.text] {
                true => Ok(()),
                false => Err(format!(
                    "{:?} output differs from the pipeline's",
                    sent.kind
                )),
            },
            Some(c) => {
                self.fresh_seen += 1;
                self.fresh_cached += u64::from(c.cached);
                if c.cached || self.fresh_seen % FRESH_CHECK_EVERY == 0 {
                    let line = self.template(Kind::Fresh, sent.text).render(sent.id);
                    match expected_output(reg, &line) {
                        Ok(h) if h == c.output => Ok(()),
                        Ok(_) => Err("fresh output differs from the pipeline's".to_string()),
                        Err(e) => Err(e),
                    }
                } else {
                    Ok(())
                }
            }
        };
        if let Err(e) = &verdict {
            rec.problem(format!("request {}: {e}", sent.id));
        }
        rec.operation(verdict.is_ok());
        verdict.is_ok()
    }

    /// Sends the request sequence open-loop at the reference rate for
    /// `seconds`, waits for every answer, and returns what was sent with
    /// each request's due time.
    fn open_loop(&mut self, seconds: f64) -> Result<Vec<Sent>, String> {
        let rate = self.params.rate;
        let count = (rate as f64 * seconds) as u64;
        assert!(
            (count as usize) < SLOTS,
            "open-loop phase exceeds the client's slots"
        );
        let before = self.client().done();
        let epoch = self.client().epoch();
        let start_ns = self.client().now_ns() + 1_000_000;
        let mut sent = Vec::with_capacity(count as usize);
        let mut late_ns: Vec<f64> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let due_ns = client::due_ns(start_ns, i, rate);
            let now = epoch.elapsed().as_nanos() as u64;
            if now < due_ns {
                self.flush()?;
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            late_ns.push(
                epoch
                    .elapsed()
                    .as_nanos()
                    .saturating_sub(u128::from(due_ns)) as f64,
            );
            let (kind, text) = self.pattern[i as usize % self.pattern.len()];
            let id = self.send(kind, text)?;
            sent.push(Sent {
                id,
                kind,
                text,
                due_ns,
            });
        }
        self.flush()?;
        self.wait_all(before + count)?;
        if let Some((p, late)) = crate::stats::tail(&late_ns) {
            eprintln!(
                "serve-mix: generator ran late by {:.0} µs at the median, {:.0} µs at p{p}, over {count} sends",
                crate::stats::median(&late_ns) / 1e3,
                late / 1e3,
            );
        }
        Ok(sent)
    }
}

impl Workload for ServeMix {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        if let Some(old) = self.daemon.take() {
            old.stop()?;
        }
        self.generate(ctx.seed);
        self.daemon = Some(Daemon::start(ctx)?);
        // Warm pass: every pool text once, so the open-loop phase starts
        // from a warm memo and cache.
        let before = self.client().done();
        for text in 0..self.texts.len() {
            self.send(Kind::Memo, text)?;
        }
        self.flush()?;
        self.wait_all(before + self.texts.len() as u64)
    }

    fn measure(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
        let reg = registry();
        self.expected = self.expected_outputs(&reg)?;
        let stats = |client: &mut Client, id| {
            client
                .control(id, "stats")
                .map_err(|e| e.to_string())
                .and_then(|line| cache_stats(&line))
        };
        let before = stats(self.client(), "stats_before")?;

        // Open loop at the reference rate: latency from each due time. The
        // daemon's memory peak is read here, after a fixed number of
        // requests; the bursts' queue backlog would make it a measure of
        // scheduling luck.
        let open = self.open_loop(ctx.budget.as_secs_f64() * OPEN_LOOP_SHARE)?;
        let rss = self
            .daemon
            .as_ref()
            .expect("daemon running")
            .process
            .peak_rss_mb();
        rec.sample(
            "peak_rss_mb",
            rss.map_err(|e| format!("daemon memory: {e}"))?,
        );
        let (mut sent, mut fresh) = (open.len() as u64, 0u64);
        for s in &open {
            fresh += u64::from(s.kind == Kind::Fresh);
            if self.check(&reg, s, rec) {
                let at = self
                    .completion(s.id)
                    .expect("checked answers arrived")
                    .at_ns;
                rec.sample(
                    "p50_ms",
                    client::open_loop_latency_ns(s.due_ns, at) as f64 / 1e6,
                );
            }
        }

        // Bursts: the fixed sequence back to back, timed from the first
        // send to the last answer.
        rounds(ctx.budget.mul_f64(1.0 - OPEN_LOOP_SHARE), |timed| {
            let done = self.client().done();
            let start_ns = self.client().now_ns();
            let mut burst = Vec::with_capacity(self.pattern.len());
            for j in 0..self.pattern.len() {
                let (kind, text) = self.pattern[j];
                let id = self.send(kind, text)?;
                burst.push(Sent {
                    id,
                    kind,
                    text,
                    due_ns: start_ns,
                });
            }
            self.flush()?;
            self.wait_all(done + burst.len() as u64)?;
            let mut last_ns = start_ns;
            for s in &burst {
                if let Some(c) = self.completion(s.id) {
                    last_ns = last_ns.max(c.at_ns);
                }
                self.check(&reg, s, rec);
                fresh += u64::from(s.kind == Kind::Fresh);
            }
            sent += burst.len() as u64;
            if timed {
                rec.sample("wall_s", (last_ns - start_ns) as f64 / 1e9);
            }
            Ok(())
        })?;

        // The observed hit/miss split, from the daemon's own counters: one
        // cache lookup per request.
        let after = stats(self.client(), "stats_after")?;
        let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
        eprintln!(
            "serve-mix: {hits} cache hits and {misses} misses over {sent} requests; \
             {fresh} never-seen workflows, {} of them answered from the cache",
            self.fresh_cached
        );
        if hits + misses != sent {
            rec.problem(format!(
                "stats show {hits} hits and {misses} misses for {sent} requests"
            ));
        }
        rec.sample("hit_ratio", hits as f64 / sent.max(1) as f64);
        rec.sample("evictions", (after[2] - before[2]) as f64);
        self.daemon.take().expect("daemon running").stop()
    }

    fn replay(
        &mut self,
        _ctx: &Ctx,
        tracer: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let reg = registry();
        if self.expected.is_empty() {
            self.expected = self.expected_outputs(&reg)?;
        }
        let cache = ResultCache::new(CACHE_BYTES);
        // The daemon's state when bursts start: the pool served once.
        let mut warm = Tracer::new();
        for t in 0..self.texts.len() {
            let line = self.template(Kind::Memo, t).render(u64::MAX - t as u64);
            serve_one(&reg, &cache, &line, &mut warm, 0)?;
        }
        let (mut searches, mut catalog, mut nontrivial) = (0, 0, 0);
        for (j, &(kind, text)) in self.pattern.iter().enumerate() {
            let id = 1 + j as u64;
            let line = self.template(kind, text).render(id);
            let op = tracer.op(format!("{kind:?}:{text}:{id}"));
            let root = tracer.enter("op", op);
            let (output, replayed) = serve_one(&reg, &cache, &line, tracer, op)?;
            tracer.exit(root);
            let expected = match kind {
                Kind::Fresh => expected_output(&reg, &line)?,
                _ => self.expected[text],
            };
            if output != expected {
                rec.problem(format!(
                    "replayed {kind:?} request {id} output differs from the pipeline's"
                ));
            }
            if let Some(r) = replayed {
                searches += r.general_searches;
                catalog += r.catalog;
                nontrivial += r.nontrivial;
            }
        }
        rec.sample("general_searches", searches as f64);
        rec.sample("catalog_ratio", catalog as f64 / nontrivial.max(1) as f64);
        Ok(())
    }
}

/// One request through the daemon's path, call for call with
/// `prio_serve::server`'s `prioritize_request`: protocol decode and text
/// key (`input`), the text memo and rendered fast path, import (`parse`),
/// cache keys and lookups (`apply`), the pipeline on a miss, export and
/// response encoding (`write`). Returns the hash of the escaped output
/// literal and, when the pipeline ran, its replay.
fn serve_one(
    reg: &FormatRegistry,
    cache: &ResultCache,
    line: &str,
    tracer: &mut Tracer,
    op: usize,
) -> Result<(u64, Option<stages::Replayed>), String> {
    let request = tracer
        .time("input", op, || parse_request(line, &mut None))
        .map_err(|e| e.message)?;
    let format = request.format.as_deref().unwrap_or("auto");
    let tk = tracer.time("input", op, || text_key(format, &request.workflow));
    let fast = tracer.time("apply", op, || {
        let (key, in_format, n, render) = cache.memo_get(tk)?;
        cache
            .rendered_hit(key, n, render, in_format)
            .map(|text| (in_format, text))
    });
    if let Some((out, text)) = fast {
        let response = tracer.time("write", op, || {
            ok_response(&request.id, out.name(), true, &text)
        });
        return Ok((output_hash(&response)?, None));
    }
    let (frontend, workflow) = tracer.time("parse", op, || {
        let frontend = reg.by_name(format).ok_or("unknown format")?;
        let workflow = frontend
            .import(&request.workflow)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((frontend, workflow))
    })?;
    let n = workflow.num_jobs();
    let (key, rk, cached) = tracer.time("apply", op, || {
        let key = workflow_key(workflow.dag());
        let rk = render_key(&workflow);
        (key, rk, cache.get_with_rendered(key, n, rk, frontend.id()))
    });
    let render = |order: &[prio_graph::NodeId]| -> std::sync::Arc<str> {
        frontend
            .export(&workflow, &Priorities::from_order(order, n))
            .into()
    };
    let mut replayed = None;
    let (was_cached, text) = match cached {
        Some((_, Some(text))) => (true, text),
        Some((order, None)) => {
            let text = tracer.time("write", op, || render(&order));
            tracer.time("apply", op, || {
                cache.note_rendered(key, rk, frontend.id(), text.clone())
            });
            (true, text)
        }
        None => {
            let r = stages::prioritize(workflow.dag(), 0, tracer, op)?;
            let order: prio_serve::cache::CachedOrder = r.order.as_slice().into();
            tracer.time("apply", op, || cache.insert(key, order.clone()));
            let text = tracer.time("write", op, || render(&order));
            tracer.time("apply", op, || {
                cache.note_rendered(key, rk, frontend.id(), text.clone())
            });
            replayed = Some(r);
            (false, text)
        }
    };
    tracer.time("apply", op, || {
        cache.memo_insert(tk, key, frontend.id(), n, rk)
    });
    let response = tracer.time("write", op, || {
        ok_response(&request.id, frontend.id().name(), was_cached, &text)
    });
    Ok((output_hash(&response)?, replayed))
}

fn output_hash(response: &str) -> Result<u64, String> {
    client::decode_response(response)
        .map(|d| d.output)
        .ok_or_else(|| "replayed response does not decode".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kinds_import_as_intended() {
        let reg = registry();
        let dag = pool_dag(2, 120, "s0_");
        let n = dag.num_nodes();
        let workflow = Workflow::synthetic(dag);
        for format in FORMATS {
            let frontend = reg.get(format).unwrap();
            let text = frontend.export(&workflow, &Priorities::none(n));
            let render = |kind| {
                let t = request_text(kind, format, &text);
                assert!(
                    kind == Kind::Memo || t.contains(MARK),
                    "{kind:?} {format:?}"
                );
                frontend.import(&t.replace(MARK, "77")).unwrap()
            };
            let memo = render(Kind::Memo);
            let variant = render(Kind::Variant);
            let fresh = render(Kind::Fresh);
            assert_eq!(
                workflow_key(variant.dag()),
                workflow_key(memo.dag()),
                "{format:?}"
            );
            assert_eq!(render_key(&variant), render_key(&memo), "{format:?}");
            assert_eq!(fresh.num_jobs(), n + 1, "{format:?}");
            assert_ne!(workflow_key(fresh.dag()), workflow_key(memo.dag()));
        }
    }
}
