//! The paper's own figures and tables (Figs. 3–9, §3.5 and §3.6), one
//! function per registry entry. Every parameter is a constant here.

use crate::report::{fmt_bytes, fmt_ci, fmt_duration};
use prio_core::combine::{combine, CombineEngine};
use prio_core::decompose::{decompose, DecomposeOptions};
use prio_core::fifo::fifo_schedule;
use prio_core::optimal::{is_ic_optimal, DEFAULT_STATE_LIMIT};
use prio_core::prio::prioritize;
use prio_core::schedule::{profile_difference, Schedule};
use prio_dagman::instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
use prio_dagman::jsdf::Jsdf;
use prio_dagman::parse::parse_dagman;
use prio_dagman::write::write_dagman;
use prio_graph::dot::{to_dot, DotOptions};
use prio_graph::reduction::transitive_reduction;
use prio_graph::Dag;
use prio_obs::mem::{peak_since, reset_peak};
use prio_obs::report::Table;
use prio_obs::{span, Stage};
use prio_sim::replicate::ReplicationPlan;
use prio_sim::sweep::{paper_mu_bits, paper_mu_bss, sweep, SweepCell};
use prio_sim::{compare_policies, GridModel, PolicySpec};
use prio_workloads::airsn::{airsn, airsn_paper, HANDLE_LEN};
use prio_workloads::paper_suite;
use prio_workloads::sdss::{sdss, SdssParams};
use std::time::{Duration, Instant};

/// PRIO's schedule for one of the experiments' built-in dags.
pub(crate) fn prio_schedule(dag: &Dag) -> Schedule {
    prioritize(dag).expect("built-in dags are acyclic").schedule
}

/// PRIO's schedule for `dag` as an oblivious simulator policy.
pub(crate) fn prio_policy(dag: &Dag) -> PolicySpec {
    PolicySpec::Oblivious(prio_schedule(dag))
}

/// `p × q` replications from `seed`, on every available core (results do
/// not depend on the thread count).
pub(crate) fn plan(p: usize, q: usize, seed: u64) -> ReplicationPlan {
    ReplicationPlan {
        p,
        q,
        seed,
        threads: 0,
    }
}

/// Fig. 3: `prio` on the 5-job `IV.dag` (a → b, c → d, c → e) yields the
/// PRIO schedule c, a, b, d, e; the DAGMan file gains one `VARS …
/// jobpriority` line per job (job `c` gets the highest value, 5) and the
/// JSDF gains `priority = $(jobpriority)`.
pub fn fig3() -> String {
    const IV_DAG: &str = "JOB a a.submit\nJOB b b.submit\nJOB c c.submit\nJOB d d.submit\n\
                          JOB e e.submit\nPARENT a CHILD b\nPARENT c CHILD d e\n";
    let mut file = parse_dagman(IV_DAG).expect("IV.dag parses");
    let dag = file.to_dag().expect("IV.dag is acyclic");
    let order = prio_schedule(&dag).order().to_vec();
    let names: Vec<&str> = order.iter().map(|&u| dag.label(u)).collect();
    assert_eq!(names, ["c", "a", "b", "d", "e"], "must match the paper");
    assert_eq!(
        is_ic_optimal(&dag, &order, DEFAULT_STATE_LIMIT),
        Some(true),
        "the Fig. 3 schedule is IC-optimal"
    );
    let mut t = Table::new(&["job", "schedule position", "jobpriority"]);
    for (i, name) in names.iter().enumerate() {
        t.row(vec![
            name.to_string(),
            (i + 1).to_string(),
            (names.len() - i).to_string(),
        ]);
    }
    let priorities = priorities_by_job(names.iter().copied());
    instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro)
        .expect("instrumentation succeeds");
    assert_eq!(file.vars_value("c", "jobpriority").as_deref(), Some("5"));
    let mut jsdf = Jsdf::parse("universe = vanilla\nexecutable = c_job\nqueue\n");
    jsdf.instrument_priority();
    format!(
        "PRIO schedule: {}\n\n{}\ninstrumented IV.dag:\n{}\ninstrumented c.submit:\n{}",
        names.join(","),
        t.render(),
        write_dagman(&file),
        jsdf.to_text()
    )
}

/// Fig. 4: the per-step difference `E_PRIO(t) − E_FIFO(t)`, absolute and
/// normalized by the job count, as one series per dag for AIRSN, Inspiral
/// and Montage. SDSS's 48,013-step series is summarized on stdout only.
pub fn fig4() -> Vec<String> {
    let mut summary = Table::new(&[
        "dag",
        "jobs",
        "max diff",
        "max diff (normalized)",
        "min diff",
        "steps PRIO >= FIFO",
        "mean diff",
    ]);
    let mut series = Vec::new();
    for w in paper_suite() {
        let prio = prio_schedule(w.dag());
        let diff = profile_difference(w.dag(), &prio, &fifo_schedule(w.dag()));
        let n = w.dag().num_nodes();
        if w.name != "SDSS" {
            let mut tsv = Table::new(&["t", "t_normalized", "diff", "diff_normalized"]);
            for (t, &d) in diff.iter().enumerate() {
                tsv.row(vec![
                    t.to_string(),
                    format!("{:.6}", t as f64 / n as f64),
                    d.to_string(),
                    format!("{:.6}", d as f64 / n as f64),
                ]);
            }
            series.push(tsv.render_tsv());
        }
        let max = diff.iter().copied().max().unwrap_or(0);
        let mean = diff.iter().sum::<i64>() as f64 / diff.len() as f64;
        let nonneg = diff.iter().filter(|&&d| d >= 0).count();
        summary.row(vec![
            w.name.to_string(),
            n.to_string(),
            max.to_string(),
            format!("{:.4}", max as f64 / n as f64),
            diff.iter().copied().min().unwrap_or(0).to_string(),
            format!("{nonneg}/{}", diff.len()),
            format!("{mean:.2}"),
        ]);
    }
    println!(
        "Fig. 4 summary, E_PRIO(t) - E_FIFO(t):\n{}",
        summary.render()
    );
    series
}

/// Fig. 5: AIRSN prioritized by `prio`, as Graphviz DOT (arcs upward,
/// priorities in labels, the bottleneck job framed). The drawing is a
/// width-8 instance; at the paper's width 250 the last handle job (the
/// parent of every first-cover job) must carry priority 753 of 773.
pub fn fig5() -> String {
    let bottleneck = |dag: &Dag| {
        let name = format!("handle{}", HANDLE_LEN - 1);
        dag.find(&name).expect("AIRSN has a last handle job")
    };
    let dag = airsn_paper();
    let priorities = prio_schedule(&dag).priorities();
    assert_eq!(
        priorities[bottleneck(&dag).index()],
        753,
        "the black-framed job of Fig. 5 must get priority 753"
    );
    let small = airsn(8);
    let opts = DotOptions {
        name: "AIRSN".into(),
        arcs_upward: true,
        priorities: Some(prio_schedule(&small).priorities()),
        framed: vec![bottleneck(&small)],
    };
    to_dot(&small, &opts)
}

/// The phase spans broken out as `table_overhead` columns.
const PHASES: [Stage; 5] = [
    Stage::Reduce,
    Stage::Decompose,
    Stage::Schedule,
    Stage::Combine,
    Stage::Emit,
];

/// §3.6: running time and peak heap of `prioritize` on the four paper
/// dags, with the time broken down by pipeline phase from the same span
/// store the CLI's `--timings` footer reads. The peak column needs the
/// counting allocator installed in the running binary. The paper's own
/// numbers (3.4 GHz Pentium 4, MSVC) sit in the last two columns.
pub fn table_overhead() -> String {
    const PAPER: [(&str, &str); 4] = [
        ("< 1 s", "2 MB"),
        ("16 s", "21 MB"),
        ("8 s", "104 MB"),
        ("845 s", "1.3 GB"),
    ];
    let mut headers = vec!["dag", "jobs", "time (ours)"];
    headers.extend(PHASES.map(Stage::name));
    headers.extend(["peak mem (ours)", "time (paper, P4/MSVC)", "mem (paper)"]);
    let mut t = Table::new(&headers);
    for (w, (ptime, pmem)) in paper_suite().into_iter().zip(PAPER) {
        // One untimed run first closes every span path this workload
        // uses, so the span store allocates its per-path histograms
        // before the measured window and the peak column counts the
        // pipeline alone.
        {
            let _warm = span::span(Stage::Prioritize);
            prio_schedule(w.dag());
        }
        // A clean registry (which keeps those histograms allocated) gives
        // the phase columns this dag's measured run alone.
        prio_obs::reset();
        let baseline = reset_peak();
        let total = {
            let guard = span::span(Stage::Prioritize);
            assert!(prio_schedule(w.dag()).is_valid_for(w.dag()));
            guard.elapsed()
        };
        let peak = peak_since(baseline);
        let mut row = vec![
            w.name.to_string(),
            w.dag().num_nodes().to_string(),
            fmt_duration(total),
        ];
        let spans = span::snapshot();
        row.extend(PHASES.map(|p| {
            let path = format!("{}/{p}", Stage::Prioritize);
            let r = spans.iter().find(|r| r.path == path);
            fmt_duration(r.map_or(Duration::ZERO, |r| r.stat.total))
        }));
        row.extend([fmt_bytes(peak), ptime.to_string(), pmem.to_string()]);
        t.row(row);
    }
    t.render()
}

/// §3.5's engineering ablations as wall-clock tables: the bipartite fast
/// path against the general-only `C(s)` search (quadratic in the number of
/// components, the paper's "over 2 days" regime) on growing SDSS-like
/// field stages, and the class-cached combine against naive quadratic
/// selection on growing superdags of repeated component shapes.
pub fn ablations() -> String {
    fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
        let start = Instant::now();
        let r = f();
        (start.elapsed(), r)
    }
    let row = |size: usize, fast: Duration, slow: Duration| {
        let speedup = slow.as_secs_f64() / fast.as_secs_f64().max(1e-9);
        vec![
            size.to_string(),
            fmt_duration(fast),
            fmt_duration(slow),
            format!("{speedup:.1}x"),
        ]
    };
    let mut decomposition = Table::new(&["jobs", "fast path", "general only", "speedup"]);
    for fields in [32usize, 64, 128, 256] {
        let dag = transitive_reduction(&sdss(SdssParams {
            fields,
            targets: fields * 4,
            extra_chain: 0,
        }));
        let (fast, f) = time(|| decompose(&dag, DecomposeOptions { fast_path: true }));
        let (slow, s) = time(|| decompose(&dag, DecomposeOptions { fast_path: false }));
        assert_eq!(f.parts.len(), s.parts.len());
        decomposition.row(row(dag.num_nodes(), fast, slow));
    }
    let mut combining = Table::new(&["supernodes", "class-cached", "naive", "speedup"]);
    for n in [128usize, 512, 2048] {
        let superdag = Dag::from_arcs(n, &[]).expect("independent supernodes");
        let classes = [vec![1usize, 1], vec![1, 2], vec![2, 3, 4], vec![4, 2, 1]];
        let profiles: Vec<Vec<usize>> =
            (0..n).map(|i| classes[i % classes.len()].clone()).collect();
        let (fast, f) = time(|| combine(&superdag, &profiles, CombineEngine::ClassHeap));
        let (slow, s) = time(|| combine(&superdag, &profiles, CombineEngine::Naive));
        assert_eq!(f, s, "engines agree");
        combining.row(row(n, fast, slow));
    }
    format!(
        "Ablation 1 (§3.5): decomposition fast path\n\n{}\nAblation 2 (§3.5): combine engine\n\n{}",
        decomposition.render(),
        combining.render()
    )
}

/// Figs. 6–9: PRIO/FIFO ratios of execution time, stalling probability
/// and utilization over the paper's 7 × 17 `(μ_BIT, μ_BS)` grid, with
/// `p = 20 × q = 10` replications per cell from seed 20060401.
pub fn fig_ratios(name: &str, dag: Dag) -> String {
    let cells = sweep(
        &dag,
        &prio_policy(&dag),
        &PolicySpec::Fifo,
        &paper_mu_bits(),
        &paper_mu_bss(),
        &plan(20, 10, 20060401),
        |_| {},
    );
    let near_one = |c: &SweepCell| {
        let ratio = c.result.execution_time_ratio.as_ref();
        ratio.is_none_or(|ci| (ci.median - 1.0).abs() < 0.05)
    };
    let count = |keep: fn(&SweepCell) -> bool| {
        let kept: Vec<&SweepCell> = cells.iter().filter(|c| keep(c)).collect();
        format!(
            "{}/{}",
            kept.iter().filter(|c| near_one(c)).count(),
            kept.len()
        )
    };
    let best = best_cell(&cells).expect("non-empty sweep");
    println!(
        "{name}: best median time ratio {} at mu_bit={:.0e}, mu_bs={:.0}; median within 5% \
         of 1 at mu_bit <= 1e-2: {}, at mu_bs = 2^16: {}",
        fmt_ci(&best.result.execution_time_ratio),
        best.mu_bit,
        best.mu_bs,
        count(|c| c.mu_bit <= 1e-2),
        count(|c| c.mu_bs >= 65536.0),
    );
    grid_tsv(&cells, 5, |b| format!("{b:e}"))
}

/// Fig. 6's `μ_BIT = 1` section at the paper's rigor: AIRSN's 17 `μ_BS`
/// cells at `p = q = 300`, every cell from seed 20060401 and at four
/// decimals, as `prio simulate --mu-bit 1 --mu-bs B --p 300 --q 300`
/// runs and prints one.
pub fn fig6_airsn_mubit1_p300() -> String {
    let dag = airsn_paper();
    let prio = prio_policy(&dag);
    let cells: Vec<SweepCell> = paper_mu_bss()
        .into_iter()
        .map(|mu_bs| SweepCell {
            mu_bit: 1.0,
            mu_bs,
            result: compare_policies(
                &dag,
                &prio,
                &PolicySpec::Fifo,
                &GridModel::paper(1.0, mu_bs),
                &plan(300, 300, 20060401),
            ),
        })
        .collect();
    grid_tsv(&cells, 4, |b| format!("{b}"))
}

/// The best-median sweet spot over SDSS's `μ_BIT = 1` section at four
/// scales (`p = 16 × q = 8`, seed 42): the PRIO-favourable batch size
/// tracks the dag's parallel width, so the 1/10-scale grid cannot show the
/// paper's full-size 2¹³ directly.
pub fn sweet_spot_sdss() -> String {
    let mut table = Table::new(&[
        "scale",
        "jobs",
        "best mu_bs",
        "best time ratio (median, CI)",
        "log2(best mu_bs)",
    ]);
    for scale in [0.02, 0.05, 0.1, 0.2] {
        let dag = sdss(SdssParams::scaled(scale));
        let cells = sweep(
            &dag,
            &prio_policy(&dag),
            &PolicySpec::Fifo,
            &[1.0],
            &paper_mu_bss(),
            &plan(16, 8, 42),
            |_| {},
        );
        let best = best_cell(&cells).expect("non-empty sweep");
        table.row(vec![
            format!("{scale}"),
            dag.num_nodes().to_string(),
            format!("{}", best.mu_bs),
            fmt_ci(&best.result.execution_time_ratio),
            format!("{:.1}", best.mu_bs.log2()),
        ]);
    }
    table.render()
}

/// The first cell with the smallest median time ratio.
fn best_cell(cells: &[SweepCell]) -> Option<&SweepCell> {
    cells
        .iter()
        .filter_map(|c| Some((c.result.execution_time_ratio.as_ref()?.median, c)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, c)| c)
}

/// One TSV row per cell: the three ratio intervals at `digits` decimals
/// and both policies' mean execution times.
fn grid_tsv(cells: &[SweepCell], digits: usize, mu_bit: fn(f64) -> String) -> String {
    let mut tsv = Table::new(&[
        "mu_bit",
        "mu_bs",
        "time_ratio_median",
        "time_ratio_lo",
        "time_ratio_hi",
        "stall_ratio_median",
        "stall_ratio_lo",
        "stall_ratio_hi",
        "util_ratio_median",
        "util_ratio_lo",
        "util_ratio_hi",
        "prio_time_mean",
        "fifo_time_mean",
    ]);
    for c in cells {
        let r = &c.result;
        let mut row = vec![mu_bit(c.mu_bit), format!("{}", c.mu_bs)];
        for ci in [
            &r.execution_time_ratio,
            &r.stalling_ratio,
            &r.utilization_ratio,
        ] {
            row.extend(match ci {
                Some(ci) => [ci.median, ci.lo, ci.hi].map(|v| format!("{v:.digits$}")),
                None => ["-"; 3].map(String::from),
            });
        }
        row.push(format!("{:.4}", r.a.execution_time.summary().mean));
        row.push(format!("{:.4}", r.b.execution_time.summary().mean));
        tsv.row(row);
    }
    tsv.render_tsv()
}
