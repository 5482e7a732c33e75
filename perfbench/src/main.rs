//! `fx10-perfbench`: the compiled half of the fx10 benchmark.
//!
//! ```text
//! fx10-perfbench gen    --workload W --seed S --scale full|tiny --out DIR
//! fx10-perfbench trace  --workload W --requests FILE --fx10 BIN --work DIR
//!                       --seconds N --spans OUT [--grid F --wide F]
//! fx10-perfbench expect --file F
//! ```
//!
//! `gen` writes the workload's seeded inputs and lists them. `trace`
//! replays the request list in-process, alternating an untraced and a
//! traced pass until `--seconds` have passed, and prints the per-layer
//! metrics as one JSON line. `expect` prints the cloned reference BFS's
//! answer for a program, the source of the committed explore answers.

mod gen;
mod replay;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn need<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn gen_cmd(args: &[String]) -> Result<(), String> {
    let seed: u64 = need(args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let scale = match need(args, "--scale")? {
        "full" => gen::Scale::Full,
        "tiny" => gen::Scale::Tiny,
        other => return Err(format!("unknown scale {other}")),
    };
    let out = PathBuf::from(need(args, "--out")?);
    let inputs =
        gen::generate(need(args, "--workload")?, seed, scale, &out).map_err(|e| e.to_string())?;
    for i in inputs {
        let expected = i.expected_array.map_or("-".to_string(), |a| {
            a.iter().map(i64::to_string).collect::<Vec<_>>().join(",")
        });
        println!("{}\t{}\t{}", i.name, i.kind, expected);
    }
    Ok(())
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(t: &Tracer) -> BTreeMap<&'static str, f64> {
    let c = |n: &str| t.counts.get(n).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("syntax.parse_ms", "syntax.parse"),
        ("core.index_ms", "core.index"),
        ("core.slabels_ms", "core.slabels"),
        ("core.gen_ms", "core.gen"),
        ("core.level1_ms", "core.level1"),
        ("core.simplify_ms", "core.simplify"),
        ("core.level2_ms", "core.level2"),
        ("core.check_soundness_ms", "core.check_soundness"),
        (
            "frontend.analyze_condensed_ms",
            "frontend.analyze_condensed",
        ),
        ("semantics.explore_ms", "semantics.explore"),
        ("semantics.witness_ms", "semantics.witness"),
        ("robust.shard_pipe_ms", "robust.shard_pipe"),
        ("robust.shard_tcp_ms", "robust.shard_tcp"),
        ("absint.fixpoint_ms", "absint.fixpoint"),
        ("lints.lint_ms", "lints.lint"),
        ("runtime.elide_ms", "runtime.elide"),
        ("runtime.parallel_ms", "runtime.parallel"),
    ] {
        m.insert(metric, t.total_ms(span));
    }
    for n in [
        "core.iters_s",
        "core.iters_1",
        "core.iters_2",
        "core.evals",
        "core.solved_mb",
        "semantics.states",
        "semantics.witness_searches",
        "semantics.witness_states",
        "robust.restarts",
        "robust.reconnects",
        "absint.rounds",
        "lints.findings",
        "lints.confirmed",
        "lints.refuted",
        "runtime.steps",
        "runtime.activities",
        "runtime.races",
    ] {
        m.insert(n, c(n));
    }
    m.insert("lints.self_ms", t.self_ms("lints.pipeline"));
    m.insert(
        "semantics.states_per_s",
        ratio(c("semantics.states"), m["semantics.explore_ms"] / 1e3),
    );
    m.insert(
        "semantics.witness_decided_ratio",
        ratio(
            c("semantics.witness_decided"),
            c("semantics.witness_searches"),
        ),
    );
    let rt_ms = m["runtime.elide_ms"] + m["runtime.parallel_ms"];
    m.insert(
        "runtime.steps_per_s",
        ratio(c("runtime.steps"), rt_ms / 1e3),
    );
    m.insert(
        "runtime.speedup",
        ratio(m["runtime.elide_ms"], m["runtime.parallel_ms"]),
    );
    m
}

/// Metrics that are counts: they must repeat exactly across passes.
fn is_count(name: &str) -> bool {
    !name.ends_with("_ms") && !name.ends_with("_per_s") && name != "runtime.speedup"
}

fn trace_cmd(args: &[String]) -> Result<(), String> {
    let workload = need(args, "--workload")?;
    let seconds: f64 = need(args, "--seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let ctx = replay::Ctx {
        fx10: PathBuf::from(need(args, "--fx10")?),
        work: PathBuf::from(need(args, "--work")?),
    };
    let list = std::fs::read_to_string(need(args, "--requests")?).map_err(|e| e.to_string())?;
    let requests: Vec<(String, Vec<String>)> = list
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (id, rest) = l.split_once('\t').unwrap_or((l, ""));
            (
                id.to_string(),
                rest.split(' ').map(str::to_string).collect(),
            )
        })
        .collect();

    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut per_request: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last = Tracer::new(true);
    // At least two traced passes, so that the counts can be compared.
    while per_pass.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut off = Tracer::new(false);
        let t0 = Instant::now();
        for (_, r) in &requests {
            replay::replay(&mut off, &ctx, r)?;
        }
        untraced.push(t0.elapsed().as_secs_f64());

        let mut on = Tracer::new(true);
        let t0 = Instant::now();
        for (i, (_, r)) in requests.iter().enumerate() {
            on.set_request(i);
            replay::replay(&mut on, &ctx, r)?;
        }
        traced.push(t0.elapsed().as_secs_f64());
        // The part of each request the CLI also does: its span minus the
        // separate replay of lint's children.
        for s in on.spans.iter().filter(|s| s.name == "request") {
            let replay_only: f64 = on
                .spans
                .iter()
                .filter(|c| c.request == s.request && c.name == "lints.pipeline")
                .map(trace::Span::ms)
                .sum();
            per_request
                .entry(requests[s.request].0.clone())
                .or_default()
                .push(s.ms() - replay_only);
        }
        per_pass.push(layer_metrics(&on));
        last = on;
    }

    // Counts must repeat exactly; times are the median over passes.
    let first = &per_pass[0];
    let counts_repeat = per_pass
        .iter()
        .all(|m| m.iter().all(|(k, v)| !is_count(k) || first[k] == *v));
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &k in first.keys() {
        let v = if is_count(k) {
            first[k]
        } else {
            median(per_pass.iter().map(|m| m[k]).collect())
        };
        metrics.insert(k, v);
    }
    let (u, t) = (median(untraced), median(traced));
    metrics.insert("trace.overhead_frac", (t - u) / u);

    // Ratios that need runs outside the request list, made once.
    metrics.insert("semantics.jobs_speedup", 0.0);
    metrics.insert("robust.shard_overhead_x", 0.0);
    if workload == "explore" {
        let mut x = Tracer::new(true);
        let grid = replay::load_plain(need(args, "--grid")?.as_ref())?;
        let wide = replay::load_plain(need(args, "--wide")?.as_ref())?;
        replay::explore_in_process(&mut x, "grid_jobs1", &grid, 1, 1_000_000)?;
        replay::explore_in_process(&mut x, "grid_jobs2", &grid, 2, 1_000_000)?;
        replay::explore_in_process(&mut x, "wide_jobs1", &wide, 1, 1_000_000)?;
        replay::explore_shards(&mut x, &ctx, "wide_shards1", &wide, 1, false, 1_000_000)?;
        metrics.insert(
            "semantics.jobs_speedup",
            x.total_ms("grid_jobs1") / x.total_ms("grid_jobs2"),
        );
        metrics.insert(
            "robust.shard_overhead_x",
            x.total_ms("wide_shards1") / x.total_ms("wide_jobs1"),
        );
    }
    last.write_jsonl(need(args, "--spans")?.as_ref())
        .map_err(|e| e.to_string())?;

    let body = |m: &mut dyn Iterator<Item = (String, f64)>| {
        m.map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"counts_repeat\": {counts_repeat}, \"passes\": {}, \"metrics\": {{{}}}, \"request_min_ms\": {{{}}}}}",
        per_pass.len(),
        body(&mut metrics.iter().map(|(k, v)| (k.to_string(), *v))),
        body(
            &mut per_request
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().fold(f64::INFINITY, f64::min)))
        ),
    );
    Ok(())
}

/// The cloned reference BFS's answer, in `fx10 explore`'s output format
/// minus its leading `jobs:`/`shards:` line.
fn expect_cmd(args: &[String]) -> Result<(), String> {
    let path = need(args, "--file")?;
    let p = replay::load_plain(path.as_ref())?;
    let e = fx10_semantics::explore(
        &p,
        &[],
        fx10_semantics::ExploreConfig {
            max_states: 1_000_000,
            ..fx10_semantics::ExploreConfig::default()
        },
    );
    if e.truncated {
        return Err(format!("{path}: reference exploration truncated"));
    }
    println!(
        "{} state(s) visited, {} terminal(s), deadlock-free: {}",
        e.visited, e.terminals, e.deadlock_free
    );
    println!("dynamic MHP pairs ({}):", e.mhp.len());
    for &(a, b) in &e.mhp {
        println!("  ({}, {})", p.labels().display(a), p.labels().display(b));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("gen") => gen_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("expect") => expect_cmd(&args[1..]),
        _ => Err("usage: fx10-perfbench <gen|trace|expect> ...".to_string()),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fx10-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
