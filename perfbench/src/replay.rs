//! Replays one benchmark request in-process, calling the same public
//! entry points the `fx10` CLI handler for that command calls, with a
//! span around each call into a layer.

use crate::trace::Tracer;
use fx10_core::analysis::{analyze_with_budget, Analysis, SolverKind};
use fx10_core::gen::{self, Mode};
use fx10_core::index::StmtIndex;
use fx10_core::slabels::compute_slabels;
use fx10_core::solver::{solve_pair_naive, solve_set_naive};
use fx10_robust::{Budget, CancelToken, FaultPlan};
use fx10_semantics::{
    explore_parallel_durable, explore_sharded, Durability, ExploreConfig, ShardedOptions,
    WatchdogSpec,
};
use fx10_syntax::Program;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What a replay needs besides the request: the `fx10` binary (shard
/// workers are that binary re-invoked as `fx10 shard-worker`) and a
/// scratch directory for shard checkpoints.
pub struct Ctx {
    pub fx10: PathBuf,
    pub work: PathBuf,
}

/// The request's options, parsed as the CLI parses the subset the
/// benchmark uses. The defaults are the CLI's.
struct Req<'a> {
    cmd: &'a str,
    target: &'a str,
    jobs: usize,
    max_states: usize,
    shards: Option<usize>,
    listen: bool,
    ci: bool,
    elide: bool,
    input: Vec<i64>,
}

fn parse_req(args: &[String]) -> Result<Req<'_>, String> {
    let [cmd, target, rest @ ..] = args else {
        return Err(format!("malformed request {args:?}"));
    };
    let mut r = Req {
        cmd,
        target,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        max_states: 200_000,
        shards: None,
        listen: false,
        ci: false,
        elide: false,
        input: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--jobs" => r.jobs = value()?,
            "--max-states" => r.max_states = value()?,
            "--shards" => r.shards = Some(value()?),
            "--listen" => {
                // The benchmark always listens on an OS-picked loopback port.
                it.next();
                r.listen = true;
            }
            "--input" => {
                let v = it.next().ok_or("--input needs values")?;
                r.input = v
                    .split(',')
                    .map(|x| x.parse().map_err(|_| format!("bad --input {v}")))
                    .collect::<Result<_, _>>()?;
            }
            "--ci" => r.ci = true,
            "--elide" => r.elide = true,
            other => return Err(format!("flag {other} is not replayed")),
        }
    }
    Ok(r)
}

fn load(t: &mut Tracer, path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    t.span("syntax.parse", |_| Program::parse(&src))
        .map_err(|e| format!("{path}: {}", e.message))
}

fn mode(ci: bool) -> Mode {
    if ci {
        Mode::ContextInsensitive { keep_scross: true }
    } else {
        Mode::ContextSensitive
    }
}

/// The CLI's watchdog defaults (10 s stall threshold, 50 ms poll).
fn watchdog() -> WatchdogSpec {
    WatchdogSpec {
        stall_after: Duration::from_secs(10),
        poll: Duration::from_millis(50),
    }
}

/// `analyze_with_faults`' phases in its order, with the Naive solver
/// the CLI uses by default, one span per phase.
fn core_phases(t: &mut Tracer, p: &Program, mode: Mode) {
    let idx = t.span("core.index", |_| StmtIndex::build(p));
    let slab = t.span("core.slabels", |_| compute_slabels(&idx, true));
    let g = t.span("core.gen", |_| gen::generate(p, &idx, &slab, mode));
    let l1 = t.span("core.level1", |_| solve_set_naive(&g.level1));
    let l2sys = t.span("core.simplify", |_| gen::simplify(&g, &l1, &slab));
    let l2 = t.span("core.level2", |_| solve_pair_naive(&l2sys));
    t.count("core.iters_s", slab.passes as f64);
    t.count("core.iters_1", l1.passes as f64);
    t.count("core.iters_2", l2.passes as f64);
    t.count("core.evals", (slab.evals + l1.evals + l2.evals) as f64);
    let bytes = slab.bytes() + l1.bytes() + l2.bytes();
    t.count_max("core.solved_mb", bytes as f64 / 1e6);
}

fn analyze(t: &mut Tracer, p: &Program, mode: Mode) -> Result<Analysis, String> {
    t.span("core.analyze", |_| {
        analyze_with_budget(
            p,
            mode,
            SolverKind::Naive,
            Budget::unlimited(),
            &CancelToken::new(),
        )
    })
    .map_err(|e| e.to_string())
}

/// Explores `p` in-process exactly as `fx10 check` does.
pub fn explore_in_process(
    t: &mut Tracer,
    span: &'static str,
    p: &Program,
    jobs: usize,
    max_states: usize,
) -> Result<fx10_semantics::Exploration, String> {
    t.span(span, |_| {
        explore_parallel_durable(
            p,
            &[],
            ExploreConfig {
                max_states,
                ..ExploreConfig::default()
            },
            jobs,
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
            Durability {
                checkpoint: None,
                resume: None,
                watchdog: Some(watchdog()),
            },
        )
    })
    .map_err(|e| e.to_string())
}

/// Explores `p` across shard worker processes as `fx10 explore
/// --shards N [--listen 127.0.0.1:0]` does.
pub fn explore_shards(
    t: &mut Tracer,
    ctx: &Ctx,
    span: &'static str,
    p: &Program,
    shards: usize,
    listen: bool,
    max_states: usize,
) -> Result<fx10_semantics::Exploration, String> {
    let wd = watchdog();
    let opts = ShardedOptions {
        shards,
        worker_exe: ctx.fx10.clone(),
        ckpt_dir: ctx.work.join(format!("shards-{span}")),
        ckpt_every: 1024,
        stall_after: wd.stall_after,
        poll: wd.poll,
        listen: listen.then(|| "127.0.0.1:0".parse().expect("loopback address literal")),
        ..ShardedOptions::default()
    };
    let config = ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    };
    let (e, prov) = t
        .span(span, |_| {
            explore_sharded(p, &[], &config, &opts, &CancelToken::new())
        })
        .map_err(|e| e.to_string())?;
    t.count("robust.restarts", prov.restarts as f64);
    let reconnects = prov
        .events
        .iter()
        .filter(|e| e.contains("reconnect"))
        .count();
    t.count("robust.reconnects", reconnects as f64);
    Ok(e)
}

/// `fx10_lints::lint`'s children in its order, each under its own span:
/// the CS and CI analyses, the value analyses, and one bounded witness
/// search per static race pair the feasibility oracle does not prune.
/// What is left of the enclosing span is the lint layer's own work.
fn lint_children(t: &mut Tracer, p: &Program, input: &[i64]) -> Result<(), String> {
    use fx10_absint::{Absint, AbsintConfig, Domain, FeasibilityOracle};
    use fx10_semantics::witness::{find_witness, WitnessSearch};
    let defaults = fx10_lints::LintOptions::default();
    let cs = analyze(t, p, Mode::ContextSensitive)?;
    let ci = analyze(t, p, mode(true))?;
    let complete = cs.exhausted.is_none() && ci.exhausted.is_none();
    let (oracle, general) = if cs.exhausted.is_none() {
        let o = t.span("absint.fixpoint", |_| {
            FeasibilityOracle::build(p, &cs, Domain::Interval, Some(input))
        });
        let g = t.span("absint.fixpoint", |_| {
            Absint::analyze(p, cs.mhp(), &AbsintConfig::top(Domain::Interval))
        });
        t.count("absint.rounds", (o.facts.rounds() + g.rounds()) as f64);
        (Some(o), Some(g))
    } else {
        (None, None)
    };
    // Lint's own work: race detection against both relations (CS
    // membership decides each finding's tier).
    let acc = fx10_core::race::accesses(p);
    black_box(fx10_core::race::detect_races_with(&acc, |x, y| {
        cs.may_happen_in_parallel(x, y)
    }));
    let ci_races = fx10_core::race::detect_races_with(&acc, |x, y| ci.may_happen_in_parallel(x, y));
    let oracle = oracle.filter(|o| o.complete);
    for race in &ci_races {
        let pair = (race.first.label, race.second.label);
        if oracle
            .as_ref()
            .is_some_and(|o| !o.pair_feasible(pair.0, pair.1))
        {
            continue;
        }
        let found = t
            .span("semantics.witness", |_| {
                find_witness(
                    p,
                    input,
                    pair,
                    defaults.witness_states,
                    Budget::unlimited(),
                    &CancelToken::new(),
                )
            })
            .map_err(|e| e.to_string())?;
        let (states, decided) = match found {
            WitnessSearch::Found(w) => (w.states, true),
            WitnessSearch::Refuted { states } => (states, true),
            WitnessSearch::Exhausted { states } => (states, false),
        };
        t.count("semantics.witness_searches", 1.0);
        t.count("semantics.witness_states", states as f64);
        t.count("semantics.witness_decided", if decided { 1.0 } else { 0.0 });
    }
    // The passes lint runs after the race pass, also its own work.
    black_box(fx10_lints::structure::dead_methods(p));
    black_box(fx10_lints::structure::redundant_finishes(p));
    black_box(fx10_lints::structure::oob_accesses(p));
    let absint = match (&general, &oracle) {
        (Some(g), Some(o)) if !g.capped() => Some((g, &o.facts)),
        _ => None,
    };
    black_box(fx10_lints::structure::stuck_loops(p, input, absint));
    if complete {
        black_box(fx10_lints::structure::inert_asyncs(p, &cs));
        black_box(fx10_lints::audit::precision_audit(p, &cs, &ci));
    }
    Ok(())
}

/// Replays one request under a `request` root span.
pub fn replay(t: &mut Tracer, ctx: &Ctx, args: &[String]) -> Result<(), String> {
    let r = parse_req(args)?;
    t.span("request", |t| match r.cmd {
        "check" => {
            let p = load(t, r.target)?;
            let a = analyze(t, &p, Mode::ContextSensitive)?;
            let e = explore_in_process(t, "semantics.explore", &p, r.jobs, r.max_states)?;
            t.count("semantics.states", e.visited as f64);
            let sound = t.span("core.check_soundness", |_| a.check_soundness(e.mhp.iter()));
            if !sound.is_sound() {
                return Err(format!("{}: replay found an unsound pair", r.target));
            }
            Ok(())
        }
        "explore" => {
            let p = load(t, r.target)?;
            let shards = r
                .shards
                .ok_or("only sharded `explore` requests are replayed")?;
            let span = if r.listen {
                "robust.shard_tcp"
            } else {
                "robust.shard_pipe"
            };
            explore_shards(t, ctx, span, &p, shards, r.listen, r.max_states).map(|_| ())
        }
        "mhp" => {
            let p = load(t, r.target)?;
            core_phases(t, &p, mode(r.ci));
            Ok(())
        }
        "bench" => {
            let bm = fx10_suite::benchmark(r.target)
                .ok_or_else(|| format!("unknown suite program {}", r.target))?;
            t.span("frontend.analyze_condensed", |_| {
                fx10_frontend::analyze_condensed_budgeted(
                    &bm.program,
                    mode(r.ci),
                    SolverKind::Naive,
                    Budget::unlimited(),
                    &CancelToken::new(),
                )
            })
            .map(|a| {
                black_box(a);
            })
            .map_err(|e| e.to_string())
        }
        "lint" => {
            let p = load(t, r.target)?;
            let opts = fx10_lints::LintOptions {
                input: r.input.clone(),
                ..fx10_lints::LintOptions::default()
            };
            let report = t
                .span("lints.lint", |_| {
                    fx10_lints::lint(&p, &opts, &CancelToken::new())
                })
                .map_err(|e| e.to_string())?;
            let confirmed = report
                .diagnostics
                .iter()
                .filter(|d| d.confidence == fx10_lints::Confidence::Confirmed)
                .count();
            t.count("lints.findings", report.diagnostics.len() as f64);
            t.count("lints.confirmed", confirmed as f64);
            t.count("lints.refuted", report.refuted_races as f64);
            t.span("lints.pipeline", |t| lint_children(t, &p, &r.input))
        }
        "run" => {
            let p = load(t, r.target)?;
            let cancel = CancelToken::new();
            let out = if r.elide {
                t.span("runtime.elide", |_| {
                    fx10_runtime::run_elision(&p, &[], 1_000_000, Budget::unlimited(), &cancel)
                })
            } else {
                let cfg = fx10_runtime::RtConfig {
                    jobs: r.jobs,
                    seed: 0,
                    grain: 0,
                    max_steps: 1_000_000,
                };
                t.span("runtime.parallel", |_| {
                    fx10_runtime::run_parallel(
                        &p,
                        &[],
                        &cfg,
                        Budget::unlimited(),
                        &cancel,
                        &FaultPlan::none(),
                    )
                })
            }
            .map_err(|e| e.to_string())?;
            t.count("runtime.steps", out.steps as f64);
            t.count("runtime.activities", out.activities as f64);
            t.count("runtime.races", out.races.len() as f64);
            Ok(())
        }
        other => Err(format!("command `{other}` is not replayed")),
    })
}

/// Loads a program outside any span (for the trace-only extra runs).
pub fn load_plain(path: &Path) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Program::parse(&src).map_err(|e| format!("{}: {}", path.display(), e.message))
}
