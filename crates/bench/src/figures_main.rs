//! `figures` — prints the paper's evaluation tables.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|example22|precision|all]
//! figures bench-explore [OUT.json]     # explorer benchmark report
//! figures bench-absint  [OUT.json]     # abstract-interpreter domain sweep
//! figures bench-run     [OUT.json]     # runtime: elision vs work stealing
//! ```
//!
//! `bench-explore` measures the seed-style sequential cloned explorer
//! against the interned work-stealing engine (jobs 1/2/4) and writes the
//! report to `OUT.json` (default `BENCH_explore.json`); CI uploads it as
//! an artifact.
//!
//! Run in release mode for meaningful times:
//! `cargo run --release -p fx10-bench --bin figures -- all`

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let print = |name: &str, body: fn() -> String| {
        println!("{}", body());
        println!("{}", "=".repeat(72));
        let _ = name;
    };
    match which.as_str() {
        "fig5" => print("fig5", fx10_bench::fig5),
        "fig6" => print("fig6", fx10_bench::fig6),
        "fig7" => print("fig7", fx10_bench::fig7),
        "fig8" => print("fig8", fx10_bench::fig8),
        "fig9" => print("fig9", fx10_bench::fig9),
        "example22" => print("example22", fx10_bench::example_2_2_report),
        "precision" => {
            println!("{}", fx10_bench::precision(200));
            println!("{}", "=".repeat(72));
        }
        "bench-explore" => {
            let out = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "BENCH_explore.json".to_string());
            let json = fx10_bench::bench_explore_json();
            print!("{json}");
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out}");
        }
        "bench-run" => {
            let out = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "BENCH_run.json".to_string());
            let json = fx10_bench::bench_run_json();
            print!("{json}");
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out}");
        }
        "bench-absint" => {
            let out = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "BENCH_absint.json".to_string());
            let json = fx10_bench::bench_absint_json();
            print!("{json}");
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out}");
        }
        "all" => {
            for f in [
                fx10_bench::fig5 as fn() -> String,
                fx10_bench::example_2_2_report,
                fx10_bench::fig6,
                fx10_bench::fig7,
                fx10_bench::fig8,
                fx10_bench::fig9,
            ] {
                println!("{}", f());
                println!("{}", "=".repeat(72));
            }
            println!("{}", fx10_bench::precision(200));
            println!("{}", "=".repeat(72));
        }
        other => {
            eprintln!(
                "unknown figure `{other}`; expected fig5..fig9, example22, precision, or all"
            );
            std::process::exit(2);
        }
    }
}
