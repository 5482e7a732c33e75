//! Seeded input generation. Every program the benchmark hands to `fx10`
//! is written here from the workload seed; `fx10` never sees anything
//! else. Fixtures that are copied rather than generated (the chaos
//! programs, the lint fixtures, the runtime fixtures) are copied by
//! `run.py`.

use fx10_suite::random::{random_fx10, RandomConfig, Xorshift};
use std::fmt::Write as _;
use std::path::Path;

/// How large the generated inputs are: `Full` for measurement, `Tiny`
/// for the benchmark's own smoke tests.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One generated input: a file name, its kind (which request list and
/// which correctness check applies), and, for race-free kernels, the
/// final array the benchmark computed itself.
pub struct Input {
    pub name: String,
    pub kind: &'static str,
    pub expected_array: Option<Vec<i64>>,
}

/// Method counts of the `static` draw: 10 statements per method at
/// nesting depth 4 gives roughly 40 labels per method, so the ladder
/// spans a few hundred to ~800 labels. Larger programs are left out on
/// purpose: at ~2k labels a CI solve holds about 1 GB.
const STATIC_METHODS: &[usize] = &[6, 8, 10, 12, 14, 16, 18, 20];
/// Random programs drawn per rung of the ladder.
const STATIC_PER_SHAPE: u64 = 2;
/// The `static` draw's generator seed. It is fixed rather than taken
/// from the workload seed: analysis cost varies so much between random
/// programs of one shape that fresh draws moved the workload's wall time
/// from 4.7 s to 7.3 s over four seeds (README, "Seeds").
const STATIC_DRAW: u64 = 0x5eed;
/// `lint` programs: generator seeds `1..=LINT_PROGRAMS` at the
/// generator's default shape (see README: a fresh draw per benchmark
/// seed would move wall time by several times, because lint's cost is
/// concentrated in a few programs).
const LINT_PROGRAMS: u64 = 12;
/// Depth of the racy async tree (2^depth leaves). Depth 11 costs four
/// times as much and its `--jobs 2` time is just as bimodal, so a run
/// could take too few samples of it to be steady (README, "run").
const TREE_DEPTH: u32 = 10;
/// Increments per worker in the two-worker fanout.
const FANOUT_INCREMENTS: usize = 25_000;

/// SplitMix64 finaliser: derives independent generator seeds from the
/// workload seed and an index.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn write(dir: &Path, name: &str, src: &str) -> std::io::Result<()> {
    std::fs::write(dir.join(name), src)
}

/// Writes the workload's generated inputs into `dir` and lists them.
pub fn generate(
    workload: &str,
    seed: u64,
    scale: Scale,
    dir: &Path,
) -> std::io::Result<Vec<Input>> {
    std::fs::create_dir_all(dir)?;
    let tiny = scale == Scale::Tiny;
    let mut out = Vec::new();
    match workload {
        "static" => {
            let shapes: &[usize] = if tiny { &[3] } else { STATIC_METHODS };
            let per = if tiny { 1 } else { STATIC_PER_SHAPE };
            for (k, &methods) in shapes.iter().enumerate() {
                for j in 0..per {
                    let p = random_fx10(RandomConfig {
                        methods,
                        stmts_per_method: if tiny { 4 } else { 10 },
                        max_depth: if tiny { 3 } else { 4 },
                        seed: mix(STATIC_DRAW, k as u64 * 64 + j),
                    });
                    let name = format!("static_m{methods}_{j}.fx10");
                    write(dir, &name, &fx10_syntax::pretty::program(&p))?;
                    out.push(Input {
                        name,
                        kind: "random",
                        expected_array: None,
                    });
                }
            }
        }
        "lint" => {
            let n = if tiny { 2 } else { LINT_PROGRAMS };
            for g in 1..=n {
                let shape = if tiny {
                    RandomConfig {
                        methods: 2,
                        stmts_per_method: 3,
                        max_depth: 2,
                        seed: g,
                    }
                } else {
                    RandomConfig {
                        seed: g,
                        ..RandomConfig::default()
                    }
                };
                let p = random_fx10(shape);
                let name = format!("lint_random_{g}.fx10");
                write(dir, &name, &fx10_syntax::pretty::program(&p))?;
                out.push(Input {
                    name,
                    kind: "random",
                    expected_array: None,
                });
            }
        }
        "run" => {
            let mut rng = Xorshift::new(mix(seed, 1));
            let depth = if tiny { 3 } else { TREE_DEPTH };
            write(dir, "run_tree.fx10", &async_tree(depth, &mut rng))?;
            out.push(Input {
                name: "run_tree.fx10".into(),
                kind: "racy",
                expected_array: None,
            });
            let n = if tiny { 20 } else { FANOUT_INCREMENTS };
            let (src, array) = fanout(n, &mut rng);
            write(dir, "run_fanout.fx10", &src)?;
            out.push(Input {
                name: "run_fanout.fx10".into(),
                kind: "race-free",
                expected_array: Some(array),
            });
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no generated inputs for workload `{other}`"),
            ))
        }
    }
    Ok(out)
}

/// The binary async tree: `t_k` runs `finish { async { t_{k-1}(); }
/// t_{k-1}(); }` and each leaf increments four distinct seed-chosen
/// cells of an eight-cell array. Leaves run in parallel and share their
/// cells, so the tree is racy and its final array is schedule-dependent.
/// The cells are distinct so that every seed gives the race detector the
/// same amount of state.
fn async_tree(depth: u32, rng: &mut Xorshift) -> String {
    let mut s = String::from("array[8];\ndef main() { t");
    let _ = writeln!(s, "{depth}(); }}");
    for k in (1..=depth).rev() {
        let _ = writeln!(
            s,
            "def t{k}() {{ finish {{ async {{ t{}(); }} t{}(); }} }}",
            k - 1,
            k - 1
        );
    }
    let mut cells: Vec<u64> = (0..8).collect();
    for i in 0..4 {
        let j = i + rng.below(8 - i as u64) as usize;
        cells.swap(i, j);
    }
    s.push_str("def t0() {");
    for c in &cells[..4] {
        let _ = write!(s, " a[{c}] = a[{c}] + 1;");
    }
    s.push_str(" }\n");
    s
}

/// Two straight-line workers under one finish, each incrementing
/// seed-chosen cells of its own half of a 16-cell array `n` times. The
/// halves are disjoint, so the program is race-free and its final array
/// is the per-cell increment count, which is returned alongside.
fn fanout(n: usize, rng: &mut Xorshift) -> (String, Vec<i64>) {
    let mut array = vec![0i64; 16];
    let mut s =
        String::from("array[16];\ndef main() { finish { async { w0(); } async { w1(); } } }\n");
    for w in 0..2 {
        let _ = write!(s, "def w{w}() {{");
        for _ in 0..n {
            let c = w * 8 + rng.below(8) as usize;
            array[c] += 1;
            let _ = write!(s, " a[{c}] = a[{c}] + 1;");
        }
        s.push_str(" }\n");
    }
    (s, array)
}
