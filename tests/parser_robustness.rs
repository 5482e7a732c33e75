//! Parser robustness: `Program::parse` answers every input with `Ok` or
//! `Err` and never panics.
//!
//! The inputs are seeded mutations of every checked-in `programs/*.fx10`
//! (byte delete, insert, replace and truncate, stacked one to four deep)
//! plus random byte strings. A seeded xorshift generator keeps every run
//! identical, so a failure names an input that reproduces.

use fx10::syntax::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated variants per fixture.
const MUTATIONS_PER_PROGRAM: usize = 2_000;
/// Free-standing random inputs.
const RANDOM_INPUTS: usize = 10_000;

/// Bytes the mutator favours: FX10's own punctuation and keyword letters
/// reach deeper into the grammar than uniform noise does.
const GRAMMAR_BYTES: &[u8] = b"{}()[];:=!<>+-*,. \n0123456789adefhilmnoprstwyASK";

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        if self.next() & 1 == 0 {
            GRAMMAR_BYTES[self.below(GRAMMAR_BYTES.len())]
        } else {
            self.next() as u8
        }
    }
}

/// Applies one byte-level edit in place.
fn mutate(rng: &mut XorShift, bytes: &mut Vec<u8>) {
    match rng.below(4) {
        0 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes.remove(i);
        }
        1 => {
            let i = rng.below(bytes.len() + 1);
            let b = rng.byte();
            bytes.insert(i, b);
        }
        2 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes[i] = rng.byte();
        }
        3 => {
            let keep = rng.below(bytes.len() + 1);
            bytes.truncate(keep);
        }
        _ => {}
    }
}

/// Parses `bytes` (lossily decoded, since `parse` takes `&str`) and
/// returns the panic message if the parser panicked.
fn parse_panics(bytes: &[u8]) -> Option<String> {
    let src = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| {
        let _ = Program::parse(&src);
    }))
    .err()
    .map(|payload| fx10::robust::panic_message(payload.as_ref()))
}

#[test]
fn mutated_fixtures_and_random_bytes_never_panic_the_parser() {
    let mut fixtures: Vec<_> = std::fs::read_dir("programs")
        .expect("programs/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fx10"))
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 20, "expected the checked-in fixtures");

    // Silence the default hook so a failure prints one summary instead of
    // one backtrace per panicking input.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut failures: Vec<(String, Vec<u8>, String)> = Vec::new();
    let mut parsed = 0usize;
    for path in &fixtures {
        let original = std::fs::read(path).expect("fixture is readable");
        for _ in 0..MUTATIONS_PER_PROGRAM {
            let mut bytes = original.clone();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut bytes);
            }
            parsed += 1;
            if let Some(msg) = parse_panics(&bytes) {
                failures.push((path.display().to_string(), bytes, msg));
            }
        }
    }
    for _ in 0..RANDOM_INPUTS {
        let len = rng.below(200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        parsed += 1;
        if let Some(msg) = parse_panics(&bytes) {
            failures.push(("random".into(), bytes, msg));
        }
    }
    std::panic::set_hook(hook);

    if let Some((origin, bytes, msg)) = failures.first() {
        panic!(
            "{} of {parsed} input(s) panicked the parser; first ({origin}): {msg}\ninput: {:?}",
            failures.len(),
            String::from_utf8_lossy(bytes)
        );
    }
}
