//! Byte-for-byte pins of `repro all`'s output.
//!
//! - At scale 0.003, stdout and every CSV must equal the files under
//!   `tests/golden/`. They were written by `repro all --scale 0.003
//!   --threads 2 --csv DIR`, stdout into `stdout.txt`. Output is the same in
//!   debug and release builds and at any thread count, so one set of files
//!   serves every profile. Regenerate, from the repository root, with
//!
//!   ```text
//!   cargo run --release -q -p pscd-experiments --bin repro -- all --scale 0.003 \
//!       --threads 2 --csv crates/experiments/tests/golden > crates/experiments/tests/golden/stdout.txt
//!   ```
//!
//! - At full scale (`#[ignore]`d: seconds in release, minutes in debug),
//!   stdout must equal the part of `EXPERIMENTS.md` after its marker line.
//!   Regenerate, from the repository root, with
//!
//!   ```text
//!   { sed '/^<!-- below: repro all/q' EXPERIMENTS.md
//!     cargo run --release -q -p pscd-experiments --bin repro -- all; } > EXPERIMENTS.new
//!   mv EXPERIMENTS.new EXPERIMENTS.md
//!   ```
//!
//!   and re-derive the verdicts in the file's hand-written head.
//!
//! - Alone, each exhibit prints its section of the scale-0.003 pin.
//!
//! A change that moves a rendered byte on purpose regenerates the pin it
//! moves and says why.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
/// The line of `EXPERIMENTS.md` after which the file is `repro all`'s stdout.
const MARKER: &str =
    "\n<!-- below: repro all (full scale), byte for byte; regenerate, never edit -->\n";

/// Every exhibit's `repro` name, in `repro all` order.
const EXHIBITS: [&str; 15] = [
    "beta",
    "fig3",
    "fig4",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "classic",
    "lap-bounds",
    "partition",
    "coverage",
    "crash",
    "invalidation",
    "variance",
    "shift",
];

/// `repro` with `args`; its stdout, or a panic with its stderr.
fn repro(args: &[&str]) -> Vec<u8> {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    run.stdout
}

/// `repro all` with `args`.
fn repro_all(args: &[&str]) -> Vec<u8> {
    repro(&[&["all"], args].concat())
}

fn csv_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv"))
        .collect()
}

#[test]
fn repro_all_matches_the_pinned_stdout_and_csvs() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let dir = out.to_str().unwrap();
    let stdout = repro_all(&["--scale", "0.003", "--threads", "2", "--csv", dir]);

    let golden = Path::new(GOLDEN);
    let want = fs::read(golden.join("stdout.txt")).unwrap();
    assert!(
        stdout == want,
        "stdout differs from tests/golden/stdout.txt:\n{}",
        String::from_utf8_lossy(&stdout)
    );

    let expected = csv_names(golden);
    assert_eq!(expected.len(), 19, "the pin holds all 19 CSVs");
    assert_eq!(csv_names(&out), expected, "the same CSV files are written");
    for name in &expected {
        let got = fs::read(out.join(name)).unwrap();
        let want = fs::read(golden.join(name)).unwrap();
        assert!(
            got == want,
            "{name} differs from tests/golden/{name}:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
    fs::remove_dir_all(&out).unwrap();
}

/// An exhibit prints the same bytes whether its plan holds only its own
/// cells or every exhibit's.
#[test]
fn each_exhibit_alone_prints_its_section_of_repro_all() {
    let all = fs::read_to_string(Path::new(GOLDEN).join("stdout.txt")).unwrap();
    let mut starts: Vec<usize> = all.match_indices("\n## ").map(|(i, _)| i + 1).collect();
    starts.insert(0, 0);
    starts.push(all.len());
    assert_eq!(starts.len(), EXHIBITS.len() + 1, "one section per exhibit");
    for (name, bounds) in EXHIBITS.iter().zip(starts.windows(2)) {
        let want = &all[bounds[0]..bounds[1]];
        let got = repro(&[name, "--scale", "0.003", "--threads", "2"]);
        assert!(
            got == want.as_bytes(),
            "repro {name} differs from its section of tests/golden/stdout.txt:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
}

#[test]
#[ignore = "full-scale run; use cargo test --release -- --ignored"]
fn experiments_md_is_repro_all_at_full_scale() {
    let doc = fs::read_to_string(EXPERIMENTS_MD).unwrap();
    let (_, want) = doc
        .split_once(MARKER)
        .expect("EXPERIMENTS.md has the marker line");
    let got = String::from_utf8(repro_all(&[])).unwrap();
    if got != want {
        let (line, (ours, theirs)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("texts that differ differ on some line");
        panic!(
            "EXPERIMENTS.md's generated part differs from `repro all` at its line {}:\n  \
             EXPERIMENTS.md: {theirs}\n  repro all:      {ours}\n\
             regenerate it (see this file's module doc) and re-derive the verdicts",
            line + 1
        );
    }
}
