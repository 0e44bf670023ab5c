//! Byte-for-byte pin of `repro all`: stdout and every CSV at scale 0.003
//! must equal the files under `tests/golden/`.
//!
//! The pinned files were written by `repro all --scale 0.003 --threads 2
//! --csv DIR`, stdout into `stdout.txt`. Output is the same in debug and
//! release builds and at any thread count, so one set of files serves
//! every profile. A change that moves a rendered byte on purpose
//! regenerates them with that command and says why.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

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
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "0.003", "--threads", "2", "--csv"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let golden = Path::new(GOLDEN);
    let stdout = fs::read(golden.join("stdout.txt")).unwrap();
    assert!(
        run.stdout == stdout,
        "stdout differs from tests/golden/stdout.txt:\n{}",
        String::from_utf8_lossy(&run.stdout)
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
