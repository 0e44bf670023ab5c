//! CSV export of experiment results, for plotting.

use std::path::{Path, PathBuf};

use crate::ExperimentError;

/// An experiment result that can be exported as one or more CSV files.
///
/// Each file is returned as `(basename, contents)`; the `repro` binary
/// writes them under the directory given with `--csv DIR`.
pub trait ToCsv {
    /// Renders the result as named CSV files.
    fn to_csv(&self) -> Vec<(String, String)>;

    /// Writes [`to_csv`](Self::to_csv)'s files into `dir`, creating it
    /// first, and returns their paths in order.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Io`] naming the path when `dir` cannot
    /// be created or a file in it cannot be written.
    fn write_csv(&self, dir: &Path) -> Result<Vec<PathBuf>, ExperimentError> {
        let io_err = |what: &Path, e: std::io::Error| {
            ExperimentError::Io(format!("{}: {e}", what.display()))
        };
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        self.to_csv()
            .into_iter()
            .map(|(name, content)| {
                let path = dir.join(name);
                std::fs::write(&path, content).map_err(|e| io_err(&path, e))?;
                Ok(path)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed two-file result, so the write tests need no simulation.
    struct TwoFiles;

    impl ToCsv for TwoFiles {
        fn to_csv(&self) -> Vec<(String, String)> {
            vec![
                ("a.csv".to_owned(), "x\n1\n".to_owned()),
                ("b.csv".to_owned(), "y\n2\n".to_owned()),
            ]
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pscd-csv-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_csv_creates_the_directory_and_returns_each_path() {
        let dir = scratch_dir("ok").join("nested");
        let paths = TwoFiles.write_csv(&dir).unwrap();
        assert_eq!(paths, vec![dir.join("a.csv"), dir.join("b.csv")]);
        assert_eq!(std::fs::read_to_string(&paths[1]).unwrap(), "y\n2\n");
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn write_csv_below_a_regular_file_is_an_io_error_naming_the_path() {
        let root = scratch_dir("blocked");
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let dir = file.join("sub");
        match TwoFiles.write_csv(&dir) {
            Err(ExperimentError::Io(detail)) => {
                assert!(detail.contains(&*dir.to_string_lossy()), "{detail}")
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        std::fs::remove_dir_all(root).unwrap();
    }
}
