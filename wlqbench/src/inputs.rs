//! Seeded input logs, generated once per (input, seed) and cached as
//! files. Generation is never timed: workloads only read the files.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wlq_log::{io as logio, paper, Log};
use wlq_workflow::{generator, scenarios, simulate, SimulationConfig};

use crate::trace;

/// A log the benchmark can generate.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The clinic referral scenario, simulated with the run's seed.
    Clinic { instances: usize },
    /// `generator::skewed_log` with the run's seed.
    Skewed {
        instances: usize,
        length: usize,
        alphabet: usize,
    },
    /// The paper's Figure 3 log (the seed is ignored).
    Figure3,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Bin,
    Text,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Bin => "bin",
            Format::Text => "txt",
        }
    }
}

/// Where inputs and traces go: `work/` inside the benchmark's package.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

impl Source {
    /// File-name prefix shared by every seed of this input; `None` for
    /// the seedless Figure 3 log.
    fn seeded_prefix(self) -> Option<String> {
        match self {
            Source::Clinic { instances } => Some(format!("clinic-{instances}-s")),
            Source::Skewed {
                instances,
                length,
                alphabet,
            } => Some(format!("skewed-{instances}x{length}x{alphabet}-s")),
            Source::Figure3 => None,
        }
    }

    fn stem(self, seed: u64) -> String {
        self.seeded_prefix()
            .map_or_else(|| "figure3".to_string(), |prefix| format!("{prefix}{seed}"))
    }

    fn generate(self, seed: u64) -> Log {
        match self {
            Source::Clinic { instances } => simulate(
                &scenarios::clinic::model(),
                &SimulationConfig::new(instances, seed),
            ),
            Source::Skewed {
                instances,
                length,
                alphabet,
            } => generator::skewed_log(instances, length, alphabet, seed),
            Source::Figure3 => paper::figure3_log(),
        }
    }

    /// The input files for `seed`, one per format, generating the missing
    /// ones first. Only the latest seed of each input stays cached, since
    /// inputs run to tens of megabytes.
    pub fn files(self, seed: u64, formats: &[Format]) -> io::Result<Vec<PathBuf>> {
        let dir = work_dir().join("inputs");
        fs::create_dir_all(&dir)?;
        let stem = self.stem(seed);
        let paths: Vec<PathBuf> = formats
            .iter()
            .map(|f| dir.join(format!("{stem}.{}", f.extension())))
            .collect();
        if paths.iter().any(|p| !p.exists()) {
            if let Some(prefix) = self.seeded_prefix() {
                for entry in fs::read_dir(&dir)? {
                    let path = entry?.path();
                    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                    let other_seed = name.is_some_and(|n| {
                        n.starts_with(&prefix) && !n.starts_with(&format!("{stem}."))
                    });
                    if other_seed {
                        fs::remove_file(path)?;
                    }
                }
            }
            let log = self.generate(seed);
            for (format, path) in formats.iter().zip(&paths) {
                if path.exists() {
                    continue;
                }
                let bytes = match format {
                    Format::Bin => logio::binary::write_binary(&log).to_vec(),
                    Format::Text => logio::text::write_text(&log).into_bytes(),
                };
                // Write aside and rename, so an interrupted run never
                // leaves a truncated input behind.
                let partial = path.with_extension(format!("partial{}", std::process::id()));
                fs::write(&partial, bytes)?;
                fs::rename(&partial, path)?;
            }
        }
        Ok(paths)
    }
}

/// Reads and decodes a log file the way `wlq query` does, one span per
/// step. In a traced run it also re-runs Definition 2 validation on the
/// decoded records, as a span of its own.
pub fn read_log(path: &Path, format: Format) -> Result<Log, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let log = match format {
        Format::Bin => {
            let raw = trace::span("log.read", || fs::read(path)).map_err(|e| fail(&e))?;
            trace::span("log.decode_bin", || logio::binary::read_binary(raw.into()))
        }
        Format::Text => {
            let text =
                trace::span("log.read", || fs::read_to_string(path)).map_err(|e| fail(&e))?;
            trace::span("log.decode_text", || {
                let log = logio::text::read_text(&text);
                drop(text);
                log
            })
        }
    }
    .map_err(|e| fail(&e))?;
    if !trace::recording() {
        return Ok(log);
    }
    trace::excluded("log.validate", || Log::new(log.into_records())).map_err(|e| fail(&e))
}
