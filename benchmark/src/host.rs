//! Where a result was measured.  Results from different hosts are never compared.

use dprof::core::schema::Json;
use std::process::Command;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let line = String::from_utf8(output.stdout)
        .ok()?
        .lines()
        .next()?
        .trim()
        .to_string();
    (output.status.success() && !line.is_empty()).then_some(line)
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Host> {
        let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        Some(Host {
            nproc: doc.get("nproc")?.as_f64()? as usize,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            commit: text("commit")?,
        })
    }
}
