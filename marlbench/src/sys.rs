//! Process-level readings and the per-run scratch directory.

use std::path::{Path, PathBuf};

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
///
/// # Errors
///
/// The status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// A scratch directory under the working directory, removed on drop.
/// Kept relative so Unix-socket paths stay short wherever the checkout
/// lives.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.bench_run/<pid>`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_run` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}
