//! Process memory from `/proc/self/status` (Linux).

/// A `/proc/self/status` field in MB (the kernel reports kB).
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set size of this process so far (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`).
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_positive_rss() {
        let peak = super::peak_rss_mb().unwrap();
        let now = super::rss_mb().unwrap();
        assert!(peak > 0.0 && now > 0.0 && now <= peak + 1.0);
    }
}
