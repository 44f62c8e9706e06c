//! The §6.2 control-plane overhead model: Tables 2 and 3.
//!
//! The paper estimates three kinds of overhead at a tier-1 AS — per-IA
//! size, number of IAs, and aggregate bytes — under four analyses:
//!
//! * **Basic** — every IA carries every protocol's control information;
//! * **+ Avg. path lengths** — an IA only carries information for the
//!   protocols actually on its path (3–5 critical fixes, 3–5
//!   custom/replacement protocols);
//! * **+ Sharing** — critical fixes share all but a fraction `CFu` of
//!   their control information with BGP (Figure 4's shared fields);
//! * **Single protocol** — the comparison baseline: an Internet running
//!   only BGP or one big critical fix.
//!
//! Every quantity is evaluated at the minimum and maximum of the
//! Table-2 parameter ranges, reproducing Table 3's rows. The headline
//! result — D-BGP costs only **1.3×–2.5×** a single-protocol Internet —
//! is the ratio of the *+ Sharing* and *Single protocol* totals.

use serde::Serialize;

/// The Table-2 parameters. All sizes in bytes.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OverheadParams {
    /// `P`: prefixes in today's Internet (600k–1M).
    pub prefixes: u64,
    /// `Pd`: prefixes in D-BGP's Internet (625k–1.05M; extra prefixes
    /// allow off-path discovery).
    pub prefixes_dbgp: u64,
    /// `PL`: average BGP path length (3–5).
    pub path_length: u64,
    /// `CFs`: number of critical fixes Internet-wide (10–100).
    pub critical_fixes: u64,
    /// Critical fixes per path (3–5).
    pub cf_per_path: u64,
    /// `CI/CF`: control information per critical fix (4KB–256KB).
    pub ci_per_cf: u64,
    /// `CFu`: unique (unshared) fraction of a critical fix's control
    /// information (0.1–0.3).
    pub cf_unique_fraction: f64,
    /// `CRs`: custom/replacement protocols Internet-wide (10–1000).
    pub custom_replacements: u64,
    /// Custom/replacements per path (3–5).
    pub cr_per_path: u64,
    /// `CI/CR`: control information per custom/replacement (100B–10KB).
    pub ci_per_cr: u64,
}

impl OverheadParams {
    /// The minimum of every Table-2 range.
    pub fn paper_min() -> Self {
        OverheadParams {
            prefixes: 600_000,
            prefixes_dbgp: 625_000,
            path_length: 3,
            critical_fixes: 10,
            cf_per_path: 3,
            ci_per_cf: 4 << 10,
            cf_unique_fraction: 0.1,
            custom_replacements: 10,
            cr_per_path: 3,
            ci_per_cr: 100,
        }
    }

    /// The maximum of every Table-2 range.
    pub fn paper_max() -> Self {
        OverheadParams {
            prefixes: 1_000_000,
            prefixes_dbgp: 1_050_000,
            path_length: 5,
            critical_fixes: 100,
            cf_per_path: 5,
            ci_per_cf: 256 << 10,
            cf_unique_fraction: 0.3,
            custom_replacements: 1000,
            cr_per_path: 5,
            ci_per_cr: 10 << 10,
        }
    }
}

/// One analysis row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OverheadRow {
    /// Bytes an IA carries for critical fixes.
    pub cf_bytes: f64,
    /// Bytes an IA carries for custom/replacement protocols.
    pub cr_bytes: f64,
    /// Number of advertisements received at the tier-1.
    pub advertisements: u64,
    /// Aggregate bytes (state kept at the tier-1).
    pub total_bytes: f64,
}

/// The "Basic" analysis: all protocols in every IA.
pub fn basic(p: &OverheadParams) -> OverheadRow {
    let cf = (p.critical_fixes * p.ci_per_cf) as f64;
    let cr = (p.custom_replacements * p.ci_per_cr) as f64;
    OverheadRow {
        cf_bytes: cf,
        cr_bytes: cr,
        advertisements: p.prefixes_dbgp,
        total_bytes: (cf + cr) * p.prefixes_dbgp as f64,
    }
}

/// "+ Avg. path lengths": only the protocols on the path contribute.
pub fn with_path_lengths(p: &OverheadParams) -> OverheadRow {
    let cf = (p.cf_per_path * p.ci_per_cf) as f64;
    let cr = (p.cr_per_path * p.ci_per_cr) as f64;
    OverheadRow {
        cf_bytes: cf,
        cr_bytes: cr,
        advertisements: p.prefixes_dbgp,
        total_bytes: (cf + cr) * p.prefixes_dbgp as f64,
    }
}

/// "+ Sharing": critical fixes share all but `CFu` of their information
/// with the baseline, so one full copy plus per-fix unique parts.
pub fn with_sharing(p: &OverheadParams) -> OverheadRow {
    let cf = p.cf_per_path as f64 * p.ci_per_cf as f64 * p.cf_unique_fraction
        + p.ci_per_cf as f64 * (1.0 - p.cf_unique_fraction);
    let cr = (p.cr_per_path * p.ci_per_cr) as f64;
    OverheadRow {
        cf_bytes: cf,
        cr_bytes: cr,
        advertisements: p.prefixes_dbgp,
        total_bytes: (cf + cr) * p.prefixes_dbgp as f64,
    }
}

/// "Single protocol": the baseline Internet the paper compares against.
pub fn single_protocol(p: &OverheadParams) -> OverheadRow {
    let cf = p.ci_per_cf as f64;
    OverheadRow {
        cf_bytes: cf,
        cr_bytes: 0.0,
        advertisements: p.prefixes,
        total_bytes: cf * p.prefixes as f64,
    }
}

/// D-BGP's overhead factor over a single-protocol Internet — the paper's
/// 1.3×/2.5× headline.
pub fn overhead_factor(p: &OverheadParams) -> f64 {
    with_sharing(p).total_bytes / single_protocol(p).total_bytes
}

/// The full Table 3: (analysis name, min row, max row) triples in paper
/// order.
pub fn table3() -> Vec<(&'static str, OverheadRow, OverheadRow)> {
    let min = OverheadParams::paper_min();
    let max = OverheadParams::paper_max();
    vec![
        ("Basic", basic(&min), basic(&max)),
        ("+ Avg. path lengths", with_path_lengths(&min), with_path_lengths(&max)),
        ("+ Sharing", with_sharing(&min), with_sharing(&max)),
        ("Single protocol", single_protocol(&min), single_protocol(&max)),
    ]
}

/// Human-readable byte formatting matching the paper's table units.
pub fn fmt_bytes(bytes: f64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    if bytes >= GB {
        format!("{:.1} GB", bytes / GB)
    } else if bytes >= MB {
        format!("{:.1} MB", bytes / MB)
    } else if bytes >= KB {
        format!("{:.1} KB", bytes / KB)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const KB: f64 = 1024.0;

    #[test]
    fn basic_row_matches_table3() {
        let min = basic(&OverheadParams::paper_min());
        let max = basic(&OverheadParams::paper_max());
        // Paper: CF contribution 40 KB – 25 MB.
        assert_eq!(min.cf_bytes, 40.0 * KB);
        assert!((max.cf_bytes / MB - 25.0).abs() < 0.5, "{}", max.cf_bytes / MB);
        // Paper: CR contribution 1 KB – 9.8 MB.
        assert!((min.cr_bytes / KB - 1.0).abs() < 0.05);
        assert!((max.cr_bytes / MB - 9.8).abs() < 0.1);
        // Paper: total 24 GB – 36,000 GB.
        assert!((min.total_bytes / GB - 24.0).abs() < 1.0, "{}", min.total_bytes / GB);
        assert!((max.total_bytes / GB - 36_000.0).abs() < 1_000.0, "{}", max.total_bytes / GB);
    }

    #[test]
    fn path_length_row_matches_table3() {
        let min = with_path_lengths(&OverheadParams::paper_min());
        let max = with_path_lengths(&OverheadParams::paper_max());
        // Paper: CF 12 KB – 1.3 MB; CR 0.3 KB – 50 KB; total 7 GB – 1,300 GB.
        // (The paper's "1.3 MB" is 5 x 256 KB = 1.25 MiB reported in
        // decimal megabytes; we assert the exact binary value.)
        assert_eq!(min.cf_bytes, 12.0 * KB);
        assert!((max.cf_bytes / MB - 1.25).abs() < 0.01);
        assert!((min.cr_bytes / KB - 0.3).abs() < 0.01);
        assert!((max.cr_bytes / KB - 50.0).abs() < 1.0);
        assert!((min.total_bytes / GB - 7.0).abs() < 0.5);
        assert!((max.total_bytes / GB - 1_300.0).abs() < 100.0);
    }

    #[test]
    fn sharing_row_matches_table3() {
        let min = with_sharing(&OverheadParams::paper_min());
        let max = with_sharing(&OverheadParams::paper_max());
        // Paper: CF 4.8 KB – 0.56 MB; total 3 GB – 610 GB. (0.56 MB is
        // 563.2 KB = 0.55 MiB in decimal-megabyte rounding.)
        assert!((min.cf_bytes / KB - 4.8).abs() < 0.05, "{}", min.cf_bytes / KB);
        assert!((max.cf_bytes / MB - 0.55).abs() < 0.01, "{}", max.cf_bytes / MB);
        assert!((min.total_bytes / GB - 3.0).abs() < 0.25, "{}", min.total_bytes / GB);
        assert!((max.total_bytes / GB - 610.0).abs() < 30.0, "{}", max.total_bytes / GB);
    }

    #[test]
    fn single_protocol_row_matches_table3() {
        let min = single_protocol(&OverheadParams::paper_min());
        let max = single_protocol(&OverheadParams::paper_max());
        // Paper: 4 KB – 256 KB per IA; 2.3 GB – 240 GB total.
        assert_eq!(min.cf_bytes, 4.0 * KB);
        assert_eq!(max.cf_bytes, 256.0 * KB);
        assert!((min.total_bytes / GB - 2.3).abs() < 0.1);
        assert!((max.total_bytes / GB - 240.0).abs() < 10.0);
        assert_eq!(min.advertisements, 600_000);
    }

    #[test]
    fn headline_factor_is_1_3x_to_2_5x() {
        let lo = overhead_factor(&OverheadParams::paper_min());
        let hi = overhead_factor(&OverheadParams::paper_max());
        assert!((lo - 1.3).abs() < 0.05, "min factor {lo}");
        assert!((hi - 2.5).abs() < 0.1, "max factor {hi}");
    }

    #[test]
    fn analyses_are_monotonically_cheaper() {
        for params in [OverheadParams::paper_min(), OverheadParams::paper_max()] {
            let b = basic(&params).total_bytes;
            let pl = with_path_lengths(&params).total_bytes;
            let sh = with_sharing(&params).total_bytes;
            assert!(b >= pl, "path-length refinement cannot increase cost");
            assert!(pl >= sh, "sharing refinement cannot increase cost");
        }
    }

    #[test]
    fn table3_has_paper_rows_in_order() {
        let t = table3();
        let names: Vec<&str> = t.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["Basic", "+ Avg. path lengths", "+ Sharing", "Single protocol"]);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(4.0 * KB), "4.0 KB");
        assert_eq!(fmt_bytes(25.0 * MB), "25.0 MB");
        assert_eq!(fmt_bytes(24.0 * GB), "24.0 GB");
    }
}
