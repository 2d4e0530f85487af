//! Reconstruction accuracy: the paper's headline evaluation metrics.
//!
//! *Per-strand accuracy* is the percentage of reference strands
//! reconstructed without any error; *per-character accuracy* is the
//! percentage of reference characters reconstructed with the correct base at
//! the correct position.

use std::fmt;

use dnasim_core::Strand;

use crate::hamming::positional_matches;

/// Accuracy of a reconstruction run over a set of (reference, estimate)
/// pairs.
///
/// # Examples
///
/// ```
/// use dnasim_metrics::AccuracyReport;
/// use dnasim_core::Strand;
///
/// let reference: Strand = "ACGT".parse()?;
/// let perfect = reference.clone();
/// let off_by_one: Strand = "ACGA".parse()?;
///
/// let mut report = AccuracyReport::new();
/// report.record(&reference, &perfect);
/// report.record(&reference, &off_by_one);
/// assert_eq!(report.per_strand_percent(), 50.0);
/// assert_eq!(report.per_char_percent(), 87.5);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyReport {
    strands: usize,
    exact_strands: usize,
    chars: usize,
    correct_chars: usize,
}

impl AccuracyReport {
    /// Creates an empty report.
    pub fn new() -> AccuracyReport {
        AccuracyReport::default()
    }

    /// Records one reconstructed strand against its reference.
    pub fn record(&mut self, reference: &Strand, estimate: &Strand) {
        self.strands += 1;
        if reference == estimate {
            self.exact_strands += 1;
        }
        self.chars += reference.len();
        self.correct_chars += positional_matches(reference, estimate);
    }

    /// Records an erasure: a reference for which nothing was reconstructed.
    pub fn record_erasure(&mut self, reference: &Strand) {
        self.strands += 1;
        self.chars += reference.len();
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &AccuracyReport) {
        self.strands += other.strands;
        self.exact_strands += other.exact_strands;
        self.chars += other.chars;
        self.correct_chars += other.correct_chars;
    }

    /// Number of strands recorded.
    pub fn strand_count(&self) -> usize {
        self.strands
    }

    /// Number of strands reconstructed exactly.
    pub fn exact_strand_count(&self) -> usize {
        self.exact_strands
    }

    /// Per-strand accuracy as a fraction in `[0, 1]` (0.0 if empty).
    pub fn per_strand(&self) -> f64 {
        if self.strands == 0 {
            return 0.0;
        }
        self.exact_strands as f64 / self.strands as f64
    }

    /// Per-character accuracy as a fraction in `[0, 1]` (0.0 if empty).
    pub fn per_char(&self) -> f64 {
        if self.chars == 0 {
            return 0.0;
        }
        self.correct_chars as f64 / self.chars as f64
    }

    /// Per-strand accuracy in percent, as the paper's tables report it.
    pub fn per_strand_percent(&self) -> f64 {
        self.per_strand() * 100.0
    }

    /// Per-character accuracy in percent.
    pub fn per_char_percent(&self) -> f64 {
        self.per_char() * 100.0
    }
}

impl fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "per-strand {:.2}% ({}/{}), per-char {:.2}%",
            self.per_strand_percent(),
            self.exact_strands,
            self.strands,
            self.per_char_percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn empty_report_is_zero() {
        let r = AccuracyReport::new();
        assert_eq!(r.per_strand(), 0.0);
        assert_eq!(r.per_char(), 0.0);
        assert_eq!(r.strand_count(), 0);
    }

    #[test]
    fn perfect_reconstruction() {
        let reference = s("ACGTACGT");
        let mut r = AccuracyReport::new();
        r.record(&reference, &reference.clone());
        assert_eq!(r.per_strand_percent(), 100.0);
        assert_eq!(r.per_char_percent(), 100.0);
    }

    #[test]
    fn single_substitution_breaks_strand_not_all_chars() {
        let mut r = AccuracyReport::new();
        r.record(&s("ACGT"), &s("ACGA"));
        assert_eq!(r.per_strand_percent(), 0.0);
        assert_eq!(r.per_char_percent(), 75.0);
    }

    #[test]
    fn shorter_estimate_penalises_missing_chars() {
        let mut r = AccuracyReport::new();
        r.record(&s("ACGT"), &s("AC"));
        assert_eq!(r.per_char_percent(), 50.0);
    }

    #[test]
    fn longer_estimate_extra_chars_dont_count() {
        let mut r = AccuracyReport::new();
        r.record(&s("ACGT"), &s("ACGTAAAA"));
        // All four reference characters are correct, but the strand is not exact.
        assert_eq!(r.per_char_percent(), 100.0);
        assert_eq!(r.per_strand_percent(), 0.0);
    }

    #[test]
    fn erasures_count_as_total_loss() {
        let mut r = AccuracyReport::new();
        r.record_erasure(&s("ACGT"));
        r.record(&s("ACGT"), &s("ACGT"));
        assert_eq!(r.per_strand_percent(), 50.0);
        assert_eq!(r.per_char_percent(), 50.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = AccuracyReport::new();
        a.record(&s("ACGT"), &s("ACGT"));
        let mut b = AccuracyReport::new();
        b.record(&s("AAAA"), &s("TTTT"));
        a.merge(&b);
        assert_eq!(a.strand_count(), 2);
        assert_eq!(a.per_strand_percent(), 50.0);
        assert_eq!(a.per_char_percent(), 50.0);
    }

    #[test]
    fn display_is_informative() {
        let mut r = AccuracyReport::new();
        r.record(&s("ACGT"), &s("ACGT"));
        let text = r.to_string();
        assert!(text.contains("per-strand"));
        assert!(text.contains("100.00%"));
    }
}
