//! DNA strands: owned sequences of [`Base`]s.

use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use crate::rng::{Rng, RngExt};

use crate::base::{Base, ParseBaseError};

/// An owned DNA sequence.
///
/// A `Strand` represents both *reference strands* (the designed sequences of
/// fixed length `L` handed to synthesis) and *noisy reads* (the
/// variable-length sequences coming back from the sequencer): the noisy
/// channel maps `(Σ_L)^N → (Σ*)^M`, so both sides share one representation.
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
///
/// let s: Strand = "GCTA".parse()?;
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.to_string(), "GCTA");
/// assert!((s.gc_ratio() - 0.5).abs() < 1e-9);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Strand {
    bases: Vec<Base>,
}

impl Strand {
    /// Creates an empty strand.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// assert!(Strand::new().is_empty());
    /// ```
    pub fn new() -> Strand {
        Strand { bases: Vec::new() }
    }

    /// Creates an empty strand with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> Strand {
        Strand {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Creates a strand from a vector of bases.
    ///
    /// ```
    /// use dnasim_core::{Base, Strand};
    /// let s = Strand::from_bases(vec![Base::A, Base::T]);
    /// assert_eq!(s.to_string(), "AT");
    /// ```
    pub fn from_bases(bases: Vec<Base>) -> Strand {
        Strand { bases }
    }

    /// Generates a strand of length `len` with bases drawn uniformly at
    /// random.
    ///
    /// ```
    /// use dnasim_core::{Strand, rng::seeded};
    /// let mut rng = seeded(1);
    /// let s = Strand::random(110, &mut rng);
    /// assert_eq!(s.len(), 110);
    /// ```
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Strand {
        Strand {
            bases: (0..len).map(|_| Base::random(rng)).collect(),
        }
    }

    /// Generates a random strand whose GC-ratio is exactly 50% (when `len`
    /// is even; otherwise as close as possible), mirroring the GC-balance
    /// constraint synthesis providers impose for strand stability.
    ///
    /// ```
    /// use dnasim_core::{Strand, rng::seeded};
    /// let mut rng = seeded(2);
    /// let s = Strand::random_gc_balanced(100, &mut rng);
    /// assert!((s.gc_ratio() - 0.5).abs() < 1e-9);
    /// ```
    pub fn random_gc_balanced<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Strand {
        use crate::rng::SliceRandom;
        let half = len / 2;
        let mut bases: Vec<Base> = Vec::with_capacity(len);
        for i in 0..len {
            let b = if i < half {
                // GC half.
                if rng.random::<bool>() {
                    Base::G
                } else {
                    Base::C
                }
            } else if rng.random::<bool>() {
                Base::A
            } else {
                Base::T
            };
            bases.push(b);
        }
        bases.shuffle(rng);
        Strand { bases }
    }

    /// Number of bases in the strand.
    #[inline]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the strand has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Returns the base at `pos`, or `None` if out of bounds.
    ///
    /// ```
    /// use dnasim_core::{Base, Strand};
    /// let s: Strand = "ACGT".parse().unwrap();
    /// assert_eq!(s.get(2), Some(Base::G));
    /// assert_eq!(s.get(9), None);
    /// ```
    #[inline]
    pub fn get(&self, pos: usize) -> Option<Base> {
        self.bases.get(pos).copied()
    }

    /// A view of the strand as a slice of bases.
    #[inline]
    pub fn as_bases(&self) -> &[Base] {
        &self.bases
    }

    /// Consumes the strand and returns the underlying base vector.
    pub fn into_bases(self) -> Vec<Base> {
        self.bases
    }

    /// Appends one base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Removes and returns the last base.
    pub fn pop(&mut self) -> Option<Base> {
        self.bases.pop()
    }

    /// Truncates the strand to at most `len` bases.
    pub fn truncate(&mut self, len: usize) {
        self.bases.truncate(len);
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Base>> {
        self.bases.iter().copied()
    }

    /// Appends the bases to `out` as ASCII letters, one table lookup per
    /// base.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "gatc".parse().unwrap();
    /// let mut line = b">".to_vec();
    /// s.extend_ascii(&mut line);
    /// assert_eq!(line, b">GATC");
    /// ```
    pub fn extend_ascii(&self, out: &mut Vec<u8>) {
        out.extend(self.bases.iter().map(|&b| BASE_ASCII[b.index()]));
    }

    /// Returns a new strand with the bases in reverse order.
    ///
    /// Two-way reconstruction algorithms run once on the cluster and once on
    /// every read reversed; this is the primitive they use.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "AAGT".parse().unwrap();
    /// assert_eq!(s.reversed().to_string(), "TGAA");
    /// ```
    pub fn reversed(&self) -> Strand {
        let mut bases = self.bases.clone();
        bases.reverse();
        Strand { bases }
    }

    /// Returns the reverse complement (reverse order, each base
    /// complemented), as produced when sequencing the antisense strand.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "AAGT".parse().unwrap();
    /// assert_eq!(s.reverse_complement().to_string(), "ACTT");
    /// ```
    pub fn reverse_complement(&self) -> Strand {
        Strand {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Returns a sub-strand covering `range` (clamped to the strand length).
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "ACGTAC".parse().unwrap();
    /// assert_eq!(s.substrand(1..4).to_string(), "CGT");
    /// assert_eq!(s.substrand(4..100).to_string(), "AC");
    /// ```
    pub fn substrand(&self, range: std::ops::Range<usize>) -> Strand {
        let start = range.start.min(self.bases.len());
        let end = range.end.min(self.bases.len()).max(start);
        Strand {
            bases: self.bases[start..end].to_vec(),
        }
    }

    /// The GC-ratio: fraction of bases that are G or C.
    ///
    /// Extreme GC-ratios destabilise strands (self-looping secondary
    /// structures), so encoders aim for ~0.5. Returns 0.0 for an empty
    /// strand.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "GGCA".parse().unwrap();
    /// assert!((s.gc_ratio() - 0.75).abs() < 1e-9);
    /// ```
    pub fn gc_ratio(&self) -> f64 {
        if self.bases.is_empty() {
            return 0.0;
        }
        let gc = self.bases.iter().filter(|b| b.is_gc()).count();
        gc as f64 / self.bases.len() as f64
    }

    /// The length of the longest homopolymer run (consecutive repeats of the
    /// same base). Sequencers are particularly error-prone on homopolymers,
    /// so encodings bound this.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let s: Strand = "AACGGGT".parse().unwrap();
    /// assert_eq!(s.max_homopolymer(), 3);
    /// assert_eq!(Strand::new().max_homopolymer(), 0);
    /// ```
    pub fn max_homopolymer(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        let mut prev: Option<Base> = None;
        for &b in &self.bases {
            if Some(b) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(b);
            }
            best = best.max(run);
        }
        best
    }

    /// Concatenates two strands into a new one.
    ///
    /// ```
    /// use dnasim_core::Strand;
    /// let a: Strand = "AC".parse().unwrap();
    /// let b: Strand = "GT".parse().unwrap();
    /// assert_eq!(a.concat(&b).to_string(), "ACGT");
    /// ```
    pub fn concat(&self, other: &Strand) -> Strand {
        let mut bases = Vec::with_capacity(self.len() + other.len());
        bases.extend_from_slice(&self.bases);
        bases.extend_from_slice(&other.bases);
        Strand { bases }
    }

    /// Whether `prefix` is a prefix of this strand.
    pub fn starts_with(&self, prefix: &Strand) -> bool {
        self.bases.starts_with(&prefix.bases)
    }
}

impl Index<usize> for Strand {
    type Output = Base;

    fn index(&self, pos: usize) -> &Base {
        &self.bases[pos]
    }
}

/// The ASCII letter of each base, indexed by [`Base::index`].
const BASE_ASCII: [u8; 4] = *b"ACGT";

/// Every byte `Base::try_from` accepts, in [`Base::index`] order mod 4.
const BASE_LETTERS: &[u8] = b"ACGTacgt";

/// Marks a byte that is not a base letter in [`BYTE_BASE`].
const NOT_A_BASE: u8 = 4;

/// The [`Base::index`] of each byte in [`BASE_LETTERS`], `NOT_A_BASE` for
/// every other byte.
const BYTE_BASE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut i = 0;
    while i < BASE_LETTERS.len() {
        table[BASE_LETTERS[i] as usize] = (i % 4) as u8;
        i += 1;
    }
    table
};


/// Bases rendered per `write_str` by `Strand`'s `Display`.
const DISPLAY_CHUNK: usize = 256;

impl fmt::Display for Strand {
    /// Renders the bases as ASCII, one `write_str` per 256-base chunk.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; DISPLAY_CHUNK];
        for chunk in self.bases.chunks(DISPLAY_CHUNK) {
            for (byte, base) in buf.iter_mut().zip(chunk) {
                *byte = BASE_ASCII[base.index()];
            }
            // Base characters are ASCII, so the chunk is always UTF-8.
            let text = std::str::from_utf8(&buf[..chunk.len()]).map_err(|_| fmt::Error)?;
            f.write_str(text)?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`Strand`] from text fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseStrandError {
    /// Byte position of the offending character.
    pub position: usize,
    /// The underlying base parse error.
    pub source: ParseBaseError,
}

impl fmt::Display for ParseStrandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at position {}", self.source, self.position)
    }
}

impl std::error::Error for ParseStrandError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl FromStr for Strand {
    type Err = ParseStrandError;

    /// Maps every byte through one 256-entry table, with no branch per
    /// base. If any byte is not a base letter, the first such byte is the
    /// error: every byte before it is a one-byte char, so its byte index
    /// is its char position, and the char starting there is the one found.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        let mut invalid = 0;
        let bases = bytes
            .iter()
            .map(|&byte| {
                let code = BYTE_BASE[usize::from(byte)];
                invalid |= code;
                Base::ALL[usize::from(code & 3)]
            })
            .collect();
        if invalid & NOT_A_BASE == 0 {
            return Ok(Strand { bases });
        }
        let position = bytes
            .iter()
            .position(|&byte| BYTE_BASE[usize::from(byte)] == NOT_A_BASE)
            .unwrap_or(bytes.len());
        let found = s[position..].chars().next().unwrap_or_default();
        Err(ParseStrandError {
            position,
            source: ParseBaseError { found },
        })
    }
}

impl FromIterator<Base> for Strand {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Strand {
        Strand {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Base> for Strand {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl From<Vec<Base>> for Strand {
    fn from(bases: Vec<Base>) -> Strand {
        Strand { bases }
    }
}

impl From<Strand> for Vec<Base> {
    fn from(s: Strand) -> Vec<Base> {
        s.bases
    }
}

impl<'a> IntoIterator for &'a Strand {
    type Item = Base;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Base>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Strand {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn parse_and_display_round_trip() {
        let text = "ACGTACGTTTGCA";
        let s: Strand = text.parse().unwrap();
        assert_eq!(s.to_string(), text);
        assert_eq!(s.len(), text.len());
    }

    #[test]
    fn display_matches_the_per_base_oracle_across_chunk_edges() {
        let mut rng = seeded(0xD15);
        for len in [0, 1, 255, 256, 257, 1_000] {
            let s = Strand::random(len, &mut rng);
            let oracle: String = s.iter().map(|b| b.to_string()).collect();
            assert_eq!(s.to_string(), oracle, "len {len}");
            // Through a formatter with surrounding text, as the writers use it.
            assert_eq!(format!(">{s}<"), format!(">{oracle}<"), "len {len}");
        }
    }

    /// The char loop `from_str` replaced, kept as its oracle.
    fn parse_per_char(s: &str) -> Result<Strand, ParseStrandError> {
        let mut bases = Vec::with_capacity(s.len());
        for (position, c) in s.chars().enumerate() {
            let base =
                Base::try_from(c).map_err(|source| ParseStrandError { position, source })?;
            bases.push(base);
        }
        Ok(Strand { bases })
    }

    #[test]
    fn parse_matches_the_per_char_oracle() {
        use crate::rng::RngExt;
        // Both cases of every base, the IUPAC `N`, other ASCII, control
        // bytes, and 2-, 3- and 4-byte UTF-8 (whose char position differs
        // from its byte index only past the first bad char).
        let alphabet = [
            'A', 'C', 'G', 'T', 'a', 'c', 'g', 't', 'N', 'n', 'U', 'X', '-', ' ', '\r', '\0',
            '\u{7f}', 'é', '中', '𝄞',
        ];
        let mut rng = seeded(0x57A4);
        for case in 0..20_000 {
            let len = rng.random_range(0..300usize);
            // Mostly bases, so errors land at every depth of the strand.
            let text: String = (0..len)
                .map(|_| {
                    let pick = if rng.random_bool(0.98) { 8 } else { alphabet.len() };
                    alphabet[rng.random_range(0..pick)]
                })
                .collect();
            assert_eq!(text.parse::<Strand>(), parse_per_char(&text), "case {case}: {text:?}");
        }
        // Every char below 0x100 alone and behind a strand.
        for c in (0u32..0x100).filter_map(char::from_u32) {
            for text in [c.to_string(), format!("ACGTACGTAC{c}GT")] {
                assert_eq!(text.parse::<Strand>(), parse_per_char(&text), "{c:?}");
            }
        }
    }

    #[test]
    fn the_byte_table_accepts_exactly_what_base_accepts() {
        for byte in 0..=u8::MAX {
            let table = Base::from_index(usize::from(BYTE_BASE[usize::from(byte)]));
            assert_eq!(table, Base::try_from(char::from(byte)).ok(), "byte {byte:#04x}");
        }
    }

    #[test]
    fn extend_ascii_matches_display() {
        let mut rng = seeded(0xA5C);
        for len in [0, 1, 7, 8, 9, 110, 300] {
            let s = Strand::random(len, &mut rng);
            let mut out = b"x".to_vec();
            s.extend_ascii(&mut out);
            assert_eq!(out, format!("x{s}").into_bytes(), "len {len}");
        }
    }

    #[test]
    fn parse_lowercase() {
        let s: Strand = "acgt".parse().unwrap();
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    fn parse_error_reports_position() {
        let err = "ACXGT".parse::<Strand>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.source.found, 'X');
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn empty_strand() {
        let s = Strand::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.to_string(), "");
        assert_eq!(s.gc_ratio(), 0.0);
        assert_eq!(s.max_homopolymer(), 0);
    }

    #[test]
    fn reversed_is_involution() {
        let s: Strand = "AACGT".parse().unwrap();
        assert_eq!(s.reversed().reversed(), s);
        assert_eq!(s.reversed().to_string(), "TGCAA");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: Strand = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn gc_ratio_extremes() {
        let all_gc: Strand = "GCGC".parse().unwrap();
        assert!((all_gc.gc_ratio() - 1.0).abs() < 1e-12);
        let no_gc: Strand = "ATAT".parse().unwrap();
        assert!(no_gc.gc_ratio().abs() < 1e-12);
    }

    #[test]
    fn homopolymer_runs() {
        let s: Strand = "AAAAA".parse().unwrap();
        assert_eq!(s.max_homopolymer(), 5);
        let s: Strand = "ACGT".parse().unwrap();
        assert_eq!(s.max_homopolymer(), 1);
        let s: Strand = "ACCGGGT".parse().unwrap();
        assert_eq!(s.max_homopolymer(), 3);
    }

    #[test]
    fn random_has_requested_length() {
        let mut rng = seeded(3);
        for len in [0, 1, 17, 110] {
            assert_eq!(Strand::random(len, &mut rng).len(), len);
        }
    }

    #[test]
    fn random_gc_balanced_is_balanced() {
        let mut rng = seeded(4);
        for _ in 0..10 {
            let s = Strand::random_gc_balanced(110, &mut rng);
            assert_eq!(s.len(), 110);
            assert!((s.gc_ratio() - 0.5).abs() < 0.01, "gc={}", s.gc_ratio());
        }
    }

    #[test]
    fn substrand_clamps() {
        let s: Strand = "ACGTAC".parse().unwrap();
        assert_eq!(s.substrand(0..6), s);
        assert_eq!(s.substrand(2..4).to_string(), "GT");
        assert_eq!(s.substrand(10..20).len(), 0);
    }

    #[test]
    fn collect_and_extend() {
        let s: Strand = Base::ALL.into_iter().collect();
        assert_eq!(s.to_string(), "ACGT");
        let mut t = s.clone();
        t.extend(Base::ALL);
        assert_eq!(t.to_string(), "ACGTACGT");
    }

    #[test]
    fn index_access() {
        let s: Strand = "ACGT".parse().unwrap();
        assert_eq!(s[0], Base::A);
        assert_eq!(s[3], Base::T);
    }

    #[test]
    fn concat_and_starts_with() {
        let a: Strand = "AC".parse().unwrap();
        let b: Strand = "GT".parse().unwrap();
        let c = a.concat(&b);
        assert!(c.starts_with(&a));
        assert!(!c.starts_with(&b));
        assert_eq!(c.len(), 4);
    }
}
