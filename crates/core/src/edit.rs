//! Edit-operation vocabulary for describing how a noisy read differs from
//! its reference strand.
//!
//! The profiler (crate `dnasim-profile`) recovers a maximum-likelihood
//! [`EditScript`] from each (reference, read) pair; the channel models
//! conceptually *emit* such scripts. Keeping the vocabulary here lets every
//! crate in the workspace speak the same error language.

use std::fmt;

use crate::base::Base;
use crate::strand::Strand;

/// A single edit operation transforming a reference strand into a noisy
/// read, in left-to-right reference order.
///
/// Semantics (reference → read):
/// * [`EditOp::Equal`] — the reference base was sequenced correctly.
/// * [`EditOp::Subst`] — the reference base was read as a different base.
/// * [`EditOp::Delete`] — the reference base is missing from the read.
/// * [`EditOp::Insert`] — an extra base appears in the read before the next
///   reference base.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Base, EditOp};
///
/// let op = EditOp::Subst { orig: Base::A, new: Base::G };
/// assert!(op.is_error());
/// assert_eq!(op.to_string(), "A>G");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EditOp {
    /// The base was copied faithfully.
    Equal(Base),
    /// The reference base `orig` was substituted by `new` in the read.
    Subst {
        /// Base in the reference strand.
        orig: Base,
        /// Base that appears in the read instead.
        new: Base,
    },
    /// The reference base was deleted (absent from the read).
    Delete(Base),
    /// An extra base was inserted into the read.
    Insert(Base),
}

impl EditOp {
    /// Whether this operation is an error (anything but `Equal`).
    #[inline]
    pub const fn is_error(self) -> bool {
        !matches!(self, EditOp::Equal(_))
    }

    /// The error kind of this operation, or `None` for `Equal`.
    #[inline]
    pub const fn kind(self) -> Option<ErrorKind> {
        match self {
            EditOp::Equal(_) => None,
            EditOp::Subst { .. } => Some(ErrorKind::Substitution),
            EditOp::Delete(_) => Some(ErrorKind::Deletion),
            EditOp::Insert(_) => Some(ErrorKind::Insertion),
        }
    }

    /// How many reference positions this operation consumes (1 for `Equal`,
    /// `Subst`, `Delete`; 0 for `Insert`).
    #[inline]
    pub const fn reference_advance(self) -> usize {
        match self {
            EditOp::Insert(_) => 0,
            _ => 1,
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOp::Equal(b) => write!(f, "={b}"),
            EditOp::Subst { orig, new } => write!(f, "{orig}>{new}"),
            EditOp::Delete(b) => write!(f, "-{b}"),
            EditOp::Insert(b) => write!(f, "+{b}"),
        }
    }
}

/// The three IDS error kinds of the DNA-storage noisy channel.
///
/// ```
/// use dnasim_core::ErrorKind;
/// assert_eq!(ErrorKind::ALL.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorKind {
    /// A base replaced by another base.
    Substitution,
    /// A base missing from the read.
    Deletion,
    /// An extra base present in the read.
    Insertion,
}

impl ErrorKind {
    /// All three kinds, in `[Substitution, Deletion, Insertion]` order.
    pub const ALL: [ErrorKind; 3] = [
        ErrorKind::Substitution,
        ErrorKind::Deletion,
        ErrorKind::Insertion,
    ];

    /// A stable index in `0..3` for histogramming.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ErrorKind::Substitution => 0,
            ErrorKind::Deletion => 1,
            ErrorKind::Insertion => 2,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::Substitution => "substitution",
            ErrorKind::Deletion => "deletion",
            ErrorKind::Insertion => "insertion",
        })
    }
}

/// An ordered sequence of [`EditOp`]s transforming a reference strand into a
/// read.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Base, EditOp, EditScript, Strand};
///
/// let reference: Strand = "AGCG".parse()?;
/// let script = EditScript::from_ops(vec![
///     EditOp::Equal(Base::A),
///     EditOp::Equal(Base::G),
///     EditOp::Delete(Base::C),
///     EditOp::Equal(Base::G),
/// ]);
/// assert_eq!(script.apply(&reference).unwrap().to_string(), "AGG");
/// assert_eq!(script.error_count(), 1);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditScript {
    ops: Vec<EditOp>,
}

impl EditScript {
    /// Creates a script from operations.
    pub fn from_ops(ops: Vec<EditOp>) -> EditScript {
        EditScript { ops }
    }

    /// The operations, in reference order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of operations (including `Equal`s).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of error operations (non-`Equal`). For a minimal script this
    /// equals the Levenshtein distance between reference and read.
    pub fn error_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_error()).count()
    }

    /// Counts of `[substitutions, deletions, insertions]`.
    pub fn error_kind_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for op in &self.ops {
            if let Some(kind) = op.kind() {
                counts[kind.index()] += 1;
            }
        }
        counts
    }

    /// Applies the script to `reference`, producing the read it encodes.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyScriptError`] if the script does not match the
    /// reference: an `Equal`/`Subst`/`Delete` op names a base different from
    /// the reference base at that position, or the script consumes a
    /// different number of reference bases than `reference` has.
    pub fn apply(&self, reference: &Strand) -> Result<Strand, ApplyScriptError> {
        let mut out = Strand::with_capacity(reference.len());
        let mut pos = 0usize;
        for (op_index, &op) in self.ops.iter().enumerate() {
            match op {
                EditOp::Insert(b) => out.push(b),
                EditOp::Equal(b) | EditOp::Delete(b) | EditOp::Subst { orig: b, .. } => {
                    let actual = reference.get(pos).ok_or(ApplyScriptError {
                        op_index,
                        reference_pos: pos,
                        mismatch: Mismatch::PastEnd,
                    })?;
                    if actual != b {
                        return Err(ApplyScriptError {
                            op_index,
                            reference_pos: pos,
                            mismatch: Mismatch::BaseMismatch {
                                expected: b,
                                actual,
                            },
                        });
                    }
                    match op {
                        EditOp::Equal(_) | EditOp::Insert(_) => out.push(b),
                        EditOp::Subst { new, .. } => out.push(new),
                        EditOp::Delete(_) => {}
                    }
                    pos += 1;
                }
            }
        }
        if pos != reference.len() {
            return Err(ApplyScriptError {
                op_index: self.ops.len(),
                reference_pos: pos,
                mismatch: Mismatch::Underconsumed {
                    reference_len: reference.len(),
                },
            });
        }
        Ok(out)
    }

    /// Lengths of every maximal run of consecutive deletions.
    ///
    /// Long deletions (runs of length ≥ 2) are a separately-modelled error
    /// class (§3.3.1).
    ///
    /// ```
    /// use dnasim_core::{Base, EditOp, EditScript};
    /// let script = EditScript::from_ops(vec![
    ///     EditOp::Delete(Base::A),
    ///     EditOp::Delete(Base::C),
    ///     EditOp::Equal(Base::G),
    ///     EditOp::Delete(Base::T),
    /// ]);
    /// assert_eq!(script.deletion_run_lengths(), vec![2, 1]);
    /// ```
    pub fn deletion_run_lengths(&self) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut run = 0usize;
        for &op in &self.ops {
            if matches!(op, EditOp::Delete(_)) {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        if run > 0 {
            runs.push(run);
        }
        runs
    }

    /// Lengths of every maximal run of *consecutive errors* of any kind —
    /// the burst structure of the read. Nanopore sequencing is notably
    /// prone to bursts of five or more consecutive corrupted bases.
    ///
    /// ```
    /// use dnasim_core::{Base, EditOp, EditScript};
    /// let script = EditScript::from_ops(vec![
    ///     EditOp::Delete(Base::A),
    ///     EditOp::Subst { orig: Base::C, new: Base::G },
    ///     EditOp::Equal(Base::G),
    ///     EditOp::Insert(Base::T),
    /// ]);
    /// assert_eq!(script.error_run_lengths(), vec![2, 1]);
    /// ```
    pub fn error_run_lengths(&self) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut run = 0usize;
        for &op in &self.ops {
            if op.is_error() {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        if run > 0 {
            runs.push(run);
        }
        runs
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, EditOp> {
        self.ops.iter()
    }
}

impl FromIterator<EditOp> for EditScript {
    fn from_iter<I: IntoIterator<Item = EditOp>>(iter: I) -> EditScript {
        EditScript {
            ops: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a EditScript {
    type Item = &'a EditOp;
    type IntoIter = std::slice::Iter<'a, EditOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// Where an [`EditScript::apply`] mismatch occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// The op named a base different from the reference base.
    BaseMismatch {
        /// Base the script expected at this reference position.
        expected: Base,
        /// Base actually present in the reference.
        actual: Base,
    },
    /// The script consumed more reference bases than exist.
    PastEnd,
    /// The script ended before consuming the whole reference.
    Underconsumed {
        /// Length of the reference strand.
        reference_len: usize,
    },
}

/// Error returned when applying an [`EditScript`] to a reference it does not
/// describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyScriptError {
    /// Index of the offending operation within the script.
    pub op_index: usize,
    /// Reference position at the time of the mismatch.
    pub reference_pos: usize,
    /// What went wrong.
    pub mismatch: Mismatch,
}

impl fmt::Display for ApplyScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mismatch {
            Mismatch::BaseMismatch { expected, actual } => write!(
                f,
                "edit script op {} expected base {} at reference position {}, found {}",
                self.op_index, expected, self.reference_pos, actual
            ),
            Mismatch::PastEnd => write!(
                f,
                "edit script op {} consumes past the end of the reference (position {})",
                self.op_index, self.reference_pos
            ),
            Mismatch::Underconsumed { reference_len } => write!(
                f,
                "edit script consumed only {} of {} reference bases",
                self.reference_pos, reference_len
            ),
        }
    }
}

impl std::error::Error for ApplyScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn strand(s: &str) -> Strand {
        s.parse().unwrap()
    }

    #[test]
    fn identity_script_reproduces_reference() {
        let r = strand("ACGT");
        let script: EditScript = r.iter().map(EditOp::Equal).collect();
        assert_eq!(script.apply(&r).unwrap(), r);
        assert_eq!(script.error_count(), 0);
    }

    #[test]
    fn substitution_script() {
        let r = strand("AG");
        let script = EditScript::from_ops(vec![
            EditOp::Equal(Base::A),
            EditOp::Subst {
                orig: Base::G,
                new: Base::C,
            },
        ]);
        assert_eq!(script.apply(&r).unwrap(), strand("AC"));
        assert_eq!(script.error_kind_counts(), [1, 0, 0]);
    }

    #[test]
    fn insertion_before_and_after() {
        let r = strand("A");
        let script = EditScript::from_ops(vec![
            EditOp::Insert(Base::T),
            EditOp::Equal(Base::A),
            EditOp::Insert(Base::G),
        ]);
        assert_eq!(script.apply(&r).unwrap(), strand("TAG"));
        assert_eq!(script.error_kind_counts(), [0, 0, 2]);
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let r = strand("AC");
        let script = EditScript::from_ops(vec![EditOp::Equal(Base::C), EditOp::Equal(Base::C)]);
        let err = script.apply(&r).unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(matches!(err.mismatch, Mismatch::BaseMismatch { .. }));
    }

    #[test]
    fn apply_rejects_overconsumption() {
        let r = strand("A");
        let script = EditScript::from_ops(vec![EditOp::Equal(Base::A), EditOp::Delete(Base::A)]);
        let err = script.apply(&r).unwrap_err();
        assert!(matches!(err.mismatch, Mismatch::PastEnd));
    }

    #[test]
    fn apply_rejects_underconsumption() {
        let r = strand("AC");
        let script = EditScript::from_ops(vec![EditOp::Equal(Base::A)]);
        let err = script.apply(&r).unwrap_err();
        assert!(matches!(err.mismatch, Mismatch::Underconsumed { .. }));
        assert!(err.to_string().contains("1 of 2"));
    }

    #[test]
    fn deletion_runs() {
        let script = EditScript::from_ops(vec![
            EditOp::Delete(Base::A),
            EditOp::Delete(Base::A),
            EditOp::Delete(Base::A),
            EditOp::Equal(Base::C),
            EditOp::Delete(Base::G),
        ]);
        assert_eq!(script.deletion_run_lengths(), vec![3, 1]);
    }

    #[test]
    fn op_advances() {
        assert_eq!(EditOp::Equal(Base::A).reference_advance(), 1);
        assert_eq!(EditOp::Insert(Base::A).reference_advance(), 0);
        assert_eq!(EditOp::Delete(Base::A).reference_advance(), 1);
    }

    #[test]
    fn op_display() {
        assert_eq!(EditOp::Equal(Base::A).to_string(), "=A");
        assert_eq!(EditOp::Delete(Base::G).to_string(), "-G");
        assert_eq!(EditOp::Insert(Base::T).to_string(), "+T");
        assert_eq!(
            EditOp::Subst {
                orig: Base::A,
                new: Base::T
            }
            .to_string(),
            "A>T"
        );
    }

    #[test]
    fn kind_indices_are_stable() {
        assert_eq!(ErrorKind::Substitution.index(), 0);
        assert_eq!(ErrorKind::Deletion.index(), 1);
        assert_eq!(ErrorKind::Insertion.index(), 2);
        for (i, k) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
