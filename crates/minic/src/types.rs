//! Scalar types of the mini-C language.
//!
//! The paper's Section 3.1 emphasises that the number of *bits* used to encode
//! each variable dominates the model-checking state space (a boolean stored as
//! a 16-bit `int` wastes 15 bits).  The type layer therefore exposes the bit
//! width of every type, and the variable-range-analysis optimisation narrows
//! declared types to the smallest width that fits the observed range.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Scalar type of a mini-C variable or expression.
///
/// Widths follow the 16-bit HCS12 compilation model used in the paper:
/// `int` is 16 bits, `char` is 8 bits and `long` is 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Ty {
    /// Boolean, one bit of information (stored as a machine byte).
    Bool,
    /// Signed 8-bit integer (`char`).
    I8,
    /// Unsigned 8-bit integer (`unsigned char`).
    U8,
    /// Signed 16-bit integer (`int`).
    I16,
    /// Unsigned 16-bit integer (`unsigned int`).
    U16,
    /// Signed 32-bit integer (`long`).
    I32,
}

impl Ty {
    /// Number of bits needed to represent a value of this type in the model
    /// checker's state vector.
    ///
    /// ```
    /// use tmg_minic::Ty;
    /// assert_eq!(Ty::Bool.bits(), 1);
    /// assert_eq!(Ty::I16.bits(), 16);
    /// ```
    pub fn bits(self) -> u32 {
        match self {
            Ty::Bool => 1,
            Ty::I8 | Ty::U8 => 8,
            Ty::I16 | Ty::U16 => 16,
            Ty::I32 => 32,
        }
    }

    /// Size in bytes when stored in target memory (booleans occupy one byte).
    pub fn storage_bytes(self) -> u32 {
        match self {
            Ty::Bool | Ty::I8 | Ty::U8 => 1,
            Ty::I16 | Ty::U16 => 2,
            Ty::I32 => 4,
        }
    }

    /// Inclusive range of representable values.
    ///
    /// ```
    /// use tmg_minic::Ty;
    /// assert_eq!(Ty::U8.value_range(), (0, 255));
    /// assert_eq!(Ty::I8.value_range(), (-128, 127));
    /// assert_eq!(Ty::Bool.value_range(), (0, 1));
    /// ```
    pub fn value_range(self) -> (i64, i64) {
        match self {
            Ty::Bool => (0, 1),
            Ty::I8 => (i64::from(i8::MIN), i64::from(i8::MAX)),
            Ty::U8 => (0, i64::from(u8::MAX)),
            Ty::I16 => (i64::from(i16::MIN), i64::from(i16::MAX)),
            Ty::U16 => (0, i64::from(u16::MAX)),
            Ty::I32 => (i64::from(i32::MIN), i64::from(i32::MAX)),
        }
    }

    /// Smallest mini-C type able to hold every value in `lo..=hi`.
    ///
    /// Used by the variable-range-analysis optimisation: declarations whose
    /// observed range fits into a narrower type are re-encoded with that type.
    ///
    /// ```
    /// use tmg_minic::Ty;
    /// assert_eq!(Ty::smallest_for_range(0, 1), Ty::Bool);
    /// assert_eq!(Ty::smallest_for_range(0, 200), Ty::U8);
    /// assert_eq!(Ty::smallest_for_range(-5, 5), Ty::I8);
    /// assert_eq!(Ty::smallest_for_range(-40000, 40000), Ty::I32);
    /// ```
    pub fn smallest_for_range(lo: i64, hi: i64) -> Ty {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let fits = |ty: Ty| {
            let (tlo, thi) = ty.value_range();
            tlo <= lo && hi <= thi
        };
        for ty in [Ty::Bool, Ty::U8, Ty::I8, Ty::U16, Ty::I16, Ty::I32] {
            if fits(ty) {
                return ty;
            }
        }
        Ty::I32
    }

    /// Wraps `v` into the representable range of this type using two's
    /// complement semantics (the behaviour of the HCS12 C compiler).
    ///
    /// ```
    /// use tmg_minic::Ty;
    /// assert_eq!(Ty::U8.wrap(256), 0);
    /// assert_eq!(Ty::I8.wrap(128), -128);
    /// assert_eq!(Ty::Bool.wrap(7), 1);
    /// ```
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            Ty::Bool => i64::from(v != 0),
            Ty::I8 => i64::from(v as i8),
            Ty::U8 => i64::from(v as u8),
            Ty::I16 => i64::from(v as i16),
            Ty::U16 => i64::from(v as u16),
            Ty::I32 => i64::from(v as i32),
        }
    }

    /// The C keyword spelling of this type used by the pretty printer.
    pub fn keyword(self) -> &'static str {
        match self {
            Ty::Bool => "bool",
            Ty::I8 => "char",
            Ty::U8 => "unsigned char",
            Ty::I16 => "int",
            Ty::U16 => "unsigned int",
            Ty::I32 => "long",
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_storage_are_consistent() {
        for ty in [Ty::Bool, Ty::I8, Ty::U8, Ty::I16, Ty::U16, Ty::I32] {
            assert!(ty.bits() <= ty.storage_bytes() * 8);
        }
    }

    #[test]
    fn value_range_is_ordered() {
        for ty in [Ty::Bool, Ty::I8, Ty::U8, Ty::I16, Ty::U16, Ty::I32] {
            let (lo, hi) = ty.value_range();
            assert!(lo < hi, "{ty:?}");
        }
    }

    #[test]
    fn smallest_for_range_prefers_narrow_types() {
        assert_eq!(Ty::smallest_for_range(0, 0), Ty::Bool);
        assert_eq!(Ty::smallest_for_range(1, 1), Ty::Bool);
        assert_eq!(Ty::smallest_for_range(0, 2), Ty::U8);
        assert_eq!(Ty::smallest_for_range(-1, 1), Ty::I8);
        assert_eq!(Ty::smallest_for_range(0, 1000), Ty::U16);
        assert_eq!(Ty::smallest_for_range(-1000, 1000), Ty::I16);
        assert_eq!(Ty::smallest_for_range(0, 70000), Ty::I32);
    }

    #[test]
    fn smallest_for_range_accepts_reversed_bounds() {
        assert_eq!(Ty::smallest_for_range(5, -5), Ty::I8);
    }

    #[test]
    fn wrap_matches_twos_complement() {
        assert_eq!(Ty::I16.wrap(32768), -32768);
        assert_eq!(Ty::U16.wrap(-1), 65535);
        assert_eq!(Ty::I32.wrap(1 << 40), 0);
        assert_eq!(Ty::Bool.wrap(-3), 1);
        assert_eq!(Ty::Bool.wrap(0), 0);
    }

    #[test]
    fn display_uses_c_keywords() {
        assert_eq!(Ty::I16.to_string(), "int");
        assert_eq!(Ty::U8.to_string(), "unsigned char");
    }
}
