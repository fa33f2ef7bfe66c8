//! Guarded transition systems over finite-domain scalar variables.
//!
//! The model mirrors what the paper's C-to-SAL translation produces: a set of
//! state variables `x₁ … xₙ` with finite domains `D₁ … Dₙ`, a program counter
//! over a finite set of locations, and guarded transitions whose effects are
//! simultaneous assignments.  The number of bits required to encode the state
//! vector (`Σ bits(Dᵢ)` plus the program-counter bits) is the quantity the
//! paper's Section 3.1 identifies as the limiting factor for model-checking
//! performance.

use serde::{Deserialize, Serialize};
use std::fmt;
use tmg_minic::ast::{Expr, StmtId};
use tmg_minic::interp::BranchChoice;
use tmg_minic::types::Ty;

/// A location of the transition system's program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocId(pub u32);

impl LocId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Whether a state variable is an analysis input (test-data parameter) or an
/// internal program variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VarRole {
    /// Function parameter: its initial value is the test data the checker
    /// searches for.
    Input,
    /// Local variable of the analysed function.  If it has no initial value
    /// it is *uninitialised* and the model checker may pick any value for it
    /// (enlarging the initial state set, exactly as Section 3.2.5 describes).
    Local,
}

/// A state variable of the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateVar {
    /// Variable name (matches the mini-C declaration).
    pub name: String,
    /// Declared mini-C type.
    pub ty: Ty,
    /// Finite domain `lo..=hi` used by the checker and for bit accounting.
    pub domain: (i64, i64),
    /// Initial value; `None` means the variable is free in the initial state.
    pub init: Option<i64>,
    /// Input or local.
    pub role: VarRole,
}

impl StateVar {
    /// Number of bits needed to encode the variable's domain.
    pub fn bits(&self) -> u32 {
        bits_for_domain(self.domain)
    }

    /// Number of values in the domain.
    pub fn domain_size(&self) -> u64 {
        let (lo, hi) = self.domain;
        (hi - lo + 1).max(1) as u64
    }

    /// Whether the variable's initial value is unconstrained.
    pub fn is_free(&self) -> bool {
        self.init.is_none()
    }
}

/// Number of bits needed for an inclusive integer range.
pub fn bits_for_domain((lo, hi): (i64, i64)) -> u32 {
    let span = (hi - lo).max(0) as u64;
    if span == 0 {
        return 0;
    }
    64 - span.leading_zeros()
}

/// A guarded transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// Source location.
    pub from: LocId,
    /// Guard; `None` means always enabled.
    pub guard: Option<Expr>,
    /// Simultaneous assignments `(variable, expression)` applied on firing.
    pub effect: Vec<(String, Expr)>,
    /// Destination location.
    pub to: LocId,
    /// If this transition corresponds to one outcome of a branching C
    /// statement, the statement and the outcome it encodes.  The checker's
    /// path monitor watches these.
    pub decision: Option<(StmtId, BranchChoice)>,
}

impl Transition {
    /// Variables read by the guard and the effect expressions.
    pub fn read_vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        if let Some(g) = &self.guard {
            out.extend(g.referenced_vars());
        }
        for (_, e) in &self.effect {
            out.extend(e.referenced_vars());
        }
        out
    }

    /// Variables written by the effect.
    pub fn written_vars(&self) -> Vec<&str> {
        self.effect.iter().map(|(v, _)| v.as_str()).collect()
    }
}

/// A complete transition system for one analysed function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model {
    /// Name of the encoded function.
    pub name: String,
    /// State variables.
    pub vars: Vec<StateVar>,
    /// Number of program-counter locations.
    pub locations: u32,
    /// Initial location.
    pub initial: LocId,
    /// Final location (function returned / fell off the end).
    pub final_loc: LocId,
    /// Transitions.
    pub transitions: Vec<Transition>,
}

impl Model {
    /// Looks up a state variable by name.
    pub fn var(&self, name: &str) -> Option<&StateVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Bits needed for the data part of the state vector (`Σ bits(Dᵢ)`).
    ///
    /// The paper reports that SAL needs this to stay below roughly 700 bits
    /// for acceptable performance; [`Model::state_bits`] is what the Table-2
    /// optimisations reduce.
    pub fn data_bits(&self) -> u32 {
        self.vars.iter().map(StateVar::bits).sum()
    }

    /// Bits needed for the program counter.
    pub fn pc_bits(&self) -> u32 {
        bits_for_domain((0, i64::from(self.locations.saturating_sub(1))))
    }

    /// Total state-vector bits (data + program counter).
    pub fn state_bits(&self) -> u32 {
        self.data_bits() + self.pc_bits()
    }

    /// Bytes needed to store one concrete state (used for the memory
    /// estimates reported in the Table-2 reproduction).
    pub fn state_bytes(&self) -> u64 {
        u64::from(self.state_bits().div_ceil(8))
    }

    /// Number of free variables (whose initial value the checker must pick):
    /// the size of the initial-state dimensionality the paper calls `D_I`.
    pub fn free_var_count(&self) -> usize {
        self.vars.iter().filter(|v| v.is_free()).count()
    }

    /// Product of the free variables' domain sizes — `|D_I|`, saturating.
    pub fn initial_state_count(&self) -> u128 {
        self.vars
            .iter()
            .filter(|v| v.is_free())
            .map(|v| u128::from(v.domain_size()))
            .fold(1u128, |acc, d| acc.saturating_mul(d))
    }

    /// Basic well-formedness: locations in range, guard/decision consistency.
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.transitions {
            if t.from.0 >= self.locations || t.to.0 >= self.locations {
                return Err(format!(
                    "transition {:?} references an out-of-range location",
                    t
                ));
            }
            for v in t.written_vars() {
                if self.var(v).is_none() {
                    return Err(format!("transition writes unknown variable `{v}`"));
                }
            }
            for v in t.read_vars() {
                if self.var(v).is_none() {
                    return Err(format!("transition reads unknown variable `{v}`"));
                }
            }
        }
        if self.initial.0 >= self.locations || self.final_loc.0 >= self.locations {
            return Err("initial or final location out of range".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::ast::Expr;

    fn sample_model() -> Model {
        Model {
            name: "m".to_owned(),
            vars: vec![
                StateVar {
                    name: "a".to_owned(),
                    ty: Ty::I8,
                    domain: (0, 3),
                    init: None,
                    role: VarRole::Input,
                },
                StateVar {
                    name: "b".to_owned(),
                    ty: Ty::I16,
                    domain: (-32768, 32767),
                    init: Some(0),
                    role: VarRole::Local,
                },
            ],
            locations: 3,
            initial: LocId(0),
            final_loc: LocId(2),
            transitions: vec![Transition {
                from: LocId(0),
                guard: Some(Expr::var("a")),
                effect: vec![("b".to_owned(), Expr::int(1))],
                to: LocId(1),
                decision: None,
            }],
        }
    }

    #[test]
    fn bits_for_domain_matches_expectations() {
        assert_eq!(bits_for_domain((0, 0)), 0);
        assert_eq!(bits_for_domain((0, 1)), 1);
        assert_eq!(bits_for_domain((0, 3)), 2);
        assert_eq!(bits_for_domain((0, 255)), 8);
        assert_eq!(bits_for_domain((-128, 127)), 8);
        assert_eq!(bits_for_domain((-32768, 32767)), 16);
    }

    #[test]
    fn state_bits_sum_data_and_pc() {
        let m = sample_model();
        assert_eq!(m.data_bits(), 2 + 16);
        assert_eq!(m.pc_bits(), 2);
        assert_eq!(m.state_bits(), 20);
        assert_eq!(m.state_bytes(), 3);
    }

    #[test]
    fn free_variables_and_initial_state_count() {
        let m = sample_model();
        assert_eq!(m.free_var_count(), 1);
        assert_eq!(m.initial_state_count(), 4);
    }

    #[test]
    fn transition_read_write_sets() {
        let m = sample_model();
        let t = &m.transitions[0];
        assert_eq!(t.read_vars(), vec!["a"]);
        assert_eq!(t.written_vars(), vec!["b"]);
    }

    #[test]
    fn validate_detects_bad_references() {
        let mut m = sample_model();
        m.validate().expect("valid");
        m.transitions[0].effect[0].0 = "zz".to_owned();
        assert!(m.validate().is_err());
        let mut m2 = sample_model();
        m2.transitions[0].to = LocId(99);
        assert!(m2.validate().is_err());
    }

    #[test]
    fn var_lookup() {
        let m = sample_model();
        assert!(m.var("a").is_some());
        assert!(m.var("nope").is_none());
        assert_eq!(m.var("a").map(|v| v.domain_size()), Some(4));
    }
}
